"""Time ``validate`` on the sweep documents of ``tests._gen.sweep_words``:
strings whose positive tail sweeps the core's box for about ``s / 2``
periods, the valid ones and the variants whose first revisit lies on the
last in-box period.  Each document runs in a fresh ``python -m toric3d.cli
validate`` with the document on stdin; the script prints one Markdown table
row per document with the child's wall time, exit code and peak resident
set (``ru_maxrss`` of that child alone).

Run from the repository root against the tree to be measured::

    PYTHONPATH=src:. python tests/golden/worst_case.py

It takes about 30 s on a 2-vCPU VM, and one child holds a few hundred MiB
(the s = 1000 rejection); it is not part of the test suite.  Compare trees
on one machine, one after the other: the times include interpreter start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from tests._gen import sweep_words

# (s, L, R, reject)
DOCUMENTS = [
    (2000, 200, 50, False),
    (4000, 200, 100, False),
    (250, 100, 20, True),
    (500, 100, 20, True),
    (1000, 100, 20, True),
]


def run(s: int, L: int, R: int, reject: bool) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS in MiB of one ``validate``."""
    neg, core, pos = sweep_words(s, L, R, reject)
    doc = json.dumps({"strings": [{"neg_period": neg, "core": core, "pos_period": pos}]}).encode()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "toric3d.cli", "validate"],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
    )
    child.stdin.write(doc)
    child.stdin.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024


def main() -> int:
    print("| variant | s, L, R | core letters | period letters | wall time (s) | exit | max RSS (MiB) |")
    print("|---|---|---|---|---|---|---|")
    for s, L, R, reject in DOCUMENTS:
        _, core, pos = sweep_words(s, L, R, reject)
        wall, code, rss = run(s, L, R, reject)
        variant = "rejection" if reject else "acceptance"
        print(f"| {variant} | {s}, {L}, {R} | {len(core) // 2} | {len(pos) // 2} | {wall:.2f} | {code} | {rss:.0f} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
