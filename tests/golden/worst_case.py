"""Time the CLI on worst-case documents: ``validate`` on the sweeps of
``tests._gen.sweep_words``, strings whose positive tail sweeps the core's box
for about ``s / 2`` periods, the valid ones and the variants whose first
revisit lies on the last in-box period; the valid strings of
``opposite_heading_words``, whose tails share one column with ``N`` letters
each; and ``straighten`` on the oscillating core
``"X+Z+X-Z+Y+Z+Y-Z+" * (n // 8)`` with tails ``Z+`` in the region
``-5,-5,-5:6,6,n/2+5``, whose pass loop takes ``n / 4`` passes.  Each
document runs in a fresh ``python -m toric3d.cli`` with its command and the
document on stdin; the script prints one Markdown table row per document
with the child's wall time, exit code and peak resident set (``ru_maxrss``
of that child alone).

Run from the repository root against the tree to be measured::

    PYTHONPATH=src python tests/golden/worst_case.py

It takes about 30 s on a 2-vCPU VM, 12 s of it the opposite-heading
N = 4000 row, whose tail check is quadratic in N, and 6 s the n = 5120
``straighten`` row, whose pass loop is quadratic in n; one child holds a few
hundred MiB (the s = 1000 rejection).  It is not part of the test suite.
Compare trees on one machine, one after the other: the times include
interpreter start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests._gen import opposite_heading_words, sweep_words  # noqa: E402

# (s, L, R, reject)
SWEEPS = [
    (2000, 200, 50, False),
    (4000, 200, 100, False),
    (8000, 200, 100, False),
    (250, 100, 20, True),
    (500, 100, 20, True),
    (1000, 100, 20, True),
]
OPPOSITE_HEADING = [1000, 2000, 4000]
STRAIGHTEN = [1280, 2560, 5120]


def documents():
    """``(variant, parameters, command, (neg, core, pos, base))`` per table
    row; ``command`` is the CLI command and its arguments."""
    for s, L, R, reject in SWEEPS:
        words = (*sweep_words(s, L, R, reject), (0, 0, 0))
        yield "rejection" if reject else "acceptance", f"{s}, {L}, {R}", ["validate"], words
    for N in OPPOSITE_HEADING:
        yield "opposite heading", f"N = {N}", ["validate"], opposite_heading_words(N)
    for n in STRAIGHTEN:
        # one argument, or argparse reads the region's leading minus as a flag
        command = ["straighten", f"--region=-5,-5,-5:6,6,{n // 2 + 5}"]
        yield "straighten", f"n = {n}", command, ("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * (n // 8), "Z+", (0, 0, 0))


def run(command: list[str], neg: str, core: str, pos: str, base) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS in MiB of one CLI ``command``."""
    string = {"neg_period": neg, "core": core, "pos_period": pos, "base": list(base)}
    doc = json.dumps({"strings": [string]}).encode()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "toric3d.cli", *command],
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
    for variant, parameters, command, words in documents():
        wall, code, rss = run(command, *words)
        _, core, pos, _ = words
        print(f"| {variant} | {parameters} | {len(core) // 2} | {len(pos) // 2} | {wall:.2f} | {code} | {rss:.0f} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
