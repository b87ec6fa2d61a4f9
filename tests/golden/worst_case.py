"""Time the CLI on worst-case documents: ``validate`` on the sweeps of
``tests._gen.sweep_words``, strings whose positive tail sweeps the core's box
for about ``s / 2`` periods, the valid ones and the variants whose first
revisit lies on the last in-box period; the valid strings of
``opposite_heading_words``, whose tails share one column with ``N`` letters
each; ``straighten`` on the oscillating core
``"X+Z+X-Z+Y+Z+Y-Z+" * (n // 8)`` with tails ``Z+`` in the region
``-5,-5,-5:6,6,n/2+5``, whose pass loop takes ``n / 4`` passes; and, on
``k`` disjoint straight ``Z+`` lines based at ``(2i, 0, 0)``, ``energy`` in
the region ``-1,-1,-1:2k,1,1`` and ``surgery`` along one face far from
every line (an exit-2 ``NoOverlap``), both of which test every pair of
lines.  Each document runs in a fresh ``python -m toric3d.cli`` with its
command and the document on stdin; the script prints one Markdown table row
per document with the child's wall time, exit code and peak resident set
(``ru_maxrss`` of that child alone).

Run from the repository root against the tree to be measured::

    PYTHONPATH=src python tests/golden/worst_case.py

It takes about a minute on a 2-vCPU VM: 12 s of it the opposite-heading
N = 4000 row, whose tail check is quadratic in N, 6 s the n = 5120
``straighten`` row, whose pass loop is quadratic in n, and about 10 s each
the k = 4000 ``energy`` and k = 800 ``surgery`` rows, quadratic in k; one
child holds a few hundred MiB (the s = 1000 rejection).  It is not part of
the test suite.  Compare trees on one machine, one after the other: the
times include interpreter start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
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
LINES_ENERGY = [500, 1000, 2000, 4000]
LINES_SURGERY = [100, 200, 400, 800]
# one dual face far from every line of the k-line documents
FAR_FACE = [{"base": [0, 50, 0], "normal": "z"}]


def lines(k: int) -> list[tuple]:
    """``k`` disjoint straight ``Z+`` lines based at ``(2i, 0, 0)``."""
    return [("Z+", "", "Z+", (2 * i, 0, 0)) for i in range(k)]


def documents(surface: str):
    """``(variant, parameters, command, strings)`` per table row; ``command``
    is the CLI command and its arguments, ``strings`` the document's
    ``(neg, core, pos, base)`` words and ``surface`` the path of the
    ``FAR_FACE`` file."""
    for s, L, R, reject in SWEEPS:
        words = (*sweep_words(s, L, R, reject), (0, 0, 0))
        yield "rejection" if reject else "acceptance", f"{s}, {L}, {R}", ["validate"], [words]
    for N in OPPOSITE_HEADING:
        yield "opposite heading", f"N = {N}", ["validate"], [opposite_heading_words(N)]
    for n in STRAIGHTEN:
        # one argument, or argparse reads the region's leading minus as a flag
        command = ["straighten", f"--region=-5,-5,-5:6,6,{n // 2 + 5}"]
        yield "straighten", f"n = {n}", command, [("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * (n // 8), "Z+", (0, 0, 0))]
    for k in LINES_ENERGY:
        yield "energy, k lines", f"k = {k}", ["energy", f"--region=-1,-1,-1:{2 * k},1,1"], lines(k)
    for k in LINES_SURGERY:
        yield "surgery, k lines", f"k = {k}", ["surgery", f"--surface={surface}"], lines(k)


def run(command: list[str], strings: list[tuple]) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS in MiB of one CLI ``command``."""
    doc = {"strings": [{"neg_period": n, "core": c, "pos_period": p, "base": list(b)} for n, c, p, b in strings]}
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "toric3d.cli", *command],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
    )
    child.stdin.write(json.dumps(doc).encode())
    child.stdin.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024


def main() -> int:
    print("| variant | parameters | core letters | period letters | wall time (s) | exit | max RSS (MiB) |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        surface = Path(tmp) / "far_face.json"
        surface.write_text(json.dumps(FAR_FACE))
        for variant, parameters, command, strings in documents(str(surface)):
            wall, code, rss = run(command, strings)
            _, core, pos, _ = strings[0]
            print(f"| {variant} | {parameters} | {len(core) // 2} | {len(pos) // 2} | {wall:.2f} | {code} | {rss:.0f} |")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
