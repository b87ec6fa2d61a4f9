"""Check the F2 verifier at the sizes the combinatorial layer handles: for
the core-1280 ``decide`` configurations of ``perfbench/gen.py`` seed 5, in
generation order, ``configuration_flip`` and ``syndrome_energy`` run on the
configuration's own region, and the syndrome must equal ``energy``.

Each configuration gets its own block.  The clip is the region widened by
2, and the block's side is ``2 * max|c| + 3`` over the clip's corner
coordinates ``c``, so the block holds the clip with a step to spare.  One
row per configuration gives the block side ``n``, the energy, the flip's
weight (x + z), the time of flip plus syndrome in ms (best of 3), and the
tracemalloc peak in MiB over building the block, the flip and the
syndrome; a last line gives the count and the worst time and peak.  The
script exits 1 when any syndrome differs from the energy or any check
takes over ``MAX_MS`` or ``MAX_MIB``.

Run from the repository root against the tree to be checked::

    PYTHONPATH=src python tests/golden/verifier_scale.py

The seed's 16 passes hold 192 core-1280 configurations, on blocks of side
729 to 2737; the script takes about 40 s on a 2-vCPU VM.  It reads
``perfbench/gen.py`` and ``perfbench/worker.py``; it is not part of the
test suite, so that the suite does not depend on the benchmark's
generator.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Decide  # noqa: E402

SEED = 5
SIZE = 1280
MAX_MS = 1000
MAX_MIB = 100


def check(st, cfg, region):
    """``(n, syndrome, weight)`` of the verifier's run on ``region``."""
    clip = region.inflate(2)
    n = 2 * max(abs(c) for corner in clip for c in corner) + 3
    lat = st.FiniteLattice(n)
    flip = st.configuration_flip(lat, cfg, region, clip)
    return n, st.syndrome_energy(lat, flip, region), flip.x_weight + flip.z_weight


def main() -> int:
    workload = Decide({}, Tracer(enabled=False), None)
    t, st = workload.t, workload.st
    failed = 0
    worst_ms = worst_mib = 0.0
    print(f"{'op':>3} {'n':>5} {'energy':>7} {'weight':>9} {'ms':>8} {'MiB':>7}")
    docs = [doc for ops in gen.generate("decide", SEED) for doc in ops]
    configs = [d for d in docs if d["op"] == "config" and d["size"] == SIZE]
    for i, doc in enumerate(configs):
        _specs, cfg = workload.configuration(doc, f"core{SIZE}")
        region = t.region_of(*map(tuple, doc["region"]))
        total = t.energy(cfg, region).total
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            n, syndrome, weight = check(st, cfg, region)
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        try:
            check(st, cfg, region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ms, mib = 1000 * best, peak / 2**20
        worst_ms, worst_mib = max(worst_ms, ms), max(worst_mib, mib)
        bad = syndrome != total or ms > MAX_MS or mib > MAX_MIB
        failed += bad
        print(f"{i:>3} {n:>5} {total:>7} {weight:>9} {ms:>8.1f} {mib:>7.2f}{'  FAIL' if bad else ''}")
    print(f"{len(configs)} checks, {failed} failed, worst {worst_ms:.1f} ms and {worst_mib:.2f} MiB")
    if failed:
        print(f"{failed} checks failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
