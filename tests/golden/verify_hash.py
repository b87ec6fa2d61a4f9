"""Check the ``verify`` output hash: the sha256 over
``repr((combinatorial, syndrome, x_keys, z_keys))`` for every op of
``perfbench/gen.py`` seeds 5, 31, 77 and 101, in generation order, on the
workload's block and region, against ``EXPECTED``.  ``x_keys`` and
``z_keys`` are the sorted edge keys of the flip's two supports, so the
digest does not depend on which code a qubit takes.  A support is held as
its run bounds; ``codes`` below decodes them into the support's cell codes
by pairing each residue's sorted bounds alternately into the runs
``range(s, e, 3)``.  Each code is decoded through the support of
``pauli_from_keys(lat, x_keys=[k])`` for every ``k`` in ``lat.qubits``,
once per block; the script exits 1 unless that map is one to one, so the
keys say exactly what the codes say.  Every op's ``check``
runs too; the script exits 1 on the first failed check or when the digest
differs from ``EXPECTED``, printing both digests.

Run from the repository root against the tree whose outputs are compared::

    PYTHONPATH=src python tests/golden/verify_hash.py

A change that means to alter a ``verify`` output or flip updates
``EXPECTED`` and says so in CHANGES.md.  The script reads
``perfbench/gen.py`` and ``perfbench/worker.py`` and takes about 4 s on a
2-vCPU VM; it is not part of the test suite, so that the suite does not
depend on the benchmark's generator.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Verify  # noqa: E402

SEEDS = (5, 31, 77, 101)
EXPECTED = "64942aff7222053c4395d8398bb0f98f17ed8a277301798053d3c78ac08e1a56"


def codes(bounds) -> list[int]:
    """The cell codes of the support whose run bounds are ``bounds``."""
    out = []
    for r in range(3):
        points = sorted(b for b in bounds if b % 3 == r)
        for start, end in zip(points[::2], points[1::2]):
            out += range(start, end, 3)
    return out


def main() -> int:
    inputs = {"block": gen.VERIFY_BLOCK, "region": gen.VERIFY_REGION}
    workload = Verify(inputs, Tracer(enabled=False), None)
    t, st = workload.t, workload.st
    lat = workload.lat
    key_of = {code: k for k in lat.qubits for code in codes(st.pauli_from_keys(lat, x_keys=[k]).x)}
    if len(key_of) != len(lat.qubits):
        print("two qubits share a code", file=sys.stderr)
        return 1

    def keys(bounds) -> list:
        return sorted(key_of[c] for c in codes(bounds))

    digest = hashlib.sha256()
    ops = 0
    for seed in SEEDS:
        for ops_of_pass in gen.generate("verify", seed):
            for doc in ops_of_pass:
                _specs, cfg = workload.configuration(doc, "core20")
                combinatorial = t.energy(cfg, workload.region).total
                flip = st.configuration_flip(lat, cfg, workload.region, workload.clip)
                syndrome = st.syndrome_energy(lat, flip, workload.region)
                res = {"combinatorial": combinatorial, "syndrome": syndrome}
                error = workload.check(doc, res)
                if error is not None:
                    print(f"seed {seed}, op {ops}: {error}", file=sys.stderr)
                    return 1
                digest.update(repr((combinatorial, syndrome, keys(flip.x), keys(flip.z))).encode())
                ops += 1
    got = digest.hexdigest()
    print(f"{got}  {ops} ops")
    if got != EXPECTED:
        print(f"verify hash mismatch: expected {EXPECTED}, got {got}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
