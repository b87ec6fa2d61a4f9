"""Check the ``decide`` output hash: the sha256 over ``repr(Decide.op(doc))``
for the 2880 ops of ``perfbench/gen.py`` seeds 5, 31, 77 and 101, in
generation order, against ``EXPECTED``.  Every op's ``check`` runs too; the
script exits 1 on the first failed check or when the digest differs from
``EXPECTED``, printing both digests.

Run from the repository root against the tree whose outputs are compared::

    PYTHONPATH=src python tests/golden/decide_hash.py

A change that means to alter a ``decide`` output updates ``EXPECTED`` and
says so in CHANGES.md.  The script reads ``perfbench/gen.py`` and
``perfbench/worker.py`` and takes 20-35 s on a 2-vCPU VM; it is not part of
the test suite, so that the suite does not depend on the benchmark's
generator.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Decide  # noqa: E402

SEEDS = (5, 31, 77, 101)
EXPECTED = "27931f684eb14a57cca9ef9e1421bc403437b156860e4412a3f2db19a85922f4"


def main() -> int:
    workload = Decide(None, Tracer(enabled=False), None)
    digest = hashlib.sha256()
    ops = 0
    for seed in SEEDS:
        for ops_of_pass in gen.generate("decide", seed):
            for doc in ops_of_pass:
                res = workload.op(doc)
                error = workload.check(doc, res)
                if error is not None:
                    print(f"seed {seed}, op {ops}: {error}", file=sys.stderr)
                    return 1
                digest.update(repr(res).encode())
                ops += 1
    got = digest.hexdigest()
    print(f"{got}  {ops} ops")
    if got != EXPECTED:
        print(f"decide hash mismatch: expected {EXPECTED}, got {got}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
