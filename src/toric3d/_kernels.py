"""F2 linear algebra on Python-int bitsets.

An F2 vector is a non-negative ``int`` with bit ``i`` set for coordinate
``i``; addition is ``^`` and weight is ``int.bit_count``.  A matrix is a list
of row vectors.  Rank, nullspace and solve all come from one elimination.
Surface validation and the verifier's exhaustive block checks eliminate
these rows; a Pauli's support is a set of run bounds, not a vector here.
"""

from __future__ import annotations

from itertools import repeat
from operator import xor
from typing import Iterable


def vector(indices: Iterable[int]) -> int:
    """Vector with the given coordinates set (mod 2: repeats cancel)."""
    v = 0
    for i in indices:
        v ^= 1 << i
    return v


def eliminate(rows: Iterable[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Gaussian elimination with a leading-bit pivot dict.

    Row ``i`` is reduced against the pivots while tracking its combination
    coefficients ``c`` (bit ``j`` set when row ``j`` took part).  Returns the
    pivots, ``{leading bit: (reduced row, c)}``, and the coefficients of the
    rows that reduced to zero, which form a nullspace basis: ``c . rows = 0``.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, row in enumerate(rows):
        coeff = 1 << i
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (row, coeff)
                break
            row ^= pivot[0]
            coeff ^= pivot[1]
        else:
            kernel.append(coeff)
    return pivots, kernel


def rank(rows: Iterable[int]) -> int:
    return len(eliminate(rows)[0])


def nullspace(rows: Iterable[int]) -> list[int]:
    """Basis of the coefficient vectors ``c`` with ``c . rows = 0``."""
    return eliminate(rows)[1]


def solve(rows: Iterable[int], target: int) -> int | None:
    """Coefficients ``c`` with ``c . rows = target``, or None.

    ``target`` is eliminated as one more row: it is a combination of the
    others exactly when it reduces to zero, and its kernel vector then holds
    that combination plus its own bit.
    """
    rows = list(rows)
    _, kernel = eliminate(rows + [target])
    own = 1 << len(rows)
    if kernel and kernel[-1] & own:
        return kernel[-1] ^ own
    return None


def span(basis: Iterable[int]) -> list[int]:
    """All ``2^k`` XOR combinations of ``k`` basis vectors (iterative doubling):
    entry ``j`` XORs the vectors whose index is a set bit of ``j``.  The
    ``repeat`` count stops each doubling at the entries it started with."""
    out = [0]
    for b in basis:
        out += map(xor, out, repeat(b, len(out)))
    return out
