"""F2 linear algebra on Python-int bitsets.

An F2 vector is a non-negative ``int`` with bit ``i`` set for coordinate
``i``; addition is ``^`` and weight is ``int.bit_count``.  A matrix is a list
of row vectors.  Rank and nullspace both come from one elimination.
Surface validation and the verifier's exhaustive block checks eliminate
these rows; a Pauli's support is a set of run bounds, not a vector here.
A span too large for a list is read in order as lanes: vectors packed
``width`` bits apart into one int, lane ``i`` at bit ``width * i``, so one
big-int operation acts on every lane at once.
"""

from __future__ import annotations

from itertools import repeat
from operator import xor
from typing import Iterable, Iterator


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


def span(basis: Iterable[int]) -> list[int]:
    """All ``2^k`` XOR combinations of ``k`` basis vectors (iterative doubling):
    entry ``j`` XORs the vectors whose index is a set bit of ``j``.  The
    ``repeat`` count stops each doubling at the entries it started with."""
    out = [0]
    for b in basis:
        out += map(xor, out, repeat(b, len(out)))
    return out


def echelon(basis: Iterable[int]) -> list[int]:
    """The reduced echelon form of an independent basis: rows with distinct
    leading bits, in ascending order of them, each clear at the other rows'
    leading bits.  A dependent basis raises ``ValueError``."""
    pivots, kernel = eliminate(basis)
    if kernel:
        raise ValueError("basis is linearly dependent")
    leads = sorted(pivots)
    rows: list[int] = []
    for lead in leads:
        row = pivots[lead][0]
        for lower, reduced in zip(leads, rows):
            if row >> lower & 1:
                row ^= reduced
        rows.append(row)
    return rows


def lane_ones(width: int, lanes: int) -> int:
    """The packed int with the lowest bit of each of ``lanes`` lanes set."""
    return ((1 << width * lanes) - 1) // ((1 << width) - 1)


def sorted_span(basis: Iterable[int], width: int, chunk_rows: int) -> Iterator[tuple[int, int]]:
    """The span of an independent basis of vectors below ``2^width``, in
    ascending order, as ``(packed, lanes)`` chunks of ``2^chunk_rows``
    consecutive vectors (fewer when the basis is smaller).

    Over the ``echelon`` rows, entry ``j`` of ``span`` increases strictly
    with ``j``: two entries first differ at the leading bit of the highest
    row they do not share, which only the larger one holds.  The lowest
    ``chunk_rows`` rows are packed once by doubling; each combination ``h``
    of the others, in index order, gives the next chunk ``base ^ h * ones``.
    A dependent basis raises ``ValueError`` when called, not when read.
    """
    rows = echelon(basis)
    low, high = rows[:chunk_rows], rows[chunk_rows:]
    base, ones = 0, 1
    for i, row in enumerate(low):
        shift = width << i
        base |= (base ^ row * ones) << shift
        ones |= ones << shift
    lanes = 1 << len(low)
    return ((base ^ h * ones, lanes) for h in span(high))
