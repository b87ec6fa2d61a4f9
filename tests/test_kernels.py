"""F2 bitset kernels against plain-integer references."""

from functools import reduce
from itertools import compress, product
from operator import xor

import pytest

from toric3d import _kernels as K


def _ref_rank(rows_as_ints):
    """Gaussian elimination on python ints."""
    pivots = []
    rank = 0
    for r in rows_as_ints:
        v = r
        for p in pivots:
            if v & (p & -p):
                v ^= p
        if v:
            pivots.append(v)
            rank += 1
    return rank


def _random_vector(rng, nbits):
    return K.vector(i for i, b in enumerate(rng.integers(0, 2, nbits)) if b)


def _combine(coeff, rows):
    acc = 0
    for i, row in enumerate(rows):
        if coeff >> i & 1:
            acc ^= row
    return acc


def test_popcount_matches_int_bitcount(rng):
    bits = rng.integers(0, 2, 300)
    v = K.vector(i for i, b in enumerate(bits) if b)
    assert v.bit_count() == bin(v).count("1") == int(bits.sum())
    assert K.vector([3, 5, 3]) == 1 << 5


@pytest.mark.parametrize("shape", [(10, 8), (25, 60), (40, 200), (64, 64)])
def test_rank_matches_reference(rng, shape):
    m, n = shape
    rows = [_random_vector(rng, n) for _ in range(m)]
    assert K.rank(rows) == _ref_rank(rows)


def test_nullspace_annihilates_rows(rng):
    m, n = 30, 20
    rows = [_random_vector(rng, n) for _ in range(m)]
    basis = K.nullspace(rows)
    assert len(basis) == m - _ref_rank(rows)
    assert _ref_rank(basis) == len(basis)
    for coeff in basis:
        assert _combine(coeff, rows) == 0


def test_solve_finds_combination(rng):
    m, n = 25, 18
    rows = [_random_vector(rng, n) for _ in range(m)]
    target = _combine(_random_vector(rng, m), rows)
    combo = K.solve(rows, target)
    assert combo is not None
    assert _combine(combo, rows) == target


def test_solve_detects_unsolvable():
    rows = [0b011, 0b100]
    assert K.solve(rows, 0b001) is None


def test_span_sizes():
    span = K.span([1 << i for i in range(3)])
    assert len(span) == 8
    assert len(set(span)) == 8


def test_span_matches_product_reference(rng):
    """Entry ``j`` of the span XORs the basis vectors at the set bits of
    ``j``: element by element against ``itertools.product``, whose first
    factor is the most significant bit, so it reads the basis reversed."""
    bases = [[]] + [
        [_random_vector(rng, int(rng.integers(1, 70))) for _ in range(k)] for k in (1, 2, 3, 5, 8, 11)
    ]
    bases.append([5, 5, 0, 3])  # dependent and zero vectors repeat entries
    for basis in bases:
        expected = [reduce(xor, compress(basis[::-1], bits), 0) for bits in product((0, 1), repeat=len(basis))]
        assert K.span(basis) == expected
        assert K.span(iter(basis)) == expected
