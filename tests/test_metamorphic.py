"""Metamorphic relations of spec validation over the lattice symmetries.

Whether a walk visits a vertex twice is a property of its vertex sequence,
so it does not change under a map of Z^3 that preserves lattice steps, nor
under reading the walk backwards.  Each test checks that the accept/reject
verdict of ``InfinitePathSpec`` agrees between a spec and its images, with
no oracle for either: the parameter a rejection names depends on
tie-breaks that are not equivariant, so only the verdict is compared.
"""

from itertools import permutations, product

import numpy as np

from toric3d.errors import SelfIntersecting
from toric3d.lattice import add, reverse_direction
from toric3d.paths import InfinitePathSpec

from ._gen import _random_word, common_line_spec, random_core, unchecked_spec

# the 48 signed axis permutations: axis a goes to perm[a], scaled by signs[a]
SYMMETRIES = [(perm, signs) for perm in permutations(range(3)) for signs in product((1, -1), repeat=3)]


def _accepted(neg, core, pos, base) -> bool:
    try:
        InfinitePathSpec(neg, core, pos, base)
    except SelfIntersecting:
        return False
    return True


def _mapped(symmetry, words, base):
    perm, signs = symmetry
    words = [tuple((perm[a], signs[a] * s) for a, s in word) for word in words]
    image = [0, 0, 0]
    for a in range(3):
        image[perm[a]] = signs[a] * base[a]
    return (*words, tuple(image))


def _reversed(neg, core, pos, base):
    """The same walk read from ``+inf`` to ``-inf``: reversed words with
    every letter turned around, based at the junction."""
    junction = unchecked_spec(neg, core, pos, base).junction
    flip = lambda word: tuple(map(reverse_direction, reversed(word)))  # noqa: E731
    return flip(pos), flip(core), flip(neg), junction


def _random_specs(rng, count):
    """Short random tails and self-avoiding cores, as in the message test;
    every other spec has both periods pulled along one axis, so that the
    tails often head along a common line."""
    for i in range(count):
        neg, pos = _random_word(rng, 6), _random_word(rng, 6)
        if i % 2:
            axis = int(rng.integers(0, 3))
            neg, pos = (
                tuple(w[j] for j in rng.permutation(len(w)))
                for w in (word + ((axis, int(rng.choice((-1, 1)))),) * 3 for word in (neg, pos))
            )
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        yield neg, random_core(rng, max_len=10, self_avoiding=True), pos, base


def _verdicts_of_images(rng, specs):
    """Each spec's verdict, checked against six of the 48 signed axis
    permutations (all 48 in turn), a random base translation and its
    orientation reversal: eight images per spec."""
    verdicts = []
    for i, (neg, core, pos, base) in enumerate(specs):
        verdict = _accepted(neg, core, pos, base)
        verdicts.append(verdict)
        for j in range(6):
            symmetry = SYMMETRIES[(6 * i + j) % len(SYMMETRIES)]
            assert _accepted(*_mapped(symmetry, (neg, core, pos), base)) == verdict, (symmetry, neg, core, pos, base)
        shift = tuple(int(x) for x in rng.integers(-50, 51, 3))
        assert _accepted(neg, core, pos, add(base, shift)) == verdict, (shift, neg, core, pos, base)
        assert _accepted(*_reversed(neg, core, pos, base)) == verdict, (neg, core, pos, base)
    return verdicts


def test_validation_verdict_is_invariant_under_symmetries_translation_and_reversal():
    """1500 random specs, each against six of the 48 signed axis
    permutations (all 48 in turn), a random base translation and its
    orientation reversal: 12,000 images, each with the spec's verdict."""
    rng = np.random.default_rng(20261020)
    verdicts = _verdicts_of_images(rng, _random_specs(rng, 1500))
    assert 8 * len(verdicts) == 12000
    assert verdicts.count(True) >= 150 and verdicts.count(False) >= 150


def test_validation_verdict_is_invariant_on_common_line_tails():
    """The same images of 600 specs whose tails run along one axis,
    alternately the same and opposite ways outward (``common_line_spec``),
    so that ``paths._tails_apart`` takes its common-line branches: 4800
    images, each with the spec's verdict."""
    rng = np.random.default_rng(20261022)
    verdicts = _verdicts_of_images(rng, (common_line_spec(rng, same_heading=i % 2 == 0) for i in range(600)))
    for heading in (verdicts[0::2], verdicts[1::2]):
        assert heading.count(True) >= 40 and heading.count(False) >= 40
