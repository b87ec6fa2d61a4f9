"""Paths layer: validation, truncation, tail analysis, equivalence."""

import time
from collections import Counter

import numpy as np
import pytest

from toric3d.errors import (
    MalformedBoundary,
    MultipleCrossings,
    NotConnected,
    SelfIntersecting,
    Toric3dError,
    TooLarge,
)
from toric3d.lattice import (
    Face,
    Region,
    add,
    bounding_region,
    parse_steps,
    region_of,
    reverse_direction,
    sub,
    unit,
)
from toric3d.paths import (
    InfinitePathSpec,
    Surface,
    _self_avoiding,
    _tails_apart,
    aligned_window,
    enclosing_region,
    infinity_directions,
    is_monotonic,
    path_equivalent,
    path_from_steps,
    replace_window,
    reverse_spec,
    spec_from_strings,
    truncate,
    validate_finite_path,
    validate_surface,
    word_is_monotone,
)
from toric3d.sectors import classify
from toric3d.transforms import _segment_steps, energy, make_configuration, straighten_fixpoint
from ._gen import (
    _faces_connected,
    _random_word,
    brute_count_edges,
    common_line_spec,
    edges_in_region,
    equivalent_variant,
    facing_tails_spec,
    flux_chain_in_region,
    random_core,
    random_membrane_faces,
    random_monotone_spec,
    random_spec,
    reference_count_edges_in_region,
    reference_path_equivalent,
    reference_region_params,
    reference_segment_steps,
    reference_string_edges_in_region,
    reference_validate_spec,
    reference_validate_surface,
    reference_walk_in,
    sweep_words,
    unchecked_spec,
    zigzag_core,
)

X, Y, Z = 0, 1, 2


# ---------------------------------------------------------------------------
# finite paths
# ---------------------------------------------------------------------------


def test_single_edge_open_path():
    p = path_from_steps((0, 0, 0), parse_steps("Z+"))
    assert not p.closed
    assert p.start == (0, 0, 0) and p.vertices[-1] == (0, 0, 1)


def test_unit_square_is_closed():
    p = path_from_steps((0, 0, 0), parse_steps("X+Y+X-Y-"))
    assert p.closed


def test_immediate_backtrack_rejected():
    with pytest.raises(SelfIntersecting):
        path_from_steps((0, 0, 0), parse_steps("Z+Z-"))


def test_disconnected_edges_rejected():
    from toric3d.lattice import Edge

    with pytest.raises(NotConnected):
        validate_finite_path([Edge((0, 0, 0), 2), Edge((5, 5, 5), 2)])


def test_vertex_revisit_rejected():
    with pytest.raises(SelfIntersecting):
        path_from_steps((0, 0, 0), parse_steps("X+Y+X-Y-X+"))


def test_open_path_ending_on_its_own_vertex_rejected():
    # a "P": only the last vertex repeats an earlier one, and no edge repeats
    with pytest.raises(SelfIntersecting, match="vertex visited twice"):
        path_from_steps((0, 0, 0), parse_steps("X+X+Y+X-Y-"))


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def test_single_face_open_surface():
    s = validate_surface([Face((0, 0, 0), Z)])
    assert not s.closed
    assert len(s.boundary) == 4


def test_unit_cube_closed_surface():
    faces = [
        Face((0, 0, 0), Z),
        Face((0, 0, 1), Z),
        Face((0, 0, 0), Y),
        Face((0, 1, 0), Y),
        Face((0, 0, 0), X),
        Face((1, 0, 0), X),
    ]
    s = validate_surface(faces)
    assert s.closed


def test_disconnected_boundaries_rejected():
    with pytest.raises(MalformedBoundary):
        validate_surface([Face((0, 0, 0), Z), Face((5, 5, 5), Z)])


def _unit_cube(o):
    x, y, z = o
    return [
        Face(o, Z), Face((x, y, z + 1), Z),
        Face(o, Y), Face((x, y + 1, z), Y),
        Face(o, X), Face((x + 1, y, z), X),
    ]


@pytest.mark.parametrize(
    "faces,error,message",
    [
        ([], MalformedBoundary, "a surface needs at least one face"),
        ([Face((0, 0, 0), Z)] * 2, SelfIntersecting, "face repeated in surface"),
        (
            _unit_cube((0, 0, 0)) + _unit_cube((5, 5, 5)),
            SelfIntersecting,
            "closed surface contains a closed proper sub-surface",
        ),
    ],
    ids=["empty", "repeated_face", "two_cubes"],
)
def test_invalid_face_sets_rejected(faces, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        validate_surface(faces)


def test_closed_plus_extra_face_rejected():
    faces = [
        Face((0, 0, 0), Z),
        Face((0, 0, 1), Z),
        Face((0, 0, 0), Y),
        Face((0, 1, 0), Y),
        Face((0, 0, 0), X),
        Face((1, 0, 0), X),
        Face((5, 5, 5), Z),
    ]
    with pytest.raises((SelfIntersecting, MalformedBoundary)):
        validate_surface(faces)


def _surface_outcome(validate, faces):
    try:
        return validate(faces)
    except Toric3dError as ex:
        return type(ex).__name__, str(ex)


def _square(o, normal, side=2):
    a1, a2 = (a for a in (X, Y, Z) if a != normal)
    out = []
    for u in range(side):
        for v in range(side):
            base = list(o)
            base[a1] += u
            base[a2] += v
            out.append(Face(tuple(base), normal))
    return out


_FIXED_FACE_SETS = {
    "empty": [],
    "repeated_face": [Face((1, -2, 0), X)] * 2,
    "unit_cube": _unit_cube((0, 0, 0)),
    "cube_plus_far_face": _unit_cube((-1, 0, 2)) + [Face((5, 5, 5), Z)],
    "cube_plus_touching_face": _unit_cube((0, 0, 0)) + [Face((1, 0, 0), Z)],
    "two_cubes": _unit_cube((0, 0, 0)) + _unit_cube((3, 0, 0)),
    "two_far_squares": _square((0, 0, 0), Z) + _square((6, -3, 1), Z),
    "squares_meeting_at_a_corner": _square((0, 0, 0), Y) + _square((2, 0, 2), Y),
    **{
        f"face_{'xyz'[n]}_{base}": [Face(base, n)]
        for n in (X, Y, Z)
        for base in ((0, 0, 0), (-3, 2, -1))
    },
}


def test_validate_surface_matches_reference(rng):
    """One pass over closed-form face keys gives the surface of the
    two-pass ``Edge``-record validator, boundary edges in the same order
    (the orientation surgery reads), or the same error type and message:
    on random unions of up to 3 rectangles in one plane, each listed sorted
    and shuffled, and on fixed closed, repeated, split and single-face sets.
    Every open surface accepted is edge-connected, which surgery relies on
    without checking."""
    cases = list(_FIXED_FACE_SETS.values())
    for _ in range(1500):
        faces = sorted(random_membrane_faces(rng))
        cases += [faces, [faces[i] for i in rng.permutation(len(faces))]]
    outcomes = Counter()
    for faces in cases:
        got = _surface_outcome(validate_surface, faces)
        want = _surface_outcome(reference_validate_surface, faces)
        assert got == want  # a Surface compares its faces and its boundary's edges in order
        if not isinstance(got, Surface):
            outcomes[got] += 1
        elif got.closed:
            outcomes["closed"] += 1
        else:
            assert _faces_connected(got)
            assert got.boundary == validate_finite_path(got.boundary.edges)
            outcomes["open"] += 1
    assert outcomes["open"] > 1000 and outcomes["closed"] == 1
    assert {key for key in outcomes if key not in ("open", "closed")} == {
        ("MalformedBoundary", "a surface needs at least one face"),
        ("MalformedBoundary", "boundary chain is not a union of simple cycles"),
        ("MalformedBoundary", "boundary chain has more than one component"),
        ("SelfIntersecting", "face repeated in surface"),
        ("SelfIntersecting", "surface contains a closed proper sub-surface"),
        ("SelfIntersecting", "closed surface contains a closed proper sub-surface"),
    }


# ---------------------------------------------------------------------------
# specs: truncation
# ---------------------------------------------------------------------------


def test_truncate_straight_line():
    s = spec_from_strings("Z+", "", "Z+")
    t = truncate(s, 0, 2)
    assert len(t) == 3
    assert t.start == (0, 0, 0) and t.vertices[-1] == (0, 0, 3)


def test_truncate_inverse_u():
    u = spec_from_strings("Z+", "X+", "Z-")
    t = truncate(u, -1, 1)
    assert t.steps == ((Z, 1), (X, 1), (Z, -1))


def test_truncate_staircase_unrolls_period():
    s = spec_from_strings("X+Y+", "", "X+Y+")
    t = truncate(s, 0, 3)
    assert t.steps == ((X, 1), (Y, 1), (X, 1), (Y, 1))


def test_invalid_spec_rejected_at_construction():
    with pytest.raises(SelfIntersecting):
        spec_from_strings("Z+", "Z-", "Z+")
    with pytest.raises(SelfIntersecting):
        spec_from_strings("X+X-", "", "Z+")  # zero-displacement period


# ---------------------------------------------------------------------------
# infinity directions
# ---------------------------------------------------------------------------


def test_infinity_directions_straight_line():
    ds = infinity_directions(spec_from_strings("Z+", "", "Z+"))
    assert ds.d_plus == frozenset({(Z, 1)})
    assert ds.d_minus == frozenset({(Z, -1)})


def test_infinity_directions_inverse_u():
    ds = infinity_directions(spec_from_strings("Z+", "X+", "Z-"))
    assert ds.d_plus == frozenset({(Z, -1)})
    assert ds.d_minus == frozenset({(Z, -1)})


def test_infinity_directions_staircase_by_tally():
    # both tails head to (+x, +y) infinity; the core lifts one tail in z so
    # the staircases run on parallel lines instead of colliding
    s = spec_from_strings("X-Y-", "Z+", "X+Y+", base=(0, 0, 0))
    ds = infinity_directions(s)
    assert ds.d_plus == frozenset({(X, 1), (Y, 1)})
    assert ds.d_minus == frozenset({(X, 1), (Y, 1)})
    # tally a long truncation, keeping only directions that recur: the core
    # contributes finitely many steps and must not show up
    from collections import Counter

    plus, minus = Counter(), Counter()
    for t in range(0, 5000):
        plus[s.step(t)] += 1
    for t in range(-5000, 0):
        minus[reverse_direction(s.step(t))] += 1
    assert {d for d, c in plus.items() if c > 1} == set(ds.d_plus)
    assert {d for d, c in minus.items() if c > 1} == set(ds.d_minus)


def test_rewindowing_invariance(rng):
    for _ in range(20):
        s = random_spec(rng)
        ds = infinity_directions(s)
        nn, nc, npp = len(s.neg_period), len(s.core), len(s.pos_period)
        for k in range(1, 6):
            widened = replace_window(
                s, -k * nn, nc + k * npp, s.realize_steps(-k * nn, nc + k * npp - 1)
            )
            assert infinity_directions(widened) == ds
        # rotating a period word leaves the direction sets unchanged
        rot = InfinitePathSpec(
            s.neg_period,
            s.core + (s.pos_period[0],),
            s.pos_period[1:] + (s.pos_period[0],),
            s.base,
        )
        assert infinity_directions(rot).d_plus == ds.d_plus


def test_realize_steps_matches_step(rng):
    for _ in range(40):
        s = random_spec(rng, max_core=12)
        nc = len(s.core)
        windows = [(a, b) for a in range(-5, nc + 5) for b in range(a - 1, nc + 6)]
        # far inside either tail, across the core into both tails, several
        # periods long, and empty far out
        windows += [(-37, -20), (-9, -9), (nc + 20, nc + 41), (nc + 7, nc + 7)]
        windows += [(-17, nc + 19), (-3, nc + 40), (-40, nc), (nc + 30, nc + 29), (-20, -25)]
        for a, b in windows:
            assert s.realize_steps(a, b) == tuple(s.step(t) for t in range(a, b + 1))


def test_aligned_window_cuts_whole_periods(rng):
    for _ in range(40):
        s = random_spec(rng)
        nn, nc, npp = len(s.neg_period), len(s.core), len(s.pos_period)
        for t_lo in range(-7, nc + 3):
            for t_hi in range(t_lo, nc + 8):
                a, b = aligned_window(s, t_lo, t_hi)
                lo, hi = min(t_lo, 0), max(t_hi, nc)
                assert a % nn == 0 and lo - nn < a <= lo
                assert (b - nc) % npp == 0 and hi <= b < hi + npp


def test_orientation_reversal_swaps_sides(rng):
    for _ in range(20):
        s = random_spec(rng)
        ds = infinity_directions(s)
        rs = infinity_directions(reverse_spec(s))
        assert rs.d_plus == ds.d_minus and rs.d_minus == ds.d_plus
        assert rs.all == ds.all


def test_reverse_spec_realizes_same_edges(rng):
    # reversed edge at t' carries the same key as the original at nc - 1 - t'
    for _ in range(10):
        s = random_spec(rng)
        r = reverse_spec(s)
        nc = len(s.core)
        bwd = [e.key for e in r.edges(-12, 12)]
        fwd = [e.key for e in s.edges(nc - 1 - 12, nc - 1 + 12)]
        assert bwd == list(reversed(fwd))


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def test_monotonic_straight_line_reports_free_axes():
    mono, signs = is_monotonic(spec_from_strings("Z+", "", "Z+"))
    assert mono and signs == {Z: 1}


def test_inverse_u_not_monotonic():
    mono, signs = is_monotonic(spec_from_strings("Z+", "X+", "Z-"))
    assert not mono and signs is None


def test_staircase_monotonic():
    mono, signs = is_monotonic(spec_from_strings("X+Y+", "", "X+Y+"))
    assert mono and signs == {X: 1, Y: 1}


def test_is_monotonic_matches_the_set_of_every_letter(rng):
    """Read from the core's cached letter counts, the verdict and signs
    equal those of a set built over every letter of the spec."""
    specs = [random_spec(rng, max_core=12) for _ in range(300)]
    specs += [random_monotone_spec(rng) for _ in range(100)]
    verdicts = Counter()
    for spec in specs:
        used = set(spec.neg_period) | set(spec.core) | set(spec.pos_period)
        signs = dict(used)
        assert is_monotonic(spec) == ((True, signs) if len(signs) == len(used) else (False, None))
        verdicts[len(signs) == len(used)] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_monotone_implies_disjoint_sides(rng):
    for _ in range(40):
        s = random_monotone_spec(rng)
        ds = infinity_directions(s)
        assert not (ds.d_plus & ds.d_minus)


# ---------------------------------------------------------------------------
# path equivalence
# ---------------------------------------------------------------------------


def test_bump_is_equivalent():
    line = spec_from_strings("Z+", "", "Z+")
    bumped = spec_from_strings("Z+", "X+Z+Z+X-", "Z+")
    assert path_equivalent(line, bumped)


def test_shifted_line_not_equivalent():
    a = spec_from_strings("Z+", "", "Z+", base=(0, 0, 0))
    b = spec_from_strings("Z+", "", "Z+", base=(1, 0, 0))
    assert not path_equivalent(a, b)


def test_equivalence_across_descriptions():
    a = spec_from_strings("Z+", "", "Z+")
    assert path_equivalent(a, spec_from_strings("Z+Z+", "", "Z+Z+"))  # squared word
    assert path_equivalent(a, spec_from_strings("Z+", "", "Z+", base=(0, 0, 5)))
    assert path_equivalent(a, reverse_spec(a))
    d = spec_from_strings("X+Y+", "", "X+Y+")
    # identical staircase, word rotated and re-anchored
    assert path_equivalent(d, spec_from_strings("Y+X+", "", "Y+X+", base=(1, 0, 0)))
    # same headings on a shifted diagonal phase: infinitely many new edges
    assert not path_equivalent(d, spec_from_strings("Y+X+", "X+", "Y+X+"))
    assert not path_equivalent(d, spec_from_strings("X+Y+", "", "X+Y+", base=(0, 0, 1)))


def test_straightened_inverse_u_equivalent():
    u = spec_from_strings("Z+", "X+", "Z-")
    # one-step straightened version: same tails, shorter middle
    from toric3d.transforms import straighten_once

    region = enclosing_region(u).inflate(3)
    v = straighten_once(u, region)
    assert path_equivalent(u, v)
    # oracle: symmetric difference stabilizes under widening truncations
    diffs = []
    for w in (8, 16, 24):
        du = {e.key for e in u.edges(-w, w)}
        dv = {e.key for e in v.edges(-w, w)}
        diffs.append(len(du ^ dv))
    assert diffs[0] == diffs[1] == diffs[2]


def test_equivalence_relation_properties(rng):
    for _ in range(10):
        a = random_spec(rng)
        b = equivalent_variant(rng, a)
        c = equivalent_variant(rng, b)
        assert path_equivalent(a, a)
        assert path_equivalent(a, b) and path_equivalent(b, a)
        assert path_equivalent(b, c)
        assert path_equivalent(a, c)
        other = random_spec(rng)
        # symmetry also on arbitrary pairs
        assert path_equivalent(a, other) == path_equivalent(other, a)


def test_path_equivalent_matches_reference(rng):
    """The tail classes give the verdict of the reference's ray comparison,
    on random, zigzag and long self-avoiding cores paired with a finite edit
    of themselves or with one another."""
    specs = _walk_specs(rng)
    pairs = [(s, equivalent_variant(rng, s)) for s in specs]
    pairs += [(specs[i], specs[j]) for i, j in rng.integers(0, len(specs), (240, 2))]
    equivalent = 0
    for p, q in pairs:
        verdict = path_equivalent(p, q)
        assert verdict == reference_path_equivalent(p, q)
        equivalent += verdict
    assert equivalent >= len(specs)


def _redescribed(rng, spec):
    """The same walk under another description: the core re-cut at
    parameters ``a <= 0`` and ``b >= len(core)`` a random number of letters
    into the tails, and each period word read from its cut (a rotation),
    taken once or twice."""
    nn, nc, npp = len(spec.neg_period), len(spec.core), len(spec.pos_period)
    a, b = -int(rng.integers(0, 2 * nn + 1)), nc + int(rng.integers(0, 2 * npp + 1))
    neg = spec.realize_steps(a - int(rng.integers(1, 3)) * nn, a - 1)
    pos = spec.realize_steps(b, b + int(rng.integers(1, 3)) * npp - 1)
    return InfinitePathSpec(neg, spec.realize_steps(a, b - 1), pos, spec.vertex(a))


def test_path_equivalent_matches_reference_on_redescribed_specs(rng):
    """Each spec against a re-description of itself, reversed half of the
    time, and then with its base shifted by a unit vector or by a multiple
    of a tail displacement half of the time: the tail classes give the
    reference's verdict, and both verdicts are common."""
    specs = [random_spec(rng, max_period=3) for _ in range(150)]
    specs += [random_spec(rng, max_period=4, max_core=20, self_avoiding=True) for _ in range(100)]
    specs += [random_monotone_spec(rng) for _ in range(50)]
    verdicts = []
    for spec in specs:
        q = _redescribed(rng, spec)
        if rng.random() < 0.5:
            q = reverse_spec(q)
        if rng.random() < 0.5:
            axis, k = int(rng.integers(0, 3)), int(rng.integers(-2, 3)) or 1
            shift = (unit(axis), q.pos_displacement, q.neg_displacement)[int(rng.integers(0, 3))]
            q = InfinitePathSpec(q.neg_period, q.core, q.pos_period, add(q.base, tuple(k * c for c in shift)))
        verdict = path_equivalent(spec, q)
        assert verdict == reference_path_equivalent(spec, q) == path_equivalent(q, spec)
        verdicts.append(verdict)
    assert len(specs) / 3 <= sum(verdicts) <= len(specs) * 3 / 4


def test_path_equivalent_reads_no_window():
    """The tail classes read no comparison window: the ``Z+`` line is
    equivalent to its copy ``10**7`` steps along itself, which the window
    search found TooLarge, and not to its copy ``10**7`` steps across it.
    A 5042-letter period word, against a rotation of itself re-anchored on
    its own walk and left at its base, gets the reference's verdicts."""
    line = spec_from_strings("Z+", "", "Z+")
    assert path_equivalent(line, spec_from_strings("Z+", "", "Z+", base=(0, 0, 10**7)))
    assert not path_equivalent(line, spec_from_strings("Z+", "", "Z+", base=(10**7, 0, 0)))
    word = "X+" + "Z+" * 5039 + "X-Z+"
    spec = spec_from_strings(word, "", word)
    rotated = spec.pos_period[2500:] + spec.pos_period[:2500]
    verdicts = []
    for base in (spec.vertex(2500), spec.base):
        q = InfinitePathSpec(rotated, (), rotated, base)
        verdicts.append(path_equivalent(spec, q))
        assert verdicts[-1] == reference_path_equivalent(spec, q)
    assert verdicts == [True, False]


# ---------------------------------------------------------------------------
# counting and enclosing regions
# ---------------------------------------------------------------------------


def _walk_count(spec, region):
    """Realized edges with both endpoints inside ``region``, as listed."""
    return len(spec.edges_in(region))


def test_count_straight_line_fencepost():
    """Also at scale: ``energy`` counts the line's 800000 in-region edges from
    its tail letters without walking them, and a region that a tail walk
    would need more than ``MAX_TAIL_LETTERS`` steps to leave is still
    TooLarge, with the same message."""
    s = spec_from_strings("Z+", "", "Z+")
    assert _walk_count(s, region_of((0, 0, 0), (0, 0, 5))) == 5
    assert _walk_count(s, region_of((4, 4, 0), (6, 6, 9))) == 0
    line = make_configuration(strings=[s])
    assert energy(line, region_of((-1, -1, -400000), (1, 1, 400000))).flux_energy == 1600000
    with pytest.raises(TooLarge) as error:
        energy(line, region_of((-1, -1, -2000000), (1, 1, 2000000)))
    assert str(error.value) == "a tail needs up to 2000003 steps to leave the region (at most 1000000)"


def test_count_staircase():
    s = spec_from_strings("X+Y+", "", "X+Y+")
    # staircase through the square [0,3]^2 at z = 0: three X and three Y steps
    assert _walk_count(s, region_of((0, 0, 0), (3, 3, 0))) == 6


def test_count_matches_brute_force(rng):
    for _ in range(25):
        s = random_spec(rng)
        lo = tuple(int(x) for x in rng.integers(-4, 0, 3))
        hi = tuple(int(l + int(x)) for l, x in zip(lo, rng.integers(1, 7, 3)))
        region = region_of(lo, hi)
        assert _walk_count(s, region) == brute_count_edges(s, region, 300)
        # the flux chain is a set of the region's own edges
        chain = flux_chain_in_region(make_configuration(strings=[s]), region)
        assert chain <= {e.key for e in edges_in_region(region)}
        assert len(chain) == _walk_count(s, region)
        assert energy(make_configuration(strings=[s]), region).flux_energy == 2 * len(chain)


def test_enclosing_region_straight_line():
    s = spec_from_strings("Z+", "", "Z+")
    r = enclosing_region(s)
    assert r.contains_vertex((0, 0, 0))


def test_enclosing_region_covers_core():
    u = spec_from_strings("Z+", "X+", "Z-")
    r = enclosing_region(u)
    assert r.contains_vertex((0, 0, 0)) and r.contains_vertex((1, 0, 0))
    s = spec_from_strings("Z+", "X+Y+X-Z+Y-X+", "Z+", base=(0, 0, 0))
    r2 = enclosing_region(s)
    for t in range(len(s.core) + 1):
        assert r2.contains_vertex(s.vertex(t))


def test_enclosing_region_is_the_box_of_the_cores(rng):
    for n in (1, 2, 3) * 10:
        specs = [random_spec(rng, max_core=30, lo=-5, hi=5, self_avoiding=True) for _ in range(n)]
        vertices = [v for spec in specs for v in spec.core_vertices]
        assert enclosing_region(*specs) == bounding_region(vertices)


def test_tail_steps_outside_enclosing_region_head_along_tail_directions(rng):
    for _ in range(20):
        s = random_spec(rng)
        region = enclosing_region(s)
        ds = infinity_directions(s)
        for t in range(len(s.core), len(s.core) + 20):
            e = s.edges(t, t)[0]
            if not region.contains_edge(e):
                assert (e.axis, e.sign) in ds.d_plus
        for t in range(-20, 0):
            e = s.edges(t, t)[0]
            if not region.contains_edge(e):
                assert reverse_direction((e.axis, e.sign)) in ds.d_minus


# ---------------------------------------------------------------------------
# the tail walk against the three loops it replaced
# ---------------------------------------------------------------------------


def _walk_specs(rng):
    """Short random cores, long self-avoiding cores and zigzag cores, with
    tail periods of 1 to 3 letters."""
    specs = [random_spec(rng, max_period=3) for _ in range(20)]
    specs += [
        random_spec(rng, max_period=3, max_core=40, lo=-6, hi=6, self_avoiding=True)
        for _ in range(20)
    ]
    while len(specs) < 60:
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        core = zigzag_core(rng, int(rng.integers(1, 30)))
        try:
            specs.append(InfinitePathSpec(_random_word(rng, 3), core, _random_word(rng, 3), base))
        except SelfIntersecting:
            continue
    return specs + LONG_WALK_SPECS


# zigzag and oscillating cores of 320 and 1280 steps
LONG_WALK_SPECS = [
    spec_from_strings("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * 40, "Z+"),
    spec_from_strings("Y+", "X+Y+X-Y+" * 80, "Y+Z+", base=(1, -2, 0)),
    spec_from_strings("X+", "Z-X+Z+X+" * 320, "X+Y-"),
    spec_from_strings("Z+Y+", "X+Z+X-Z+Y+Z+Y-Z+" * 160, "Z+", base=(0, 3, -1)),
]


def _walk_regions(rng, spec):
    """Regions covering, clipping and missing the core, regions that meet
    only a tail, and single vertices on and off the path."""
    box = enclosing_region(spec)
    mid = tuple((l + h) // 2 for l, h in zip(box.lo, box.hi))
    regions = [box, box.inflate(2), Region(box.lo, mid), Region(mid, box.hi)]
    for _ in range(3):
        lo = tuple(int(x) for x in rng.integers(-8, 6, 3))
        regions.append(Region(lo, tuple(l + int(x) for l, x in zip(lo, rng.integers(0, 6, 3)))))
    far = add(box.hi, (40, 40, 40))
    regions.append(Region(far, add(far, (3, 3, 3))))
    # far enough along a tail to clear the core box
    k = max(box.span(a) for a in range(3)) + 4
    ahead = spec.vertex(len(spec.core) + k * len(spec.pos_period))
    behind = spec.vertex(-k * len(spec.neg_period))
    tail_only = [
        Region(ahead, ahead),
        Region(sub(ahead, (1, 1, 1)), add(ahead, (1, 1, 1))),
        Region(sub(behind, (2, 2, 2)), behind),
    ]
    for r in tail_only:
        assert not any(r.contains_vertex(v) for v in spec.core_vertices)
    on_core = spec.vertex(len(spec.core) // 2)
    return regions + tail_only + [Region(on_core, on_core), Region(far, far)] + _core_box_regions(spec)


def _core_box_regions(spec):
    """``core_box``, the box one step short of it on each of its six faces,
    and the box one step beyond it: ``edges_in`` lists the core from
    ``core_keys`` in the first and last, and scans it in the other six."""
    lo, hi = spec.core_box
    short = [Region(add(lo, unit(a)), hi) for a in range(3)]
    short += [Region(lo, sub(hi, unit(a))) for a in range(3)]
    return [spec.core_box, *short, spec.core_box.inflate(1)]


def _segment_or_message(find, spec, region):
    try:
        return find(spec, region)
    except MultipleCrossings as ex:
        return str(ex)


def _first_last(ts):
    return (ts[0], ts[-1]) if ts else (None, None)


ALL_SEGMENT_OUTCOMES = {
    "one stretch",
    "path has no edge inside the region",
    "path crosses the region more than once",
    "path touches the region outside its crossing",
}


def test_walk_matches_reference_loops(rng):
    checked = tail_hits = 0
    outcomes = set()
    for spec in _walk_specs(rng):
        cfg = make_configuration(strings=[spec])
        box_keys = [e.key for e in reference_string_edges_in_region(spec, spec.core_box)]
        assert spec.core_keys == box_keys[: len(spec.core)]
        contained = [r.contains_region(spec.core_box) for r in _core_box_regions(spec)]
        assert contained == [True] + [False] * 6 + [True]
        for region in _walk_regions(rng, spec):
            hits = reference_walk_in(spec, region)
            assert spec.edges_in(region) == {key: t for t, key in hits if key is not None}
            params = sorted(t for t, key in hits if key is not None), sorted(t for t, _ in hits)
            assert params == reference_region_params(spec, region)
            edge_ts, vertex_ts = params
            assert spec.params_in(region) == (len(edge_ts), *_first_last(edge_ts), *_first_last(vertex_ts))
            assert _walk_count(spec, region) == reference_count_edges_in_region(spec, region)
            expected = {e.key for e in reference_string_edges_in_region(spec, region)}
            assert flux_chain_in_region(cfg, region) == expected
            assert energy(cfg, region).flux_energy == 2 * len(expected)
            segment = _segment_or_message(_segment_steps, spec, region)
            assert segment == _segment_or_message(reference_segment_steps, spec, region)
            outcomes.add(segment if isinstance(segment, str) else "one stretch")
            checked += 1
            tail_hits += any(t >= len(spec.core) or t < 0 for t in params[1])
    # every spec's tail-only regions hold tail vertices
    n_specs = 60 + len(LONG_WALK_SPECS)
    assert checked == n_specs * 21 and tail_hits >= n_specs * 3
    assert outcomes == ALL_SEGMENT_OUTCOMES


def test_segment_lists_no_key(rng, monkeypatch):
    """``_segment_steps``, and ``classify`` and ``straighten_fixpoint``
    through it, read the in-region stretch off ``params_in``: with
    ``edges_in`` raising, they still reach every segment outcome, and each
    straightened stretch is monotone.  ``test_walk_matches_reference_loops``
    compares the same segments with the reference."""

    def no_walk(self, region):
        raise AssertionError("edges_in called")

    monkeypatch.setattr(InfinitePathSpec, "edges_in", no_walk)
    outcomes = set()
    scripts = 0
    for spec in _walk_specs(rng):
        scripts += len(classify(make_configuration(strings=[spec])).script)
        for region in _walk_regions(rng, spec):
            segment = _segment_or_message(_segment_steps, spec, region)
            outcome = _segment_or_message(straighten_fixpoint, spec, region)
            if isinstance(segment, str):
                assert outcome == segment
                outcomes.add(segment)
                continue
            straightened, passes = outcome
            assert (passes == 0) == word_is_monotone(segment[2])
            _, t_end, steps = _segment_steps(straightened, region)
            assert word_is_monotone(steps) and straightened.vertex(t_end) == spec.vertex(segment[1])
            outcomes.add("one stretch")
    assert outcomes == ALL_SEGMENT_OUTCOMES and scripts >= len(LONG_WALK_SPECS)


def test_segment_straight_line_at_scale():
    """The straight ``Z+`` line crosses a long region once, found from its
    tail letters' period ranges, and straightens in 0 passes; a region that
    a tail walk would need more than ``MAX_TAIL_LETTERS`` steps to leave is
    still TooLarge, with the same message."""
    s = spec_from_strings("Z+", "", "Z+")
    region = region_of((-1, -1, -400000), (1, 1, 400000))
    t_lo, t_end, steps = _segment_steps(s, region)
    assert (t_lo, t_end) == (-400000, 400000) and steps == parse_steps("Z+") * 800000
    straightened, passes = straighten_fixpoint(s, region)
    assert straightened is s and passes == 0
    with pytest.raises(TooLarge) as error:
        _segment_steps(s, region_of((-1, -1, -2000000), (1, 1, 2000000)))
    assert str(error.value) == "a tail needs up to 2000003 steps to leave the region (at most 1000000)"


def _rejection(build):
    try:
        build()
    except SelfIntersecting as ex:
        return str(ex)
    return None


# Tails that meet only each other, outside the core: heading opposite ways
# along one line (in their first periods, and further out), the same way,
# and independently.
TAIL_PAIR_COLLISIONS = [
    ("X+Z+Z+X-", "Z-", "X+Z+Z+X-", (0, 0, 1)),
    ("Z+X+Z+X-", "X-" + "Z-" * 10 + "X+", "X+Z+X-Z+", (0, 0, 10)),
    ("Z-", "Y+X+X+Y-", "Z+X-X-Z+X+X+", (0, 0, 0)),
    ("Z-", "Y+X+X+Y-", "X-Z+", (0, 0, 0)),
]


def test_validate_spec_messages_match_reference(rng):
    """The closed-form certificate accepts exactly the specs the reference's
    certified window accepts, and every rejection keeps its message: short
    random words, tails that meet only each other, and periods of up to 9
    letters, half of them pulled along one axis so that the tails often head
    along a common line."""
    cases = [
        (parse_steps("Z+"), parse_steps("Z+Z-"), parse_steps("Z+"), (0, 0, 0)),
        (parse_steps("Z+"), parse_steps("X+Y+X-Y-"), parse_steps("Z+"), (0, 0, 0)),
        (parse_steps("X+"), parse_steps("Z+X-Z-"), parse_steps("X+"), (0, 0, 0)),
        (parse_steps("X+Z+"), parse_steps(""), parse_steps("X-Z-"), (0, 0, 0)),
        (parse_steps("X+"), parse_steps(""), parse_steps("X+X-"), (0, 0, 0)),
    ]
    collisions = [tuple(map(parse_steps, words[:3])) + (words[3],) for words in TAIL_PAIR_COLLISIONS]
    for neg, core, pos, base in collisions:
        assert not _tails_apart(*unchecked_spec(neg, core, pos, base)._tails)
    cases += collisions
    for _ in range(400):
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        neg, pos = _random_word(rng, 3), _random_word(rng, 3)
        cases.append((neg, random_core(rng, max_len=10), pos, base))
    for i in range(1200):
        neg, pos = _random_word(rng, 6), _random_word(rng, 6)
        if i % 2:
            axis = int(rng.integers(0, 3))
            neg, pos = (
                tuple(w[j] for j in rng.permutation(len(w)))
                for w in (word + ((axis, int(rng.choice((-1, 1)))),) * 3 for word in (neg, pos))
            )
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        cases.append((neg, random_core(rng, max_len=10, self_avoiding=True), pos, base))
    outcomes = []
    for neg, core, pos, base in cases:
        spec = unchecked_spec(neg, core, pos, base)
        expected = _rejection(lambda: reference_validate_spec(spec))
        assert _rejection(lambda: InfinitePathSpec(neg, core, pos, base)) == expected
        if expected != "period word has zero net displacement":
            assert _self_avoiding(spec) == (expected is None)
        outcomes.append(expected)
    assert outcomes[5 : 5 + len(collisions)] == [
        "edge revisited at parameter -12",
        "vertex revisited at parameter 11",
        "tail windows collide on a shared line",
        "vertex revisited at parameter 6",
    ]
    assert {"edge revisited", "vertex revisited"} <= {o.split(" at ")[0] for o in outcomes if o}
    assert outcomes.count(None) >= 150 and len(set(outcomes)) >= 100


def test_validate_spec_same_heading_tails_at_size():
    """``TAIL_PAIR_COLLISIONS[2]`` with its snake ``m`` letters wide, and a
    wide same-heading pair whose tails run in two planes: the rejection
    names the collision, and the outcome matches the reference's."""
    cases = [
        ("Z-", "Y+" + "X+" * m + "Y-", "Z+" + "X-" * m + "Z+" + "X+" * m, (0, 0, 0)) for m in (400, 2000)
    ]
    cases.append(("Z-", "Y+" + "X+" * 2000 + "Y-" * 2, "Z+" + "X-" * 2000 + "Z+" + "X+" * 2000, (0, 0, 0)))
    outcomes = []
    for neg, core, pos, base in cases:
        spec = unchecked_spec(parse_steps(neg), parse_steps(core), parse_steps(pos), base)
        expected = _rejection(lambda: reference_validate_spec(spec))
        assert _rejection(lambda: InfinitePathSpec(*spec)) == expected
        assert _tails_apart(*spec._tails) == (expected is None)
        outcomes.append(expected)
    assert outcomes == ["tail windows collide on a shared line"] * 2 + [None]


def test_validate_spec_names_the_revisit_of_a_sweeping_tail():
    """The rejecting sweep at s = 250 (L = 100, R = 20): the first revisit
    lies about 125 periods of 4084 letters out along the positive tail, a
    window too large for the reference's walk."""
    with pytest.raises(SelfIntersecting) as error:
        spec_from_strings(*sweep_words(250, 100, 20, reject=True))
    assert str(error.value) == "vertex revisited at parameter 511251"


def test_validate_spec_accepts_a_sweeping_tail_in_linear_work():
    """The valid sweep at s = 2000 (L = 200, R = 50): a 20,204-letter period
    sweeps the 6000-letter core's box for about 1000 periods.  Each letter
    is one coset lookup, not one probe per in-box period, so the build takes
    a small fraction of a second of CPU time."""
    start = time.process_time()
    spec_from_strings(*sweep_words(2000, 200, 50))
    assert time.process_time() - start < 1.0


def test_validate_spec_messages_match_reference_on_common_line_tails():
    """2000 specs whose tails run along one axis (``common_line_spec``),
    alternately the same and opposite ways outward, so every spec that
    reaches :func:`_tails_apart` takes one of its common-line branches: each
    rejection keeps the reference's message, ``_self_avoiding`` holds
    exactly on the accepted specs, and each heading has both verdicts."""
    rng = np.random.default_rng(20261021)
    seen = Counter()
    for i in range(2000):
        neg, core, pos, base = common_line_spec(rng, same_heading=i % 2 == 0)
        spec = unchecked_spec(neg, core, pos, base)
        expected = _rejection(lambda: reference_validate_spec(spec))
        assert _rejection(lambda: InfinitePathSpec(neg, core, pos, base)) == expected
        assert _self_avoiding(spec) == (expected is None)
        seen[i % 2 == 0, expected and expected.split(" at ")[0]] += 1
    for same in (True, False):
        assert seen[same, None] >= 100 and sum(n for (h, o), n in seen.items() if h == same and o) >= 100
    assert {o for _, o in seen} == {None, "edge revisited", "vertex revisited", "tail windows collide on a shared line"}


def test_validate_spec_rejects_facing_tails_on_one_line(monkeypatch):
    """300 specs whose tails run along one line and head toward each other
    past a short core (``facing_tails_spec``): every verdict and message
    matches the reference's, ``_self_avoiding`` holds exactly on the
    accepted specs, and at least 100 builds are rejected in the
    opposite-heading branch of :func:`_tails_apart`."""
    import toric3d.paths as paths

    facing_rejections = 0

    def counted(pos, neg):
        nonlocal facing_rejections
        apart = _tails_apart(pos, neg)
        common_line = paths._cross(pos.disp, neg.disp) == (0, 0, 0)
        facing_rejections += not apart and common_line and pos.disp[pos.axis] * neg.disp[pos.axis] < 0
        return apart

    rng = np.random.default_rng(20261020)
    outcomes = Counter()
    for _ in range(300):
        neg, core, pos, base = facing_tails_spec(rng)
        spec = unchecked_spec(neg, core, pos, base)
        expected = _rejection(lambda: reference_validate_spec(spec))
        assert _self_avoiding(spec) == (expected is None)
        with monkeypatch.context() as patch:
            patch.setattr(paths, "_tails_apart", counted)
            assert _rejection(lambda: InfinitePathSpec(neg, core, pos, base)) == expected
        outcomes[expected and expected.split(" at ")[0]] += 1
    assert facing_rejections >= 100
    assert outcomes[None] and outcomes["vertex revisited"] >= 100


# Same-heading specs whose negative period backtracks: walking the certified
# truncation from its negative end, the first revisit lies in its first
# period, so the parameter named pins where the window starts.  One period
# fewer on the negative side names a parameter 3 higher.
WINDOW_START_CASES = [
    ("X-X-X+", "Y+", "X+X+", -13),
    ("Z-Z-Z+", "Y+Z+Z+Z+", "Z+", -19),
    ("Z+Z-Z+", "Z+X-Y+X-Z-Y+Z-Y+", "Z-", -14),
    ("Y-Z-Y+", "Z+Z+Z+X+Z+Y+Z+X+X+Y-", "Z+", -21),
    ("X-Y+Y-", "X+X+Y-X+Z-Z-", "X+X+X+", -22),
    ("Z+X-Z-", "X+X+X+X+X+Z+Y+X+", "X+", -24),
]


def test_validate_spec_window_starts_where_certified():
    for neg, core, pos, t in WINDOW_START_CASES:
        words = (parse_steps(neg), parse_steps(core), parse_steps(pos))
        expected = f"edge revisited at parameter {t}"
        assert _rejection(lambda: InfinitePathSpec(*words, (0, 0, 0))) == expected
        assert _rejection(lambda: reference_validate_spec(unchecked_spec(*words, (0, 0, 0)))) == expected


def _outcome(build):
    try:
        build()
    except Exception as ex:
        return type(ex), str(ex)
    return None


def test_validate_spec_matches_reference_on_long_cores(rng):
    """1280-step zigzag and oscillating cores under random tails, some with a
    backtrack spliced in deep inside the core, and 20000-letter periods,
    whose tails the closed form must not compare letter pair by letter
    pair."""
    oscillating = parse_steps("X+Z+X-Z+Y+Z+Y-Z+" * 160)
    cases = [
        (parse_steps(neg * 20000), parse_steps(core), parse_steps(pos * 20000), (0, 0, 0))
        for neg, core, pos in (("Z+", "", "Z+"), ("X+", "Y+", "Z+"), ("Z-", "X+", "Z+"))
    ]
    for i in range(24):
        core = zigzag_core(rng, 1280) if i % 2 else oscillating
        if i % 3 == 0:
            at = int(rng.integers(200, 1100))
            core = core[:at] + ((core[at - 1][0], -core[at - 1][1]),) + core[at:]
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        cases.append((_random_word(rng, 3), core, _random_word(rng, 3), base))
    outcomes = []
    for neg, core, pos, base in cases:
        expected = _outcome(lambda: reference_validate_spec(unchecked_spec(neg, core, pos, base)))
        assert _outcome(lambda: InfinitePathSpec(neg, core, pos, base)) == expected
        outcomes.append(expected)
    assert None in outcomes
    assert all(o is None or o[0] is SelfIntersecting for o in outcomes)
    assert {"edge revisited", "vertex revisited"} <= {o[1].split(" at ")[0] for o in outcomes if o}


def _signed_word(rng, signs, length):
    """``length`` letters along random axes, each with its axis' sign."""
    return tuple((int(a), signs[int(a)]) for a in rng.integers(0, 3, length))


def _certified(neg, core, pos, base):
    """The outcome of building the spec, checked against the reference; an
    accepted spec also has the box and junction of its walked core.  Returns
    the outcome and, for an accepted spec, whether the build walked the
    core."""
    expected = _outcome(lambda: reference_validate_spec(unchecked_spec(neg, core, pos, base)))
    assert _outcome(lambda: InfinitePathSpec(neg, core, pos, base)) == expected
    if expected is not None:
        return expected, None
    spec = InfinitePathSpec(neg, core, pos, base)
    walked = "core_vertices" in vars(spec)
    box, junction = spec.core_box, spec.junction
    assert box == bounding_region(spec.core_vertices) and junction == spec.core_vertices[-1]
    return None, walked


def test_validate_spec_certifies_monotone_strings(rng):
    """A string whose letters keep one sign per axis is accepted without a
    walk of its core, as the reference accepts it: cores of up to 300
    letters, and the empty core."""
    for i in range(300):
        signs = {a: int(rng.choice((-1, 1))) for a in range(3)}
        neg, pos = (_signed_word(rng, signs, int(rng.integers(1, 4))) for _ in range(2))
        length = 0 if i % 10 == 5 else int(rng.integers(1, 300 if i % 10 == 0 else 40))
        core = _signed_word(rng, signs, length)
        base = tuple(int(x) for x in rng.integers(-3, 4, 3))
        assert _certified(neg, core, pos, base) == (None, False)


def test_validate_spec_monotone_core_matches_reference(rng):
    """Monotone cores under tails that turn back into the core's box, and the
    empty core under random tails, against the reference: rejected, accepted
    after a tail vertex inside the box made the core's vertex set, and
    accepted without it."""
    seen = Counter()
    for i in range(900):
        signs = {a: int(rng.choice((-1, 1))) for a in range(3)}
        core = () if i % 6 == 0 else _signed_word(rng, signs, int(rng.integers(2, 30)))
        neg, pos = _random_word(rng, 4), _random_word(rng, 4)
        base = tuple(int(x) for x in rng.integers(-3, 4, 3))
        outcome, walked = _certified(neg, core, pos, base)
        seen[bool(core), outcome and outcome[1].split(" at ")[0], walked] += 1
    assert seen[True, "edge revisited", None] >= 100 and seen[True, "vertex revisited", None] >= 10
    assert seen[True, None, True] >= 50 and seen[True, None, False] >= 50
    assert seen[False, "edge revisited", None] >= 20 and seen[False, None, False] >= 30
