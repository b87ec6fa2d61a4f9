"""Transforms: energy accounting, straightening, surgery, linking parity."""

from collections import Counter

import pytest

from toric3d import paths, transforms
from toric3d.errors import (
    AlreadyMonotonicInRegion,
    EndpointMismatch,
    InvalidConfiguration,
    InvalidSurface,
    MultipleCrossings,
    NoOverlap,
    SelfIntersecting,
    Toric3dError,
    TooLarge,
)
from toric3d.lattice import Face, Region, add, direction_vector, parse_steps, region_of
from toric3d.paths import (
    MAX_TAIL_LETTERS,
    InfinitePathSpec,
    _word_displacement,
    enclosing_region,
    infinity_directions,
    is_monotonic,
    path_equivalent,
    path_from_steps,
    spec_from_strings,
    validate_surface,
    word_is_monotone,
)
from toric3d.stabilizer import FiniteLattice, configuration_flip, syndrome_energy
from toric3d.transforms import (
    _bad_axes,
    _reroute_single_bad_axis,
    _single_bad_runs,
    energy,
    lift,
    linking_parity,
    make_configuration,
    project,
    straighten_fixpoint,
    straighten_once,
    surgery,
)
from ._gen import (
    equivalent_variant,
    flux_chain_in_region,
    random_loop,
    random_membrane_faces,
    _random_word,
    bfs_distance,
    chain_xor_check,
    fill_cycle,
    random_nonmonotone_spec,
    random_spec,
    reference_reroute_single_bad_axis,
    reference_single_bad_runs,
    reference_straighten_fixpoint,
    reference_surgery,
    zigzag_core,
)

X, Y, Z = 0, 1, 2


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_unit_loop_energy():
    loop = path_from_steps((0, 0, 0), parse_steps("X+Y+X-Y-"))
    cfg = make_configuration(loops=[loop])
    rep = energy(cfg, region_of((-2, -2, -2), (3, 3, 3)))
    assert rep.flux_energy == 8
    assert rep.total == 8


def test_vacuum_energy():
    rep = energy(make_configuration(), region_of((0, 0, 0), (4, 4, 4)))
    assert rep.total == 0


def test_charge_energy_counts_inside_only():
    cfg = make_configuration(charges=[(0, 0, 0), (9, 9, 9)])
    rep = energy(cfg, region_of((-1, -1, -1), (4, 4, 4)))
    assert rep.charge_energy == 2 and rep.flux_energy == 0


def test_overlapping_strings_cancel():
    a = spec_from_strings("Z+", "", "Z+")
    b = spec_from_strings("Z+", "", "Z+")
    cfg = make_configuration(strings=[a, b])
    rep = energy(cfg, region_of((-3, -3, -3), (3, 3, 3)))
    assert rep.flux_energy == 0


# Strings sharing an infinite ray: a pair of the verify workload (gen seed 5)
# whose first string's positive tail runs down the second string's line
# x = 5, z = 1 from y = 4, and two copies of the straight Z+ line.
SHARED_RAY_STRINGS = [
    [spec_from_strings("X-", "Z-X-", "Y-", (6, 4, 2)), spec_from_strings("Y-", "Y-", "Y-", (5, 3, 1))],
    [spec_from_strings("Z+", "", "Z+")] * 2,
]


def test_energy_cancels_shared_infinite_rays():
    """The shared edges in the region are subtracted from the per-string
    counts: energy equals the set-XOR chain and the syndrome energy of the
    verifier's flip on a block holding the region and its clip."""
    lat = FiniteLattice(21)
    region = region_of((0, 0, 0), (8, 8, 8))
    clip = region.inflate(2)
    flux = []
    for strings in SHARED_RAY_STRINGS:
        cfg = make_configuration(strings=strings)
        rep = energy(cfg, region)
        assert rep.flux_energy == 2 * len(flux_chain_in_region(cfg, region))
        assert syndrome_energy(lat, configuration_flip(lat, cfg, region, clip), region) == rep.total
        assert rep.flux_energy < 2 * sum(s.count_in(region)[0] for s in strings)
        flux.append(rep.flux_energy)
    assert flux == [16, 0]


def test_energy_matches_reference_chain_where_hulls_overlap(rng):
    """Strings beside finite edits and copies of themselves (so sharing both
    tails, an edge walked by up to three of them) and loops, some repeated,
    in regions around, inside and beside their cores."""
    checked = shared = 0
    for _ in range(60):
        s = random_spec(rng, max_core=12, lo=-3, hi=3, self_avoiding=True)
        strings = [s, equivalent_variant(rng, s)] + [s] * int(rng.integers(0, 2))
        strings += [random_spec(rng) for _ in range(int(rng.integers(0, 2)))]
        loops = [random_loop(rng, lo=-2, hi=3) for _ in range(int(rng.integers(0, 3)))]
        cfg = make_configuration(strings=strings, loops=loops + loops[:1])
        box = enclosing_region(*strings)
        lo = tuple(int(x) for x in rng.integers(-5, 1, 3))
        for region in (box, box.inflate(3), Region(box.lo, box.lo), Region(lo, add(lo, (4, 4, 4)))):
            expected = 2 * len(flux_chain_in_region(cfg, region))
            assert energy(cfg, region).flux_energy == expected
            walked = sum(spec.count_in(region)[0] for spec in strings)
            walked += sum(region.contains_edge(e) for loop in cfg.loops for e in loop.edges)
            checked += 1
            shared += 2 * walked > expected
    assert checked == 240 and shared >= 120


def test_energy_difference_region_independent():
    a = spec_from_strings("Z+", "", "Z+")
    b = spec_from_strings("Z+", "X+Z+Z+X-", "Z+")
    assert path_equivalent(a, b)
    diffs = []
    for pad in (3, 5, 9):
        region = region_of((-pad, -pad, -pad), (pad, pad, pad))
        diffs.append(energy(make_configuration(strings=[b]), region).total
                     - energy(make_configuration(strings=[a]), region).total)
    assert diffs[0] == diffs[1] == diffs[2] > 0


def test_energy_walks_a_tail_up_to_the_cap():
    """A region whose tail walk needs exactly ``MAX_TAIL_LETTERS`` steps is
    answered; one step taller is TooLarge.  The region runs beside the
    string, so only the walk itself costs time."""
    line = spec_from_strings("Z+", "", "Z+")
    # the Z+ tail from the origin: top + 1 steps to pass the region, plus two
    # periods of slack in the bound
    top = MAX_TAIL_LETTERS - 3
    cfg = make_configuration(charges=[(1, 0, top)], strings=[line])
    rep = energy(cfg, region_of((1, 0, 0), (1, 0, top)))
    assert (rep.flux_energy, rep.charge_energy) == (0, 2)
    with pytest.raises(TooLarge):
        energy(cfg, region_of((1, 0, 0), (1, 0, top + 1)))


# ---------------------------------------------------------------------------
# project / lift
# ---------------------------------------------------------------------------


def test_project_drops_axis_steps():
    p = path_from_steps((0, 0, 0), parse_steps("X+Z+X+"))
    pr = project(p, Z)
    assert pr.steps == ((X, 1), (X, 1))
    assert [i for i, _ in pr.dropped] == [1]


def test_project_to_empty():
    p = path_from_steps((0, 0, 0), parse_steps("Z+Z+"))
    pr = project(p, Z)
    assert not pr.steps
    assert [i for i, _ in pr.dropped] == [0, 1]


def test_project_length_bookkeeping(rng):
    for _ in range(20):
        spec = random_nonmonotone_spec(rng)
        steps = spec.realize_steps(-5, 8)
        try:
            p = path_from_steps((0, 0, 0), steps)
        except Exception:
            continue
        nu = int(rng.integers(0, 3))
        pr = project(p, nu)
        assert len(pr.steps) == len(p) - sum(1 for d in p.steps if d[0] == nu)


def test_lift_identity_roundtrip():
    p = path_from_steps((0, 0, 0), parse_steps("X+Z+Y+Z-X+Z+"))
    pr = project(p, Z)
    assert lift(p, pr).steps == p.steps


def test_lift_shortened_projection():
    # a vertical hairpin whose shadow straightens to nothing: the lift keeps
    # only the crossing step and shortens the path
    p = path_from_steps((0, 0, 0), parse_steps("Z+Z+X+Z-Z-"))
    pr = project(p, X)
    rerouted_steps = ()  # shadow from (0,0,0) via z+2 back to z0 reroutes away
    from toric3d.transforms import Projection

    rr = Projection(pr.start, rerouted_steps, X, pr.dropped)
    lifted = lift(p, rr)
    assert lifted.steps == ((X, 1),)
    assert lifted.start == p.start and lifted.vertices[-1] == p.vertices[-1]
    assert path_equivalent is not None


def test_lift_endpoint_mismatch():
    p = path_from_steps((0, 0, 0), parse_steps("X+Z+X+"))
    pr = project(p, Z)
    from toric3d.transforms import Projection

    bad = Projection(pr.start, ((X, 1),), Z, pr.dropped)
    with pytest.raises(EndpointMismatch):
        lift(p, bad)


def test_lift_valid_on_straightening_pipeline(rng):
    # project along a monotone axis, straighten the shadow, lift: the result
    # must validate and keep endpoints, on random two-axis-bad paths
    from toric3d.paths import monotone_staircase
    from toric3d.transforms import Projection

    done = 0
    while done < 200:
        spec = random_nonmonotone_spec(rng)
        steps = spec.realize_steps(0, len(spec.core) - 1) if spec.core else ()
        if not steps:
            continue
        signs = {}
        mono_axes = set()
        for a in (X, Y, Z):
            ss = {s for ax, s in steps if ax == a}
            if len(ss) == 1:
                mono_axes.add(a)
        if not mono_axes or word_is_monotone(steps):
            continue
        try:
            p = path_from_steps(spec.base, steps)
        except Exception:
            continue
        nu = sorted(mono_axes)[0]
        pr = project(p, nu)
        end = pr.start
        for d in pr.steps:
            from toric3d.lattice import add, direction_vector

            end = add(end, direction_vector(d))
        rr = Projection(pr.start, monotone_staircase(pr.start, end), nu, pr.dropped)
        lifted = lift(p, rr)
        assert lifted.start == p.start and lifted.vertices[-1] == p.vertices[-1]
        done += 1


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------


def _single_bad_axis_word(rng, length, n_axes):
    """A self-avoiding word of at most ``length`` steps over ``n_axes`` axes,
    signed one way along every axis but the first."""
    axes = [int(a) for a in rng.permutation(3)[:n_axes]]
    letters = [(axes[0], 1), (axes[0], -1)] + [(a, int(rng.choice((-1, 1)))) for a in axes[1:]]
    v, seen, word = (0, 0, 0), {(0, 0, 0)}, []
    for _ in range(length):
        d = letters[int(rng.integers(len(letters)))]
        w = add(v, direction_vector(d))
        if w not in seen:
            word.append(d)
            seen.add(w)
            v = w
    return tuple(word)


def _check_reroute(steps, start=(0, 0, 0)):
    new = _reroute_single_bad_axis(steps)
    assert new == reference_reroute_single_bad_axis(start, steps)
    assert word_is_monotone(new)
    assert _word_displacement(new) == _word_displacement(steps)
    assert len(new) < len(steps)
    return new


@pytest.mark.parametrize("n_axes", [2, 3])
def test_reroute_matches_reference(rng, n_axes):
    done = 0
    while done < 300:
        steps = _single_bad_axis_word(rng, int(rng.integers(2, 40)), n_axes)
        if len(_bad_axes(steps)) != 1:
            continue
        _check_reroute(steps, tuple(int(x) for x in rng.integers(-3, 4, 3)))
        done += 1


@pytest.mark.parametrize(
    "word,expected",
    [
        # hairpins: the bad axis nets to zero, so its shadow straightens away
        ("X+Y+X-", "Y+"),
        ("Y-Z+Z+X+Z-Z-", "Y-X+"),
        ("X+Y+Y+X-Z-X+", "X+Y+Y+Z-"),
        # dropped steps anchored past the end of the shorter shadow: clamped
        ("X+Z+Y+Z+X-Z+", "Y+Z+Z+Z+"),
        ("Z+X+Y+X-Z+Z+", "Z+Y+Z+Z+"),
        ("X+Y+X-Y+X+Z+X-", "Z+Y+Y+"),
    ],
)
def test_reroute_hairpins_and_clamp(word, expected):
    assert _check_reroute(parse_steps(word)) == parse_steps(expected)


def test_single_bad_runs_match_reference(rng):
    letters = [(a, s) for a in (X, Y, Z) for s in (1, -1)]
    for _ in range(1500):
        alphabet = rng.permutation(6)[: int(rng.integers(2, 7))]
        n = int(rng.integers(0, 40))
        steps = tuple(letters[int(alphabet[int(rng.integers(len(alphabet)))])] for _ in range(n))
        assert _single_bad_runs(steps) == reference_single_bad_runs(steps)



def test_straighten_inverse_u_drops_height():
    u = spec_from_strings("Z+", "X+", "Z-")
    region = region_of((-1, -1, -4), (2, 1, 1))
    before = energy(make_configuration(strings=[u]), region).flux_energy
    s = straighten_once(u, region)
    after = energy(make_configuration(strings=[s]), region).flux_energy
    assert after < before
    assert (before - after) % 2 == 0
    assert path_equivalent(u, s)


def test_straighten_monotone_rejects():
    s = spec_from_strings("X+Y+", "", "X+Y+")
    with pytest.raises(AlreadyMonotonicInRegion):
        straighten_once(s, region_of((-2, -2, -1), (4, 4, 1)))


def test_straighten_requires_single_crossing():
    u = spec_from_strings("Z+", "X+X+X+", "Z-")
    # region sliced so the path enters twice
    with pytest.raises(MultipleCrossings):
        straighten_once(u, region_of((-1, -1, -6), (4, 1, -2)))


def test_straighten_outside_region_unchanged(rng):
    for _ in range(15):
        spec = random_nonmonotone_spec(rng)
        region = enclosing_region(spec).inflate(2)
        try:
            out = straighten_once(spec, region)
        except (AlreadyMonotonicInRegion, MultipleCrossings):
            continue
        # compare chains clipped to a box both truncations fully cover;
        # the two specs are parameterized differently, so clip by geometry
        box = region.inflate(15)
        before = {e.key for e in spec.edges(-80, 80) if box.contains_edge(e)}
        after = {e.key for e in out.edges(-80, 80) if box.contains_edge(e)}
        for (base, axis) in before ^ after:
            assert region.contains_vertex(base)


def test_fixpoint_reaches_bfs_distance(rng):
    checked = 0
    while checked < 30:
        spec = random_nonmonotone_spec(rng)
        region = enclosing_region(spec).inflate(2)
        try:
            fixed, steps = straighten_fixpoint(spec, region)
        except MultipleCrossings:
            continue
        from toric3d.transforms import _segment_steps

        t_lo, t_hi, seg = _segment_steps(fixed, region)
        assert word_is_monotone(seg)
        entry, exit_ = fixed.vertex(t_lo), fixed.vertex(t_hi)
        assert len(seg) == bfs_distance(region, entry, exit_)
        checked += 1


def test_fixpoint_zero_steps_on_monotone():
    s = spec_from_strings("Z+", "", "Z+")
    fixed, steps = straighten_fixpoint(s, region_of((-1, -1, -1), (1, 1, 1)))
    assert steps == 0 and fixed == s


def test_zigzag_bounded_steps():
    z = spec_from_strings("Z+", "X+Z+X-Z+X+Z+X-", "Z+")
    region = enclosing_region(z).inflate(2)
    fixed, steps = straighten_fixpoint(z, region)
    assert steps <= 3
    assert is_monotonic(fixed)[0]


def _oscillating(n):
    """An ``n``-step core that oscillates along x and y while climbing z: the
    fixpoint takes about ``n / 4`` passes on it."""
    return spec_from_strings("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * (n // 8), "Z+")


def _straightened(fixpoint, spec, region):
    try:
        fixed, passes = fixpoint(spec, region)
    except Toric3dError as ex:
        return type(ex).__name__, str(ex)
    return (fixed.neg_period, fixed.core, fixed.pos_period, fixed.base), passes


def _fixpoint_cases(rng):
    """Random, zigzag and 40-step self-avoiding cores over covering,
    clipping and random boxes, and the oscillating core."""
    specs = [random_spec(rng, max_period=3, max_core=12) for _ in range(100)]
    specs += [
        random_spec(rng, max_period=3, max_core=40, lo=-6, hi=6, self_avoiding=True)
        for _ in range(100)
    ]
    while len(specs) < 300:
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        core = zigzag_core(rng, int(rng.integers(1, 40)))
        try:
            specs.append(InfinitePathSpec(_random_word(rng, 3), core, _random_word(rng, 3), base))
        except SelfIntersecting:
            continue
    cases = []
    for spec in specs:
        box = enclosing_region(spec)
        mid = tuple((l + h) // 2 for l, h in zip(box.lo, box.hi))
        lo = tuple(int(x) for x in rng.integers(-8, 6, 3))
        hi = tuple(l + int(x) for l, x in zip(lo, rng.integers(0, 8, 3)))
        for region in (box.inflate(int(rng.integers(0, 4))), Region(box.lo, mid), Region(lo, hi)):
            cases.append((spec, region))
    return cases + [(spec, enclosing_region(spec).inflate(2)) for spec in map(_oscillating, (80, 160, 320))]


def test_fixpoint_matches_reference(rng):
    """Straightening on the segment word gives the spec, pass count and error
    of the loop that re-walks and rebuilds the spec every pass."""
    outcomes = set()
    for spec, region in _fixpoint_cases(rng):
        got = _straightened(straighten_fixpoint, spec, region)
        assert got == _straightened(reference_straighten_fixpoint, spec, region)
        outcomes.add(got[0] if isinstance(got[0], str) else min(got[1], 2))
    assert outcomes == {"MultipleCrossings", 0, 1, 2}


def test_certified_splice_matches_full_validation(rng, monkeypatch):
    """Every spec the fixpoint builds without validation is one that full
    validation accepts unchanged."""
    spliced = []
    real = transforms._splice_monotone

    def recorded(*args):
        spliced.append(real(*args))
        return spliced[-1]

    monkeypatch.setattr(transforms, "_splice_monotone", recorded)
    for spec, region in _fixpoint_cases(rng):
        done = len(spliced)
        try:
            fixed, passes = straighten_fixpoint(spec, region)
        except MultipleCrossings:
            continue
        assert spliced[done:] == ([fixed] if passes else [])
    assert len(spliced) > 100
    for fixed in spliced:
        assert type(fixed) is InfinitePathSpec
        assert InfinitePathSpec(*fixed) == fixed


def test_fixpoint_walks_and_rebuilds_once(monkeypatch):
    """The fixpoint reads its segment once and rebuilds the string once,
    through the certified splice: no ``replace_window``, no validation."""
    spec = _oscillating(320)
    calls = Counter()
    for module, name in (
        (transforms, "_segment_steps"),
        (transforms, "_splice_monotone"),
        (transforms, "replace_window"),
        (paths, "_validate_spec"),
    ):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    fixed, passes = straighten_fixpoint(spec, enclosing_region(spec).inflate(2))
    assert calls == {"_segment_steps": 1, "_splice_monotone": 1}
    assert passes > 50 and is_monotonic(fixed)[0]


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------


def _rect_surface(x0, x1, z0, z1, y=0):
    return validate_surface(
        [Face((x, y, z), Y) for x in range(x0, x1) for z in range(z0, z1)]
    )


def test_surgery_parallel_lines_to_double_u():
    g1 = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    g2 = spec_from_strings("Z+", "", "Z+", (2, 0, 0))
    surf = _rect_surface(0, 2, 0, 3)
    out = surgery(make_configuration(strings=[g1, g2]), surf)
    assert len(out.strings) == 2
    sides = set()
    for s in out.strings:
        ds = infinity_directions(s)
        assert len(ds.all) == 1  # both tails escape the same way: a U
        assert ds.d_plus & ds.d_minus
        sides.add(next(iter(ds.all)))
    assert sides == {(Z, 1), (Z, -1)}


def test_surgery_single_line_detour():
    line = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    surf = validate_surface([Face((0, 0, 0), Y)])
    out = surgery(make_configuration(strings=[line]), surf)
    assert len(out.strings) == 1
    new = out.strings[0]
    assert path_equivalent(line, new)
    # three-edge detour replaces one original edge
    region = region_of((-2, -2, -2), (3, 3, 3))
    assert energy(out, region).flux_energy == energy(make_configuration(strings=[line]), region).flux_energy + 4


def test_surgery_chain_is_xor_of_input_and_boundary(rng):
    g1 = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    g2 = spec_from_strings("Z+", "", "Z+", (2, 0, 0))
    cfg = make_configuration(strings=[g1, g2])
    surf = _rect_surface(0, 2, 0, 3)
    out = surgery(cfg, surf)
    window = region_of((-6, -6, -6), (8, 8, 8))
    in_chain = flux_chain_in_region(cfg, window)
    out_chain = flux_chain_in_region(out, window)
    bkeys = {e.key for e in surf.boundary.edges}
    assert chain_xor_check([in_chain, bkeys], out_chain)


def test_surgery_three_lines_preserves_direction_multiset():
    # three mutually-axis-distinct lines spliced through one membrane
    gx = spec_from_strings("X+", "", "X+", (0, 0, 0))
    gy = spec_from_strings("Y+", "", "Y+", (2, 0, 0))
    gz = spec_from_strings("Z+", "", "Z+", (0, 2, 1))
    cfg = make_configuration(strings=[gx, gy, gz])
    cycle = path_from_steps((0, 0, 0), parse_steps("X+X+Y+Y+X-X-Z+Y-Y-Z-"))
    assert cycle.closed
    faces = fill_cycle({e.key for e in cycle.edges}, region_of((-2, -2, -2), (4, 4, 4)))
    assert faces is not None
    surf = validate_surface(faces)
    out = surgery(cfg, surf)
    assert len(out.strings) == 3
    # the splice permutes tails among strings: the multiset of escape
    # directions over the whole configuration is what survives
    in_dirs = sorted(d for s in cfg.strings for d in sorted(infinity_directions(s).all))
    out_dirs = sorted(d for s in out.strings for d in sorted(infinity_directions(s).all))
    assert in_dirs == out_dirs
    window = region_of((-8, -8, -8), (9, 9, 9))
    assert chain_xor_check(
        [flux_chain_in_region(cfg, window), {e.key for e in surf.boundary.edges}],
        flux_chain_in_region(out, window),
    )


def _surgery_outcome(run, cfg, surf):
    try:
        return run(cfg, surf).strings
    except Toric3dError as ex:
        return type(ex).__name__, str(ex)


def test_surgery_matches_reference(rng):
    """Finding each overlap once (and mirroring it onto a reversed string)
    gives the strings or error of the surgery that walks reversed strings
    again: one or both of two parallel lines, with tail periods of 1 to 3
    letters and either heading, through k x h membranes (the double U)."""
    outcomes = set()
    for _ in range(60):
        line_axis, gap_axis, normal = (int(a) for a in rng.permutation(3))
        k, h = (int(x) for x in rng.integers(1, 5, 2))
        origin = tuple(int(x) for x in rng.integers(-6, 7, 3))
        lines = []
        for offset in (0, k):
            base = list(origin)
            base[gap_axis] += offset
            period = ((line_axis, int(rng.choice((-1, 1)))),) * int(rng.integers(1, 4))
            lines.append(InfinitePathSpec(period, (), period, tuple(base)))
        faces = []
        below = int(rng.integers(0, 2))  # the membrane may start below the lines' bases
        for i in range(k):
            for j in range(-below, h):
                b = list(origin)
                b[gap_axis] += i
                b[line_axis] += j
                faces.append(Face(tuple(b), normal))
        cfg = make_configuration(strings=lines[: int(rng.integers(1, 3))])
        surf = validate_surface(faces)
        got = _surgery_outcome(surgery, cfg, surf)
        assert got == _surgery_outcome(reference_surgery, cfg, surf)
        outcomes.add(got[0] if isinstance(got[0], str) else len(got))
    assert outcomes >= {1, 2}


def _random_membrane(rng):
    """Up to 3 rectangles of faces in one plane, or None when their union
    is no valid surface (a hole, or two pieces)."""
    try:
        return validate_surface(sorted(random_membrane_faces(rng)))
    except Toric3dError:
        return None


def _string_along(rng, boundary):
    """A string whose core of at most 8 steps rides 1 to 4 boundary edges
    (either way round), framed by up to 2 random steps on each side, or
    None when that walk or its tails intersect themselves."""
    cycle = boundary.steps
    L = len(cycle)
    i, k = int(rng.integers(0, L)), int(rng.integers(1, min(L - 1, 4) + 1))
    start = boundary.vertices[i]
    arc = tuple(cycle[(i + j) % L] for j in range(k))
    if rng.random() < 0.5:
        start = boundary.vertices[(i + k) % L]
        arc = tuple((a, -s) for a, s in reversed(arc))
    before = _random_word(rng, max_len=3)[: int(rng.integers(0, 3))]
    after = _random_word(rng, max_len=3)[: int(rng.integers(0, 3))]
    base = tuple(c - d for c, d in zip(start, _word_displacement(before)))
    try:
        return InfinitePathSpec(_random_word(rng), before + arc + after, _random_word(rng), base)
    except SelfIntersecting:
        return None


def test_surgery_matches_reference_on_random_membranes(rng):
    """The oracle beyond straight lines: 1 to 3 strings with self-avoiding
    cores of up to 8 steps riding the boundary of a membrane made of up to 3
    rectangles in one plane.  Surgery gives the strings, or the error type
    and message, of ``reference_surgery``; 1-, 2- and 3-string splices and
    ``MultipleOverlapRuns`` each occur."""
    outcomes, messages = Counter(), set()
    cases = 0
    while cases < 1500:
        surf = _random_membrane(rng)
        if surf is None:
            continue
        strings = [_string_along(rng, surf.boundary) for _ in range(int(rng.integers(1, 4)))]
        strings = [s for s in strings if s is not None]
        if not strings:
            continue
        cases += 1
        cfg = make_configuration(strings=strings)
        got = _surgery_outcome(surgery, cfg, surf)
        assert got == _surgery_outcome(reference_surgery, cfg, surf)
        if isinstance(got[0], str):
            outcomes[got[0]] += 1
            messages.add(got[1])
        else:
            outcomes[sum(a != b for a, b in zip(cfg.strings, got))] += 1
    assert outcomes["MultipleOverlapRuns"] and outcomes[1] and outcomes[2] and outcomes[3]
    # the reference's check that a run is one arc along the boundary never fires
    assert not any("not contiguous along the boundary" in m for m in messages)


def test_surgery_no_overlap_rejected():
    line = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    surf = validate_surface([Face((7, 7, 7), Y)])
    with pytest.raises(NoOverlap):
        surgery(make_configuration(strings=[line]), surf)


_UNIT_CUBE = [
    Face((0, 0, 0), Z), Face((0, 0, 1), Z),
    Face((0, 0, 0), Y), Face((0, 1, 0), Y),
    Face((0, 0, 0), X), Face((1, 0, 0), X),
]
_OPEN_PATH = path_from_steps((0, 0, 0), parse_steps("X+Y+"))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda: surgery(
                make_configuration(strings=[spec_from_strings("Z+", "", "Z+")]),
                validate_surface(_UNIT_CUBE),
            ),
            InvalidSurface,
            "surgery needs an open surface",
        ),
        (lambda: make_configuration(loops=[_OPEN_PATH]), InvalidConfiguration, "loop 0 is not closed"),
        (
            lambda: linking_parity(_OPEN_PATH, {Face((0, 0, 0), Z)}),
            InvalidConfiguration,
            "linking parity needs a closed loop",
        ),
    ],
    ids=["surgery_on_a_closed_surface", "open_loop_in_configuration", "open_loop_in_linking"],
)
def test_invalid_input_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_deoverlap_finite_shared_run():
    from toric3d.transforms import deoverlap, _first_shared_run

    a = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    # approaches from +x, rides the line for two edges, leaves along +y
    b = spec_from_strings("X-", "Z+Z+", "Y+", (0, 0, 0))
    cfg = make_configuration(strings=[a, b])
    # b's parameters 0 and 1 are the two shared edges
    assert _first_shared_run(list(cfg.strings)) == (1, 0, 2)
    out = deoverlap(cfg)
    assert _first_shared_run(list(out.strings)) is None
    assert path_equivalent(b, out.strings[1])
    # c rides the line at parameters 0 and 4: the first run is found and
    # detoured first, then the second
    c = spec_from_strings("X-", "Z+X+Z+X-Z+", "Y+", (0, 0, 0))
    assert _first_shared_run([a, c]) == (1, 0, 1)
    out = deoverlap(make_configuration(strings=[a, c]))
    assert _first_shared_run(list(out.strings)) is None
    assert path_equivalent(c, out.strings[1])


def test_deoverlap_gives_up_after_twelve_detours(monkeypatch):
    # every scan finds one more shared edge, three steps further down the
    # second line: twelve detours, then the thirteenth scan gives up
    from toric3d.errors import InvalidConfiguration

    scans = []

    def shared_run(strings):
        scans.append(1)
        return 1, -3 * len(scans), 1 - 3 * len(scans)

    monkeypatch.setattr(transforms, "_first_shared_run", shared_run)
    a = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    b = spec_from_strings("Z+", "", "Z+", (5, 0, 0))
    with pytest.raises(InvalidConfiguration, match="^strings keep overlapping after detours$"):
        transforms.deoverlap(make_configuration(strings=[a, b]))
    assert len(scans) == 13


def test_deoverlap_infinite_overlap_rejected():
    from toric3d.errors import InvalidConfiguration
    from toric3d.transforms import deoverlap

    a = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    b = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
    with pytest.raises(InvalidConfiguration):
        deoverlap(make_configuration(strings=[a, b]))


# ---------------------------------------------------------------------------
# linking parity
# ---------------------------------------------------------------------------


def test_linking_unit_loop_around_membrane_edge():
    surf = validate_surface([Face((0, 0, 0), Z)])
    # the surface's one dual face is pierced by a single primal edge; a unit
    # primal loop running through that edge links the membrane once
    from ._gen import primal_edge_of_face

    e = primal_edge_of_face(Face((0, 0, 0), Z))
    assert e == (((1, 1, 0), 2, 1))
    wrap = path_from_steps(e.base, parse_steps("Z+Y+Z-Y-"))
    assert e.key in {x.key for x in wrap.edges}
    assert linking_parity(wrap, surf.faces) == 1


def test_linking_disjoint_loop_is_zero():
    surf = validate_surface([Face((0, 0, 0), Z)])
    far = path_from_steps((8, 8, 8), parse_steps("X+Y+X-Y-"))
    assert linking_parity(far, surf.faces) == 0


def test_linking_deformation_invariance():
    surf_faces = [Face((0, 0, 0), Z), Face((1, 0, 0), Z)]
    surf = validate_surface(surf_faces)
    loop = path_from_steps((1, 1, 0), parse_steps("X+Y+X-Y-"))
    base_parity = linking_parity(loop, surf.faces)
    # add a closed cube to the face set, a 2-chain no valid surface holds:
    # parity cannot change
    cube = [
        Face((5, 5, 5), Z),
        Face((5, 5, 6), Z),
        Face((5, 5, 5), Y),
        Face((5, 6, 5), Y),
        Face((5, 5, 5), X),
        Face((6, 5, 5), X),
    ]
    assert linking_parity(loop, surf.faces ^ frozenset(cube)) == base_parity
