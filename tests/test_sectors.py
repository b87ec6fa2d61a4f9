"""Sector verdicts, labels, repair scripts, and the case enumeration."""

import json
import time
import tracemalloc
from collections import Counter
from itertools import product
from math import factorial

import pytest

from toric3d.errors import NotAGroundSector, SelfIntersecting
from toric3d.lattice import add, parse_steps, region_of
from toric3d.paths import (
    InfinitePathSpec,
    infinity_directions,
    is_monotonic,
    path_equivalent,
    path_from_steps,
    spec_from_strings,
)
from toric3d.sectors import (
    ScriptStep,
    SectorLabel,
    StringClassTag,
    VerdictKind,
    _case_three,
    _case_two,
    _distinct_moves,
    _key,
    _keys,
    _orbit,
    _orbit_table,
    _raw_count_alt,
    _script_region,
    _string_tag,
    charge_parity,
    classify,
    enumerate_gsc_solutions,
    run_script,
    sector_label,
    surgery_move,
    tail_conflict,
)
from toric3d.transforms import make_configuration, surgery
from ._gen import (
    _random_word,
    equivalent_variant,
    random_loop,
    random_monotone_spec,
    random_nonmonotone_spec,
    random_spec,
    reference_canonical_solution,
    reference_classify,
    reference_move_canons,
    reference_raw_count_alt,
    reference_raw_solutions,
    reference_reduction_closure,
    zigzag_core,
)

X, Y, Z = 0, 1, 2


def _line(axis, sign, base=(0, 0, 0)):
    name = "XYZ"[axis] + ("+" if sign > 0 else "-")
    return spec_from_strings(name, "", name, base)


# ---------------------------------------------------------------------------
# charge parity
# ---------------------------------------------------------------------------


def test_charge_parity():
    assert charge_parity(make_configuration()) == 0
    assert charge_parity(make_configuration(charges=[(0, 0, 0), (5, 5, 5)])) == 0
    assert charge_parity(make_configuration(charges=[(0, 0, 0), (1, 1, 1), (2, 2, 2)])) == 1


# ---------------------------------------------------------------------------
# ground-state verdicts
# ---------------------------------------------------------------------------


def test_straight_line_is_ground_state():
    v = classify(make_configuration(strings=[_line(Z, 1)]))
    assert v.kind is VerdictKind.GROUND_STATE


def test_inverse_u_not_ground_sector():
    u = spec_from_strings("Z+", "X+", "Z-")
    v = classify(make_configuration(strings=[u]))
    assert v.kind is VerdictKind.NOT_GROUND_SECTOR
    assert v.witness.string_index == 0
    assert v.witness.direction == (Z, -1)


def test_parallel_lines_not_ground_sector():
    cfg = make_configuration(strings=[_line(Z, 1), _line(Z, 1, (2, 0, 0))])
    v = classify(cfg)
    assert v.kind is VerdictKind.NOT_GROUND_SECTOR
    assert v.witness.pair == (0, 1)


def test_charges_never_disqualify():
    cfg = make_configuration(charges=[(1, 1, 1)], strings=[_line(Z, 1)])
    v = classify(cfg)
    assert v.kind is VerdictKind.GROUND_STATE
    assert not v.frustration_free


def test_loops_block_ground_state_but_not_sector():
    loop = path_from_steps((5, 5, 5), parse_steps("X+Y+X-Y-"))
    cfg = make_configuration(strings=[_line(Z, 1)], loops=[loop])
    v = classify(cfg)
    assert v.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE
    assert any(s.kind == "drop_loop" for s in v.script)


def test_three_axis_lines_ground_sector():
    cfg = make_configuration(
        strings=[_line(X, 1), _line(Y, 1, (0, 5, 0)), _line(Z, 1, (5, 0, 5))]
    )
    assert classify(cfg, strict_gss=False).kind is VerdictKind.GROUND_STATE


def test_long_two_bad_axis_core_classifies():
    # a 320-step core oscillating along x and y while climbing z
    spec = spec_from_strings("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * 40, "Z+")
    v = classify(make_configuration(strings=[spec]))
    assert v.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE
    assert [s.kind for s in v.script] == ["straighten"]


def test_classify_never_straightens(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify straightened a string")

    monkeypatch.setattr("toric3d.sectors.straighten_fixpoint", refuse)
    monkeypatch.setattr("toric3d.transforms.straighten_fixpoint", refuse)
    one_bad_axis = spec_from_strings("Z+", "X+Z+X-Y+", "Z+")
    two_bad_axes = spec_from_strings("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * 4, "Z+", (0, 9, 0))
    cfg = make_configuration(strings=[one_bad_axis, _line(X, 1, (9, 0, 0))])
    v = classify(cfg)
    assert v.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE
    assert v.script == (ScriptStep("straighten", 0, _script_region(one_bad_axis, 1)),)
    v = classify(make_configuration(strings=[two_bad_axes]))
    assert v.script == (ScriptStep("straighten", 0, _script_region(two_bad_axes, 1)),)


@pytest.mark.parametrize("period, k", [("Z+X+", 98), ("Z+Z+Z+Z+Z+X+", 60)])
def test_core_drifting_against_its_tails_classifies(period, k):
    """A core drifting ``k`` steps against tails that gain one step per
    period along it needs pad 16: classify keeps doubling the pad, and the
    script lands on a monotone, path-equivalent string."""
    spec = spec_from_strings(period, "Y+" + "X-" * k + "Y+", period)
    cfg = make_configuration(strings=[spec])
    v = classify(cfg)
    assert v.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE
    assert v.script == (ScriptStep("straighten", 0, _script_region(spec, 16)),)
    out = run_script(cfg, v.script).strings[0]
    assert is_monotonic(out)[0] and path_equivalent(spec, out)


def test_long_oscillating_core_classifies_fast():
    # 5120 steps: straightening it would take about 1280 passes of 5120 letters
    spec = spec_from_strings("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * 640, "Z+")
    cfg = make_configuration(strings=[spec])
    start = time.perf_counter()
    v = classify(cfg)
    assert time.perf_counter() - start < 1.0
    assert v.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE
    assert v.script == (ScriptStep("straighten", 0, region_of((-4, -4, -4), (5, 5, 2564))),)
    assert _script_region(spec, 1) == region_of((-4, -4, -4), (5, 5, 2564))


def test_four_strings_never_ground_sector(rng):
    for _ in range(40):
        strings = []
        offsets = [(0, 0, 0), (7, 0, 0), (0, 7, 0), (0, 0, 7), (7, 7, 7)]
        n = int(rng.integers(4, 6))
        for k in range(n):
            s = random_spec(rng, base_lo=-1, base_hi=1)
            from toric3d.paths import InfinitePathSpec
            from toric3d.lattice import add

            strings.append(
                InfinitePathSpec(s.neg_period, s.core, s.pos_period, add(s.base, offsets[k]))
            )
        v = classify(make_configuration(strings=strings))
        assert v.kind is VerdictKind.NOT_GROUND_SECTOR
        assert v.witness is not None


def test_ground_state_implies_ground_sector(rng):
    for _ in range(60):
        cfg = make_configuration(strings=[random_spec(rng)])
        v = classify(cfg)
        if v.kind is VerdictKind.GROUND_STATE:
            assert v.is_ground_sector


def test_single_string_verdict_matches_tail_conflict(rng):
    for _ in range(120):
        s = random_spec(rng)
        v = classify(make_configuration(strings=[s]))
        expected_bad = tail_conflict(infinity_directions(s)) is not None
        assert (v.kind is VerdictKind.NOT_GROUND_SECTOR) == expected_bad


@pytest.mark.parametrize("neg,pos", [("Y+", "X+Y+X-Y+"), ("X+Y+X-Y+", "Z+")])
def test_tail_conflict_without_a_shared_direction(tmp_path, neg, pos):
    # no direction lies on both sides, so the witness is + along the first
    # axis that the tails walk both ways, both in-process and on the CLI
    from toric3d.cli import run

    spec = spec_from_strings(neg, "", pos)
    ds = infinity_directions(spec)
    assert not ds.d_plus & ds.d_minus
    v = classify(make_configuration(strings=[spec]))
    assert v.kind is VerdictKind.NOT_GROUND_SECTOR
    assert (v.witness.string_index, v.witness.pair, v.witness.direction) == (0, None, (0, 1))
    doc = tmp_path / "cfg.json"
    doc.write_text(
        json.dumps({"strings": [{"neg_period": neg, "core": "", "pos_period": pos, "base": [0, 0, 0]}]})
    )
    report, code = run(["classify", "--config", str(doc)])
    assert code == 0
    assert report["verdict"]["kind"] == "NotGroundSector"
    assert report["verdict"]["witness"] == {"string_index": 0, "direction": "x+"}


def test_single_string_verdict_is_side_intersection_for_straight_tails(rng):
    # with single-direction tails the verdict is exactly D+ meeting D-
    from toric3d.paths import InfinitePathSpec
    from toric3d.errors import SelfIntersecting

    done = 0
    while done < 120:
        neg = ((int(rng.integers(0, 3)), int(rng.choice((-1, 1)))),)
        pos = ((int(rng.integers(0, 3)), int(rng.choice((-1, 1)))),)
        from ._gen import random_core

        try:
            s = InfinitePathSpec(neg, random_core(rng), pos, (0, 0, 0))
        except SelfIntersecting:
            continue
        ds = infinity_directions(s)
        v = classify(make_configuration(strings=[s]))
        assert (v.kind is VerdictKind.NOT_GROUND_SECTOR) == bool(ds.d_plus & ds.d_minus)
        done += 1


def test_script_reaches_ground_state(rng):
    reached = 0
    while reached < 25:
        s = random_monotone_spec(rng)
        cfg = make_configuration(
            strings=[equivalent_variant(rng, s)],
            loops=[random_loop(rng, lo=10, hi=14)],
        )
        v = classify(cfg)
        assert v.is_ground_sector
        if v.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE:
            out = run_script(cfg, v.script)
            assert classify(out).kind is VerdictKind.GROUND_STATE
            reached += 1


def test_verdict_invariant_under_finite_edits_and_swap(rng):
    for _ in range(20):
        s = random_spec(rng)
        cfg = make_configuration(strings=[s])
        kind0 = classify(cfg).kind is VerdictKind.NOT_GROUND_SECTOR
        variant = make_configuration(strings=[equivalent_variant(rng, s)])
        assert (classify(variant).kind is VerdictKind.NOT_GROUND_SECTOR) == kind0
        from toric3d.paths import reverse_spec

        rev = make_configuration(strings=[reverse_spec(s)])
        assert (classify(rev).kind is VerdictKind.NOT_GROUND_SECTOR) == kind0


def test_verdict_invariant_under_surgery():
    # ground sector example: x-line and y-line, spliced through a membrane
    gx = _line(X, 1)
    gy = _line(Y, 1, (2, 0, 2))
    cfg = make_configuration(strings=[gx, gy])
    assert classify(cfg).is_ground_sector
    from toric3d.paths import validate_surface
    from tests._gen import fill_cycle

    cycle = path_from_steps((0, 0, 0), parse_steps("X+X+Z+Y+Y+Z-X-X-Z+Y-Y-Z-"))
    faces = fill_cycle({e.key for e in cycle.edges}, region_of((-2, -2, -2), (5, 5, 5)))
    if faces:
        out = surgery(cfg, validate_surface(faces))
        assert classify(out).is_ground_sector == classify(cfg).is_ground_sector
    # not-ground-sector example survives surgery too
    cfg2 = make_configuration(strings=[_line(Z, 1), _line(Z, 1, (2, 0, 0))])
    from toric3d.paths import validate_surface as vs
    from toric3d.lattice import Face as F

    surf = vs([F((x, 0, z), Y) for x in range(2) for z in range(3)])
    out2 = surgery(cfg2, surf)
    assert not classify(out2).is_ground_sector


def test_strict_gss_switch():
    # two L-shaped strings sharing one escape direction: pairwise reading
    # rejects, the literal total-intersection reading rejects too (shared
    # direction), but three strings sharing no common direction pairwise
    # colliding shows the difference
    a = spec_from_strings("X+", "", "Y+", (0, 0, 0))   # D = {x-, y+}
    b = spec_from_strings("Y+", "", "Z+", (5, 5, 5))   # D = {y-, z+}
    c = spec_from_strings("Z+", "", "X+", (9, 0, 9))   # D = {z-, x+}
    bad = spec_from_strings("X+", "", "Y+", (0, 9, 9)) # D = {x-, y+} again
    cfg = make_configuration(strings=[a, bad])
    assert classify(cfg).kind is VerdictKind.NOT_GROUND_SECTOR
    assert classify(cfg, strict_gss=True).kind is VerdictKind.NOT_GROUND_SECTOR
    cfg3 = make_configuration(strings=[a, b, c])
    assert classify(cfg3).kind is VerdictKind.GROUND_STATE
    assert classify(cfg3, strict_gss=True).kind is VerdictKind.GROUND_STATE
    # pairwise collision with empty total intersection: strict accepts
    mixed = make_configuration(strings=[a, bad, b])
    assert classify(mixed).kind is VerdictKind.NOT_GROUND_SECTOR
    assert classify(mixed, strict_gss=True).is_ground_sector


# ---------------------------------------------------------------------------
# verdicts against the straightening reference
# ---------------------------------------------------------------------------


def _zigzag_spec(rng):
    """A zigzag core of 2 to 39 steps under random tails of 1 or 2 letters."""
    while True:
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        core = zigzag_core(rng, int(rng.integers(2, 40)))
        try:
            return InfinitePathSpec(_random_word(rng), core, _random_word(rng), base)
        except SelfIntersecting:
            continue


_STRING_OFFSETS = ((0, 0, 0), (9, 0, 0), (0, 9, 0))


def _oracle_configurations(rng):
    """3000 configurations with 0 to 2 far loops and 0 to 2 charges: 1800
    hold one random, backtracking or zigzag string each, and 1200 hold two
    or three of those strings, moved apart."""
    singles = [random_spec(rng) for _ in range(1000)]
    singles += [random_nonmonotone_spec(rng) for _ in range(200)]
    singles += [_zigzag_spec(rng) for _ in range(600)]
    groups = [[s] for s in singles]
    for _ in range(1200):
        picks = rng.integers(0, len(singles), int(rng.integers(2, 4)))
        groups.append(
            [
                InfinitePathSpec(s.neg_period, s.core, s.pos_period, add(s.base, offset))
                for s, offset in zip((singles[int(k)] for k in picks), _STRING_OFFSETS)
            ]
        )
    for strings in groups:
        loops = [random_loop(rng, lo=20, hi=24) for _ in range(int(rng.integers(0, 3)))]
        charges = [tuple(int(x) for x in rng.integers(-3, 4, 3)) for _ in range(int(rng.integers(0, 3)))]
        yield make_configuration(charges, strings, loops)


def test_classify_matches_straightening_reference(rng):
    """Verdict, witness and script, script regions included, equal those of
    the classify that straightened each string; every repair script still
    runs to monotone strings, each path-equivalent to its input."""
    kinds = Counter()
    wide = 0
    for cfg in _oracle_configurations(rng):
        verdict = classify(cfg)
        assert verdict == reference_classify(cfg)
        kinds[verdict.kind] += 1
        if verdict.kind is VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE:
            out = run_script(cfg, verdict.script)
            for before, after in zip(cfg.strings, out.strings):
                assert is_monotonic(after)[0] and path_equivalent(before, after)
            wide += sum(
                s.region != _script_region(cfg.strings[s.index], 1)
                for s in verdict.script
                if s.kind == "straighten"
            )
    assert sum(kinds.values()) == 3000 and min(kinds.values()) >= 150
    # some strings need a wider region than the first candidate
    assert wide >= 10


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_label_straight_line_with_charge():
    cfg = make_configuration(charges=[(3, 3, 3)], strings=[_line(Z, 1)])
    label = sector_label(cfg)
    assert label.g == 1
    tag = label.tags[0]
    assert tag.kind == "P"
    assert tag.anchors == frozenset({((Z, 1), (0, 0)), ((Z, -1), (0, 0))})


def test_label_three_axis_lines():
    cfg = make_configuration(
        strings=[_line(X, 1), _line(Y, 1, (0, 5, 0)), _line(Z, 1, (5, 0, 5))]
    )
    label = sector_label(cfg)
    assert label.g == 0
    assert [t.kind for t in label.tags] == ["P", "P", "P"]
    axes = [sorted({d[0] for d in t.directions}) for t in label.tags]
    assert axes == [[X], [Y], [Z]]


def test_label_l_shape_and_free_staircase():
    l_string = spec_from_strings("X+", "", "Y+", (0, 0, 0))  # D = {x-, y+}
    # partner with both tails staircasing: D = {x+, z+} u {y-, z-} split 2/2
    partner = spec_from_strings("Z+Y+", "", "X+Z+", (6, 6, 6))
    cfg = make_configuration(strings=[l_string, partner])
    label = sector_label(cfg)
    kinds = [t.kind for t in label.tags]
    assert kinds == ["P", "R"]


def test_label_one_pinned_side_is_q():
    q_string = spec_from_strings("Z+", "", "X+Y+", (0, 0, 0))  # D+ = {x+,y+}, D- = {z-}
    cfg = make_configuration(strings=[q_string])
    label = sector_label(cfg)
    tag = label.tags[0]
    assert tag.kind == "Q"
    assert len(tag.anchors) == 1
    (d, tau), = tag.anchors
    assert d == (Z, -1)


def test_label_requires_ground_sector():
    u = spec_from_strings("Z+", "X+", "Z-")
    with pytest.raises(NotAGroundSector):
        sector_label(make_configuration(strings=[u]))


def test_label_invariant_under_path_equivalent_edits(rng):
    done = 0
    while done < 30:
        s = random_monotone_spec(rng)
        cfg = make_configuration(charges=[(2, 2, 2)], strings=[s])
        variant = make_configuration(charges=[(2, 2, 2)], strings=[equivalent_variant(rng, s)])
        assert sector_label(cfg) == sector_label(variant)
        done += 1


@pytest.mark.parametrize("strict_gss", [False, True])
def test_sector_label_agrees_with_classify(rng, strict_gss):
    makers = (random_spec, random_monotone_spec, random_nonmonotone_spec)
    inside = outside = 0
    for _ in range(150):
        strings = [makers[int(rng.integers(0, 3))](rng) for _ in range(int(rng.integers(0, 4)))]
        loops = [random_loop(rng) for _ in range(int(rng.integers(0, 2)))]
        charges = [tuple(int(x) for x in rng.integers(-3, 4, 3)) for _ in range(int(rng.integers(0, 3)))]
        cfg = make_configuration(charges, strings, loops)
        if classify(cfg, strict_gss=strict_gss).is_ground_sector:
            expected = SectorLabel(charge_parity(cfg), tuple(_string_tag(s) for s in strings))
            assert sector_label(cfg, strict_gss=strict_gss) == expected
            inside += 1
        else:
            with pytest.raises(NotAGroundSector):
                sector_label(cfg, strict_gss=strict_gss)
            outside += 1
    assert inside >= 20 and outside >= 20


def test_label_regression_two_strings_charges_and_loop():
    # a non-monotone P string along x and a Q string: recorded label
    a = spec_from_strings("X+", "Y+Z+Y-Z+", "X+", (0, 0, 0))
    b = spec_from_strings("Z+", "Y+", "Y+Z+", (5, 0, 0))
    loop = path_from_steps((9, 9, 9), parse_steps("X+Y+X-Y-"))
    cfg = make_configuration(charges=[(1, 1, 1), (2, 2, 2), (3, 3, 3)], strings=[a, b], loops=[loop])
    expected = SectorLabel(
        1,
        (
            StringClassTag(
                "P",
                frozenset({(X, 1), (X, -1)}),
                frozenset({((X, 1), (0, 2)), ((X, -1), (0, 0))}),
            ),
            StringClassTag(
                "Q",
                frozenset({(Z, -1), (Y, 1), (Z, 1)}),
                frozenset({((Z, -1), (5, 0))}),
            ),
        ),
    )
    assert sector_label(cfg) == expected
    assert sector_label(cfg, strict_gss=True) == expected


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_two_strings_inventory():
    rep = enumerate_gsc_solutions(2)
    assert rep.raw_count == rep.raw_count_alt
    # closed form: sum over ordered disjoint direction-set pairs of the
    # number of two-sided splits, 15*6*(2*2)+2*[15*4*(2*6)]+2*[15*1*2*14]+20*36
    assert rep.raw_count == 3360
    assert set(rep.case_inventory) == {"I", "II.A", "II.B", "II.C", "III.A", "III.B", "IV.A"}


def test_enumeration_case_one_contains_paper_family():
    # among the size-(2,2) orbits there is the family where the second
    # string's directions complement one of the first string's axes
    rep = enumerate_gsc_solutions(2)
    found = False
    for sol, case in rep.orbits.items():
        if case != "I":
            continue
        (p1, m1), (p2, m2) = sol
        d1, d2 = p1 | m1, p2 | m2
        comp = 0
        for i in range(6):
            if d1 >> i & 1:
                comp |= 1 << (i ^ 1)
        if comp & d2:
            found = True
    assert found


def test_enumeration_iv_reduces_to_iii():
    rep = enumerate_gsc_solutions(2)
    assert "IV.A" in rep.reduction_targets
    reached = rep.reduction_targets["IV.A"]
    assert {"III.A", "III.B"} & reached


def test_enumeration_three_strings():
    rep = enumerate_gsc_solutions(3)
    assert rep.raw_count == rep.raw_count_alt
    # 90 ordered triples of disjoint two-direction sets, 2 splits each
    assert rep.raw_count == 720
    assert set(rep.case_inventory) == {"A", "B", "C"}
    assert "A" in rep.reduction_targets["B"]
    assert "A" in rep.reduction_targets["C"]


@pytest.mark.parametrize("n", [2, 3])
def test_enumeration_fold_matches_reference(n):
    # the key fold lists the string-order/swap classes of the per-n loop
    # nests' assignments once each, in ascending order; each class holds
    # n! * 2^n of them, and both counts agree with the loop nests'
    raw = reference_raw_solutions(n)
    keys = _keys(n)
    assert keys == sorted(dict.fromkeys(_key(s) for s in raw))
    assert len(keys) * factorial(n) * 2**n == len(raw)
    assert _raw_count_alt(n) == reference_raw_count_alt(n) == len(raw)


def test_enumeration_rejects_other_string_counts():
    for n in (1, 4):
        with pytest.raises(ValueError):
            _keys(n)
        with pytest.raises(ValueError):
            enumerate_gsc_solutions(n)


def test_enumeration_case_a_constraint():
    rep = enumerate_gsc_solutions(3)
    for sol, case in rep.orbits.items():
        if case == "A":
            for p, m in sol:
                d = p | m
                axis_pairs = [0b11 << (2 * a) for a in (0, 1, 2)]
                assert d in axis_pairs


def test_surgery_move_keeps_validity():
    sol = (((0b000001, 0b000010)), ((0b000100, 0b001000)))
    moved = surgery_move(sol, 0, 1)
    for p, m in moved:
        assert p and m and not (p & m)
    assert min(_orbit(moved)) == min(_orbit(surgery_move(sol, 0, 1)))


def _images(sol):
    """Every D+/D- swap of ``sol`` and every surgery move of it."""
    n = len(sol)
    for swaps in product((0, 1), repeat=n):
        yield tuple((m, p) if sw else (p, m) for (p, m), sw in zip(sol, swaps))
    for i in range(n):
        for j in range(n):
            if i != j:
                yield surgery_move(sol, i, j)


@pytest.mark.parametrize("n", [2, 3])
def test_canonical_solution_matches_reference(n):
    # the cached per-assignment images give the per-table sorted minimum on
    # every raw solution; every swap and surgery image of a raw solution is
    # itself a raw solution, so this covers the images too
    sols = reference_raw_solutions(n)
    raw = set(sols)
    assert all(var in raw for sol in sols for var in _images(sol))
    for sol in sols:
        assert min(_orbit(sol)) == reference_canonical_solution(sol), sol


def _reference_orbits(n):
    """Each orbit's canonical form with its case, in the order of the first
    raw solution of each."""
    classify_fn = _case_two if n == 2 else _case_three
    expected = {}
    for sol in reference_raw_solutions(n):
        canon = reference_canonical_solution(sol)
        if canon not in expected:
            expected[canon] = classify_fn(canon)
    return expected


@pytest.mark.parametrize("n", [2, 3])
def test_enumeration_orbits_match_reference(n):
    # one canonical form per string-order/swap class: the same orbits, in
    # the order of the first raw solution of each, with the same cases
    assert list(enumerate_gsc_solutions(n).orbits.items()) == list(_reference_orbits(n).items())


@pytest.mark.parametrize("n", [2, 3])
def test_enumeration_orbits_ascend_from_their_least_raw_solutions(n):
    # a key is the least ordering of its raw solutions, so each orbit's
    # canonical form is its least raw solution, and the orbits ascend
    rep = enumerate_gsc_solutions(n)
    assert list(rep.orbits) == sorted(rep.orbits)
    least = {}
    for sol in reference_raw_solutions(n):
        canon = reference_canonical_solution(sol)
        least[canon] = min(least.get(canon, sol), sol)
    assert list(rep.orbits) == sorted(least.values())
    assert all(canon == sol for canon, sol in least.items())


def test_enumeration_two_strings_holds_no_raw_solutions():
    # two strings make 420 keys, not the 3360 ordered raw solutions, whose
    # list and keys alone take over 500 KiB; a first call fills the
    # per-candidate caches
    enumerate_gsc_solutions(2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        enumerate_gsc_solutions(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_table_maps_every_raw_key_to_its_canonical_form(n):
    # the table holds the key (string order and swaps forgotten) of every
    # raw solution, mapped to that solution's canonical form
    table = _orbit_table(_keys(n))
    for sol in reference_raw_solutions(n):
        key = tuple(sorted(min(a, a[::-1]) for a in sol))
        assert table[key] == reference_canonical_solution(sol), sol


@pytest.mark.parametrize("n", [2, 3])
def test_reduction_targets_match_reference(n):
    # the closure looks its surgery moves up in the orbit table; the
    # reference recomputes the canonical form of each move
    classify_fn = _case_two if n == 2 else _case_three
    reducible = {"IV.A"} if n == 2 else {"B", "C"}
    expected = {}
    for canon, case in _reference_orbits(n).items():
        if case in reducible:
            expected.setdefault(case, set()).update(reference_reduction_closure(canon, classify_fn))
    assert enumerate_gsc_solutions(n).reduction_targets == {k: frozenset(v) for k, v in expected.items()}


@pytest.mark.parametrize("n, orbits", [(2, 22), (3, 3)])
def test_distinct_moves_reach_every_move_canon(n, orbits):
    # the closure expands a canonical form by 2 * C(n, 2) moves; they reach
    # the same canonical forms as all 2^n swaps times n(n - 1) ordered pairs
    canon_of = _orbit_table(_keys(n))
    canons = list(dict.fromkeys(canon_of.values()))
    assert len(canons) == orbits
    for canon in canons:
        moves = list(_distinct_moves(canon))
        assert len(moves) == n * (n - 1)
        assert {canon_of[_key(moved)] for moved in moves} == reference_move_canons(canon, canon_of), canon


@pytest.mark.parametrize("n, calls", [(2, 24), (3, 36)])
def test_closure_makes_two_moves_per_pair(monkeypatch, n, calls):
    # over their three rounds the reducible orbits' closures expand 12
    # canonical forms at n = 2 and 6 at n = 3, each by its 2 * C(n, 2)
    # distinct moves; every swap times every ordered pair would make 96 and 288
    import toric3d.sectors as sectors

    made = []

    def counted(sol, i, j):
        made.append((sol, i, j))
        return surgery_move(sol, i, j)

    monkeypatch.setattr(sectors, "surgery_move", counted)
    enumerate_gsc_solutions(n)
    assert len(made) == calls


@pytest.mark.parametrize("n, orbits", [(2, 22), (3, 3)])
def test_enumeration_builds_image_columns_once_per_orbit(monkeypatch, n, orbits):
    # one call of the image-column helper per orbit: later keys and the
    # closure's surgery moves are table lookups
    import toric3d.sectors as sectors

    calls = []

    def counted(sol):
        calls.append(sol)
        return _orbit(sol)

    monkeypatch.setattr(sectors, "_orbit", counted)
    assert len(enumerate_gsc_solutions(n).orbits) == orbits
    assert len(calls) == orbits
