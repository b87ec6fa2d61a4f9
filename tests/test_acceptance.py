"""Acceptance criteria.

Each test exercises one end-to-end claim at its stated size and exact
(integer/boolean) tolerance and prints a single PASS/FAIL line.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines as they go by.
"""

from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from toric3d.errors import AlreadyMonotonicInRegion, MultipleCrossings
from toric3d.lattice import AXES, Face, add, parse_steps, region_of
from toric3d.paths import (
    enclosing_region,
    infinity_directions,
    path_from_steps,
    spec_from_strings,
    truncate,
    validate_surface,
    word_is_monotone,
)
from toric3d.sectors import (
    VerdictKind,
    classify,
    enumerate_gsc_solutions,
    sector_label,
    tail_conflict,
)
from toric3d.stabilizer import (
    FiniteLattice,
    configuration_flip,
    commutes,
    gauge_rank,
    growing_membrane_pauli,
    pauli_from_keys,
    straight_string_pauli,
    surface_net_checks,
    syndrome_energy,
    truncation_stable,
)
from toric3d.transforms import (
    _segment_steps,
    energy,
    linking_parity,
    make_configuration,
    straighten_once,
    surgery,
)
from ._gen import (
    flux_chain_in_region,
    bfs_distance,
    chain_xor_check,
    equivalent_variant,
    membrane_op,
    random_loop,
    random_monotone_spec,
    random_nonmonotone_spec,
    random_spec,
    raw_step_tally_is_monotone,
    string_op,
)

X, Y, Z = 0, 1, 2


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20230803)


@pytest.fixture(scope="module")
def lat(lat13):
    return lat13


def test_c01_energy_law(rng, lat):
    """transforms.energy equals the stabilizer syndrome on 200 random
    configurations of loops and truncated strings in a 5^3 dual block."""
    with _criterion(1, "energy law: combinatorial = stabilizer syndrome, 200 configs"):
        region = region_of((0, 0, 0), (4, 4, 4))
        clip = region.inflate(2)
        for _ in range(200):
            strings = []
            for _k in range(int(rng.integers(0, 3))):
                s = random_spec(rng, base_lo=1, base_hi=3, max_core=5)
                # keep cores inside the block so the clip box is crossed once
                if all(0 <= s.vertex(t)[a] <= 4 for t in range(len(s.core) + 1) for a in AXES):
                    strings.append(s)
            loops = [random_loop(rng, lo=0, hi=4) for _ in range(int(rng.integers(0, 3)))]
            cfg = make_configuration(strings=strings, loops=loops)
            expected = energy(cfg, region).total
            try:
                flip = configuration_flip(lat, cfg, region, clip)
            except MultipleCrossings:
                continue
            assert syndrome_energy(lat, flip, region) == expected


def _distinct_permutations(word):
    word = sorted(word)
    n = len(word)
    out = []

    def rec(prefix, rest):
        if not rest:
            out.append(tuple(prefix))
            return
        seen = set()
        for i, w in enumerate(rest):
            if w in seen:
                continue
            seen.add(w)
            rec(prefix + [w], rest[:i] + rest[i + 1 :])

    rec([], word)
    return out


def test_c02_minimal_path_law():
    """Every monotone staircase across an a x b x c cuboid has a+b+c edges,
    matching the BFS oracle, for all cuboids up to 4x4x4."""
    with _criterion(2, "minimal-path law on all cuboids up to 4x4x4"):
        for a, b, c in product(range(1, 5), repeat=3):
            region = region_of((0, 0, 0), (a, b, c))
            oracle = bfs_distance(region, (0, 0, 0), (a, b, c))
            assert oracle == a + b + c
            word = [(X, 1)] * a + [(Y, 1)] * b + [(Z, 1)] * c
            for staircase in _distinct_permutations(word):
                path = path_from_steps((0, 0, 0), staircase)
                assert len(path) == a + b + c
                assert path.vertices[-1] == (a, b, c)


def test_c03_straightening_descent(rng):
    """Each straightening pass strictly lowers in-region energy by an even
    positive integer; the fixpoint segment length matches BFS."""
    with _criterion(3, "straightening descent + fixpoint = BFS, 100 specs"):
        done = 0
        while done < 100:
            spec = random_nonmonotone_spec(rng)
            region = enclosing_region(spec).inflate(2)
            cur = spec
            try:
                while True:
                    before = 2 * len(_segment_steps(cur, region)[2])
                    try:
                        nxt = straighten_once(cur, region)
                    except AlreadyMonotonicInRegion:
                        break
                    after = 2 * len(_segment_steps(nxt, region)[2])
                    drop = before - after
                    assert drop > 0 and drop % 2 == 0
                    cur = nxt
            except MultipleCrossings:
                continue
            t_lo, t_hi, seg = _segment_steps(cur, region)
            assert word_is_monotone(seg)
            assert len(seg) == bfs_distance(region, cur.vertex(t_lo), cur.vertex(t_hi))
            done += 1


def test_c04_ground_state_iff_monotonic(rng):
    """classify on 500 one-string configurations agrees with the
    monotonicity predicate tallied from a raw truncation."""
    with _criterion(4, "ground state iff monotonic, 500 one-string specs"):
        for k in range(500):
            spec = random_monotone_spec(rng) if k % 2 == 0 else random_spec(rng)
            verdict = classify(make_configuration(strings=[spec]))
            oracle = raw_step_tally_is_monotone(spec)
            assert (verdict.kind is VerdictKind.GROUND_STATE) == oracle


def test_c05_surgery_correctness():
    """Surgery output validates, equals input XOR boundary as an F2 chain,
    and the parallel-lines instance yields two pathological U strings."""
    with _criterion(5, "surgery: validation, F2 chain identity, double-U"):
        g1 = spec_from_strings("Z+", "", "Z+", (0, 0, 0))
        g2 = spec_from_strings("Z+", "", "Z+", (2, 0, 0))
        cfg = make_configuration(strings=[g1, g2])
        surf = validate_surface(
            [Face((x, 0, z), Y) for x in range(0, 2) for z in range(0, 3)]
        )
        out = surgery(cfg, surf)
        assert len(out.strings) == 2
        for s in out.strings:
            truncate(s, -8, 8)  # revalidates the realized path
        window = region_of((-6, -6, -6), (8, 8, 8))
        assert chain_xor_check(
            [flux_chain_in_region(cfg, window), {e.key for e in surf.boundary.edges}],
            flux_chain_in_region(out, window),
        )
        headings = set()
        for s in out.strings:
            ds = infinity_directions(s)
            assert tail_conflict(ds) is not None  # pathologically non-monotone
            assert len(ds.all) == 1  # a U: both tails share one heading
            headings.add(next(iter(ds.all)))
        assert headings == {(Z, 1), (Z, -1)}


def test_c06_classification_tables():
    """The brute-force enumeration reproduces the case inventory for two and
    three strings, with matching counts from two independent orderings."""
    with _criterion(6, "classification tables for 2 and 3 strings"):
        rep2 = enumerate_gsc_solutions(2)
        assert rep2.raw_count == rep2.raw_count_alt
        assert set(rep2.case_inventory) == {
            "I",
            "II.A",
            "II.B",
            "II.C",
            "III.A",
            "III.B",
            "IV.A",
        }
        assert {"III.A", "III.B"} & rep2.reduction_targets["IV.A"]
        rep3 = enumerate_gsc_solutions(3)
        assert rep3.raw_count == rep3.raw_count_alt
        assert set(rep3.case_inventory) == {"A", "B", "C"}
        assert "A" in rep3.reduction_targets["B"]
        assert "A" in rep3.reduction_targets["C"]


def test_c07_four_plus_no_go(rng):
    """500 random 4- and 5-string configurations are never in a ground sector."""
    with _criterion(7, "no ground sector with 4+ strings, 500 configs"):
        from toric3d.paths import InfinitePathSpec

        offsets = [(0, 0, 0), (9, 0, 0), (0, 9, 0), (0, 0, 9), (9, 9, 9)]
        for k in range(500):
            n = 4 + (k % 2)
            strings = []
            for i in range(n):
                s = random_spec(rng, base_lo=-1, base_hi=1)
                strings.append(
                    InfinitePathSpec(
                        s.neg_period, s.core, s.pos_period, add(s.base, offsets[i])
                    )
                )
            verdict = classify(make_configuration(strings=strings))
            assert verdict.kind is VerdictKind.NOT_GROUND_SECTOR
            assert verdict.witness is not None


def test_c08_linking_sign(rng, lat):
    """linking_parity equals the symplectic anticommutation bit on 300 random
    loop/membrane pairs; an encircling loop anticommutes."""
    with _criterion(8, "linking parity = symplectic sign, 300 pairs"):
        for _ in range(300):
            loop = random_loop(rng, lo=-2, hi=3)
            x0, y0, z0 = (int(v) for v in rng.integers(-2, 2, 3))
            w, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            normal = int(rng.integers(0, 3))
            a1, a2 = [a for a in AXES if a != normal]
            faces = []
            for i in range(w):
                for j in range(h):
                    base = [x0, y0, z0]
                    base[a1] += i
                    base[a2] += j
                    faces.append(Face(tuple(base), normal))
            surf = validate_surface(faces)
            parity = linking_parity(loop, surf.faces)
            sym = 0 if commutes(string_op(lat, loop), membrane_op(lat, faces)) else 1
            assert parity == sym
        surf = validate_surface([Face((0, 0, 0), Z)])
        wrap = path_from_steps((1, 1, 0), parse_steps("Z+Y+Z-Y-"))
        assert linking_parity(wrap, surf.faces) == 1
        assert not commutes(string_op(lat, wrap), membrane_op(lat, surf.faces))


def test_c09_block_counting():
    """Gauge rank n^3 for n = 1..3; exhaustive net checks at n <= 2 give a
    one-dimensional ground space per boundary condition; the boundary
    bit-flip bijection holds for every realized boundary condition at n=1."""
    with _criterion(9, "gauge rank, net orbits, boundary bijection"):
        for n in (1, 2, 3):
            assert gauge_rank(n) == n**3
        for n in (1, 2):
            rep = surface_net_checks(n)
            assert rep.gauge_supports_distinct
            assert rep.gauge_supports_are_nets
            assert rep.single_orbit
            assert rep.ground_space_dim == 1
        rep1 = surface_net_checks(1)
        assert rep1.fiber_sizes_equal
        assert rep1.bitflip_bijection
        assert rep1.boundary_conditions >= 2**8


def test_c10_truncation_stability(rng, lat11):
    """Conjugation by n- and n'-truncated string/membrane operators agrees on
    any observable in an m-block, m < n < n' <= 4; one negative control."""
    with _criterion(10, "truncation stability, 100 cases + negative control"):
        for _ in range(100):
            m = int(rng.integers(1, 3))
            block = FiniteLattice(m)
            x_keys = [k for k in block.interior_edges if rng.random() < 0.35]
            z_keys = [k for k in block.interior_edges if rng.random() < 0.35]
            obs = pauli_from_keys(lat11, x_keys=x_keys, z_keys=z_keys)
            n1 = int(rng.integers(m + 1, 4))
            n2 = int(rng.integers(n1 + 1, 5))
            v = tuple(int(x) for x in rng.integers(-(m // 2), m - m // 2, 3))
            assert truncation_stable(
                obs,
                straight_string_pauli(lat11, v, n1),
                straight_string_pauli(lat11, v, n2),
            )
            assert truncation_stable(
                obs,
                growing_membrane_pauli(lat11, (0, 0, 2), n1),
                growing_membrane_pauli(lat11, (0, 0, 2), n2),
            )
        s2 = straight_string_pauli(lat11, (0, 0, 1), 2)
        s3 = straight_string_pauli(lat11, (0, 0, 1), 3)
        frontier = pauli_from_keys(lat11, x_keys=[((0, 0, -2), Z)])
        assert not truncation_stable(frontier, s2, s3)


def test_c11_label_invariance(rng):
    """Path-equivalent specs (random finite core edits) carry identical
    sector labels, over 100 pairs."""
    with _criterion(11, "sector-label invariance under finite edits, 100 pairs"):
        done = 0
        while done < 100:
            s = random_monotone_spec(rng)
            charges = [tuple(int(x) for x in rng.integers(0, 5, 3))] * int(
                rng.integers(0, 3)
            )
            cfg = make_configuration(charges=charges, strings=[s])
            variant = make_configuration(
                charges=charges, strings=[equivalent_variant(rng, s)]
            )
            assert sector_label(cfg) == sector_label(variant)
            done += 1
