"""F2 verifier: block structure, operator algebra, exhaustive checks."""

import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import compress, product
from pathlib import Path

import pytest

from toric3d import _kernels
from toric3d.errors import DimensionMismatch, MultipleCrossings, OutOfRegion, TooLarge
from toric3d.lattice import (
    DIRECTIONS,
    Face,
    Region,
    boundary_edge,
    edge_from,
    edges_of_vertex,
    face_keys,
    parse_steps,
    region_of,
)
from toric3d.paths import (
    MAX_TAIL_LETTERS,
    InfinitePathSpec,
    path_from_steps,
    spec_from_strings,
    validate_surface,
)
from toric3d.stabilizer import (
    FiniteLattice,
    PauliOperator,
    _CHUNK_ROWS,
    _are_nets,
    _check_plaquettes_in_block,
    _codes,
    _column_sum,
    _crossing,
    _curtain_edges,
    _edge_rows_over_faces,
    _fiber_checks,
    configuration_flip,
    commutes,
    conjugation_sign,
    gauge_rank,
    growing_membrane_pauli,
    pauli_from_keys,
    plaquette,
    star,
    straight_string_pauli,
    surface_net_checks,
    syndrome_energy,
    truncation_stable,
)
from toric3d.transforms import energy, linking_parity, make_configuration
from ._gen import (
    membrane_op,
    pack_lanes,
    qubit_bits,
    random_loop,
    random_spec,
    reference_are_nets,
    reference_block,
    reference_charge_tails,
    reference_bounds,
    reference_check_plaquettes_in_block,
    reference_codes,
    reference_curtain_edges,
    reference_fiber_checks,
    reference_segment_steps,
    reference_syndrome_energy,
    string_op,
    support_keys,
    unpack_lanes,
)

X, Y, Z = 0, 1, 2


def test_block_counts():
    lat1 = FiniteLattice(1)
    assert len(lat1.vertices) == 1
    assert len(lat1.interior_edges) == 6
    lat2 = FiniteLattice(2)
    assert len(lat2.vertices) == 8
    # edges with at least one endpoint among the 2x2x2 vertices: per axis,
    # 2x2 transverse positions times 3 base offsets along the axis
    assert len(lat2.interior_edges) == 36
    lat3 = FiniteLattice(3)
    assert len(lat3.vertices) == 27


_OP1 = PauliOperator(frozenset(), frozenset(), FiniteLattice(1).n_qubits)
_OP2 = PauliOperator(frozenset(), frozenset(), FiniteLattice(2).n_qubits)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: commutes(_OP1, _OP2), DimensionMismatch, "operators live on different lattices"),
        (lambda: conjugation_sign(_OP1, _OP2), DimensionMismatch, "operators live on different lattices"),
        (
            lambda: syndrome_energy(FiniteLattice(2), _OP1, region_of((0, 0, 0), (0, 0, 0))),
            DimensionMismatch,
            "flip built on a different lattice",
        ),
        (lambda: FiniteLattice(0), ValueError, "lattice side must be >= 1"),
    ],
    ids=["commutes", "conjugation_sign", "syndrome_energy", "empty_block"],
)
def test_mismatched_or_empty_block_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_star_and_plaquette_weights(lat9):
    s = star(lat9, (0, 0, 0))
    assert s.x_weight == 6 and s.z_weight == 0
    p = plaquette(lat9, Face((0, 0, 0), Z))
    assert p.z_weight == 4 and p.x_weight == 0


def test_membrane_weight(lat9):
    faces = [Face((x, y, 0), Z) for x in range(2) for y in range(2)]
    m = membrane_op(lat9, faces)
    assert m.x_weight == 4


def test_out_of_region_raises():
    lat = FiniteLattice(2)
    with pytest.raises(OutOfRegion):
        star(lat, (9, 9, 9))
    with pytest.raises(OutOfRegion):
        string_op(lat, path_from_steps((8, 8, 8), parse_steps("X+")))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_stars_commute_with_all_plaquettes(n):
    lat = FiniteLattice(n)
    for v in lat.vertices:
        sv = star(lat, v)
        assert commutes(sv, sv)
        for f in lat.faces:
            assert commutes(sv, plaquette(lat, f))


def test_loop_linking_membrane_anticommutes(lat9):
    surf = validate_surface([Face((0, 0, 0), Z)])
    wrap = path_from_steps((1, 1, 0), parse_steps("Z+Y+Z-Y-"))
    assert not commutes(string_op(lat9, wrap), membrane_op(lat9, surf.faces))
    far = path_from_steps((3, 3, 3), parse_steps("X+Y+X-Y-"))
    assert commutes(string_op(lat9, far), membrane_op(lat9, surf.faces))


def test_syndrome_examples(lat9):
    region = region_of((-3, -3, -3), (3, 3, 3))
    open_path = path_from_steps((0, 0, 0), parse_steps("X+X+X+"))
    assert syndrome_energy(lat9, string_op(lat9, open_path), region) == 4
    assert syndrome_energy(lat9, membrane_op(lat9, [Face((0, 0, 0), Z)]), region) == 8
    assert syndrome_energy(lat9, PauliOperator(frozenset(), frozenset(), lat9.n_qubits), region) == 0


def test_conjugation_sign_matches_per_qubit_count(rng, lat9):
    """The sign read from the run bounds against a qubit-by-qubit count of
    where one operator's x meets the other's z, on random code sets drawn
    from the reference block's codes."""
    codes = list(qubit_bits(lat9).values())

    def random_supports():
        return tuple(frozenset(compress(codes, rng.random(len(codes)) < p)) for p in rng.random(2) * 0.1)

    def pauli(x, z):
        return PauliOperator(reference_bounds(x), reference_bounds(z), lat9.n_qubits)

    signs = set()
    for _ in range(40):
        (px, pz), (qx, qz) = random_supports(), random_supports()
        p, q = pauli(px, pz), pauli(qx, qz)
        count = sum((c in px and c in qz) + (c in pz and c in qx) for c in codes)
        assert conjugation_sign(p, q) == count % 2 == conjugation_sign(q, p)
        signs.add(count % 2)
    assert signs == {0, 1}


def test_repeated_keys_cancel(lat9):
    key = ((0, 0, 0), X)
    assert pauli_from_keys(lat9, x_keys=[key, key]) == PauliOperator(frozenset(), frozenset(), lat9.n_qubits)
    assert reference_codes(pauli_from_keys(lat9, x_keys=[key] * 3, z_keys=[key] * 4).x) == {lat9.code(key)}
    with pytest.raises(OutOfRegion):
        pauli_from_keys(lat9, z_keys=[((9, 9, 9), Z), ((9, 9, 9), Z)])


@pytest.mark.parametrize("n", range(1, 7))
def test_run_bounds_match_code_set_references(n):
    """A support is held as its run bounds.  On random supports made of
    whole block columns, the top cell of columns (grid height ``hi + 1``
    for x and y edges) and scattered cells: the bounds round-trip through
    ``reference_bounds`` and ``reference_codes``, ``pauli_from_keys`` holds
    ``reference_bounds`` of ``_codes`` (repeated keys included), the weights
    are the supports' sizes, and the conjugation sign matches the per-qubit
    count.  ``_column_sum`` of random tops in, at the ends of and outside
    each column holds the bounds of the edges from each top inside it down
    to the column's floor, the columns read from the reference block."""
    rng = random.Random(4000 + n)
    lat = FiniteLattice(n)
    bits = qubit_bits(lat)
    columns: dict = {}
    for key in bits:
        (x, y, z), axis = key
        columns.setdefault((x, y, axis), []).append(key)
    for col in columns.values():
        col.sort(key=lambda key: key[0][2])

    def random_keys():
        keys = set()
        p = rng.random() * 0.3
        for col in columns.values():
            r = rng.random()
            keys ^= set(col) if r < 0.15 else {col[-1]} if r < 0.3 else set()
            keys ^= {key for key in col if rng.random() < p}
        return keys

    signs, reached = set(), set()
    for _ in range(30):
        supports = [random_keys() for _ in range(4)]
        codes = [frozenset(bits[key] for key in keys) for keys in supports]
        for c in codes:
            assert reference_codes(reference_bounds(c)) == c
            assert reference_bounds(reference_codes(reference_bounds(c))) == reference_bounds(c)
        repeated = [list(keys) + [key for key in keys if rng.random() < 0.3] * 2 for keys in supports]
        ops = [pauli_from_keys(lat, x_keys=repeated[i], z_keys=repeated[i + 1]) for i in (0, 2)]
        for op, i in zip(ops, (0, 2)):
            assert op.x == reference_bounds(_codes(lat, repeated[i])) == reference_bounds(codes[i])
            assert op.z == reference_bounds(_codes(lat, repeated[i + 1])) == reference_bounds(codes[i + 1])
            assert (op.x_weight, op.z_weight) == (len(reference_codes(op.x)), len(codes[i + 1]))
        count = len(codes[0] & codes[3]) + len(codes[1] & codes[2])
        assert conjugation_sign(ops[0], ops[1]) == count % 2 == conjugation_sign(ops[1], ops[0])
        signs.add(count % 2)
        tops, want = [], set()
        for (x, y, axis), col in columns.items():
            if rng.random() < 0.5:
                continue
            floor, ceiling = col[0][0][2], col[-1][0][2]
            for top in rng.choice([[ceiling], [floor], [floor - 1, ceiling + 1]]) + [
                rng.randint(floor - 2, ceiling + 2) for _ in range(rng.randrange(3))
            ]:
                tops.append((x, y, axis, top))
                if floor <= top <= ceiling:
                    want ^= {bits[key] for key in col if key[0][2] <= top}
                reached.add(top - ceiling if top >= ceiling else top - floor if top <= floor else 0)
        tops += [(lat.hi[0] + 2, 0, axis, 0) for axis in range(3)]
        got = _column_sum(lat, tops)
        assert got == reference_bounds(want)
        assert PauliOperator(got, frozenset(), lat.n_qubits).x_weight == len(want)
    assert signs == {0, 1}
    assert {-1, 0, 1} <= reached


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 8), (3, 27)])
def test_gauge_rank(n, expected):
    assert gauge_rank(n) == expected


def test_surface_net_checks_n1():
    rep = surface_net_checks(1)
    assert rep.gauge_order == 2
    assert rep.gauge_supports_distinct
    assert rep.gauge_supports_are_nets
    assert rep.interior_nullity == 1  # two interior nets per boundary condition
    assert rep.ground_space_dim == 1
    assert rep.single_orbit
    assert rep.fiber_sizes_equal
    assert rep.bitflip_bijection


@pytest.fixture(scope="module")
def nets_n1():
    """The sorted 2^18 nets of the side-1 block, as a list, with their net
    basis, their lane width, their interior size and interior net basis."""
    lat = FiniteLattice(1)
    interior_basis = _kernels.nullspace(_edge_rows_over_faces(lat, lat.interior_edges))
    basis = _kernels.nullspace(_edge_rows_over_faces(lat, lat.qubits))
    nets = sorted(_kernels.span(basis))
    return nets, basis, lat.n_qubits + 1, len(lat.interior_edges), interior_basis


def _in_lanes(nets, n_interior: int, basis, blocks: int):
    """``_fiber_checks`` of ``nets`` packed as one chunk, then split into
    chunks of ``blocks`` blocks each (the last one shorter when ``nets``
    does not fill it): the two results."""
    width = max(n_interior, max(nets, default=0).bit_length()) + 1
    size = blocks * 2 ** len(basis)
    return [_fiber_checks(pack_lanes(nets, width, chunk), width, n_interior, basis) for chunk in (None, size)]


def test_fiber_checks_match_reference_on_the_block(nets_n1):
    nets, basis, width, n_interior, interior_basis = nets_n1
    assert len(nets) == 2**18
    expected = reference_fiber_checks(nets, n_interior, interior_basis)
    assert expected == (2**17, True, True)
    # the list packed whole and in 1000-net chunks, and the span as
    # ``surface_net_checks`` reads it: 64 chunks of 4096 sorted nets
    assert _in_lanes(nets, n_interior, interior_basis, 500) == [expected, expected]
    chunks = list(_kernels.sorted_span(basis, width, _CHUNK_ROWS))
    assert [lanes for _, lanes in chunks] == [4096] * 64
    assert unpack_lanes(chunks, width) == nets
    assert _fiber_checks(chunks, width, n_interior, interior_basis) == expected


def _synthetic_nets(rng: random.Random, n_interior: int, k: int):
    """Sorted nets over ``n_interior`` low bits and a few boundary bits: a
    coset of a random ``k``-dimensional low-bit group per boundary value."""
    basis, group = [], [0]
    while len(basis) < k:
        b = rng.randrange(1, 1 << n_interior)
        if b not in group:
            basis.append(b)
            group += [g ^ b for g in group]
    nets = []
    for boundary in rng.sample(range(16), rng.randrange(1, 9)):
        r = rng.randrange(1 << n_interior)
        nets += [boundary << n_interior | r ^ g for g in group]
    return sorted(nets), basis, group


def _mutate(rng: random.Random, nets: list[int], n_interior: int, group: list[int]) -> list[int]:
    nets = list(nets)
    i = rng.randrange(len(nets))
    kind = rng.randrange(5)
    if kind == 0:
        del nets[i]
    elif kind == 1:
        nets.append(nets[i])
    elif kind == 2:
        nets[i] ^= 1 << rng.randrange(n_interior)
    elif kind == 3:
        nets[i] ^= 1 << rng.randrange(n_interior, n_interior + 5)
    else:
        # a fiber of the wrong size on a fresh boundary value
        size = rng.choice([s for s in (1, 2, 4, 8, 16) if s != len(group)])
        boundary = 16 + rng.randrange(16)
        r = rng.randrange(1 << n_interior)
        nets += [boundary << n_interior | r ^ rng.randrange(1 << n_interior) for _ in range(size)]
    return sorted(nets)


def test_fiber_checks_match_reference_on_synthetic_nets():
    # fibers of 1, 2, 4 and 8 nets; each list is checked intact and with one
    # net dropped or duplicated, a low or a high bit flipped, or an extra
    # fiber of the wrong size; split into chunks of 1 to 3 blocks, most
    # lists cross several seams
    rng = random.Random(20261018)
    verdicts = set()
    for case in range(400):
        n_interior = rng.randrange(3, 8)
        k = case % 4
        nets, basis, group = _synthetic_nets(rng, n_interior, k)
        runs = len(set(v >> n_interior for v in nets))
        assert _in_lanes(nets, n_interior, basis, 1 + case % 3) == [(runs, True, True)] * 2
        assert reference_fiber_checks(nets, n_interior, basis) == (runs, True, True)
        bad = _mutate(rng, nets, n_interior, group)
        expected = reference_fiber_checks(bad, n_interior, basis)
        assert _in_lanes(bad, n_interior, basis, 1 + case % 3) == [expected] * 2, (case, bad, basis)
        verdicts.add(expected[1:])
    # the mutations reach unequal fibers and equal fibers without a bijection
    assert {(False, False), (True, False)} <= verdicts


def test_fiber_checks_on_merged_fibers_and_a_short_last_block():
    # a full-size fiber added on a boundary value the list already holds
    # keeps every aligned block on one boundary, yet the runs are fewer than
    # the blocks; two single nets on fresh boundary values after the list's
    # leave a last block of fewer than ``fiber`` nets that changes boundary;
    # the empty list has no runs and vacuously equal fibers
    rng = random.Random(20261019)
    for case in range(400):
        n_interior = rng.randrange(3, 8)
        nets, basis, group = _synthetic_nets(rng, n_interior, case % 4)
        boundary = rng.choice(nets) >> n_interior
        r = rng.randrange(1 << n_interior)
        merged = sorted(nets + [boundary << n_interior | r ^ g for g in group])
        expected = reference_fiber_checks(merged, n_interior, basis)
        assert expected == (len(merged) // len(group) - 1, False, False)
        assert _in_lanes(merged, n_interior, basis, 1 + case % 3) == [expected] * 2, (case, merged, basis)
        tail = nets + [b << n_interior | rng.randrange(1 << n_interior) for b in (16, 17)]
        expected = reference_fiber_checks(tail, n_interior, basis)
        assert expected[0] == len(set(v >> n_interior for v in nets)) + 2
        assert _in_lanes(tail, n_interior, basis, 1 + case % 3) == [expected] * 2, (case, tail, basis)
    for basis in ([], [1], [1, 6]):
        assert reference_fiber_checks([], 3, basis) == (0, True, True)
        assert _in_lanes([], 3, basis, 1) == [(0, True, True)] * 2


def test_sorted_span_matches_sorted_list_span():
    # every chunking of a random independent basis reads back, lane by lane
    # and chunk by chunk, as the sorted list span; a dependent basis is
    # refused before any chunk is read
    rng = random.Random(20261021)
    for case in range(300):
        k, bits = case % 11, rng.randrange(10, 41)
        basis, group = [], {0}
        while len(basis) < k:
            b = rng.randrange(1, 1 << bits)
            if b not in group:
                basis.append(b)
                group |= {g ^ b for g in group}
        width = bits + rng.randrange(1, 3)
        expected = sorted(_kernels.span(basis))
        for chunk_rows in range(k + 2):
            chunks = list(_kernels.sorted_span(basis, width, chunk_rows))
            lanes = 2 ** min(chunk_rows, k)
            assert [n for _, n in chunks] == [lanes] * (2**k // lanes)
            assert all(packed.bit_length() <= width * lanes for packed, _ in chunks)
            assert unpack_lanes(chunks, width) == expected, (case, basis, chunk_rows)
        if k:
            for dependent in (basis + [0], basis + [basis[-1]], basis + [rng.choice(sorted(group - {0}))]):
                rng.shuffle(dependent)
                with pytest.raises(ValueError):
                    _kernels.sorted_span(dependent, width, rng.randrange(k + 2))


def test_surface_net_checks_n1_holds_no_list_of_nets():
    # the 2^18 nets are read in chunks of 4096 lanes, one 16 KB int each; a
    # list of them would hold 2 MiB of pointers alone, and the list version
    # of the checks peaked at 10.2 MiB
    surface_net_checks(1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = surface_net_checks(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.boundary_conditions == 2**17
    assert peak < 1024 * 1024


def _odd_columns(lat: FiniteLattice, bounds) -> set:
    """The columns holding an odd number of ``bounds``: a column is an axis
    (the residue mod 3) and the cells ``(x, y)``, one code row of
    ``lat.strides[1]``."""
    counts = Counter((b % 3, b // lat.strides[1]) for b in bounds)
    return {column for column, count in counts.items() if count & 1}


def _verify_flips():
    """Every flip of the ``verify`` workload's draws for gen seeds 5, 31, 77
    and 101, the ones ``tests/golden/verify_hash.py`` hashes, with its block."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(root))
    try:
        import gen
        from tracer import Tracer
        from worker import Verify
    finally:
        sys.path.remove(str(root))
    workload = Verify({"block": gen.VERIFY_BLOCK, "region": gen.VERIFY_REGION}, Tracer(enabled=False), None)
    for seed in (5, 31, 77, 101):
        for ops_of_pass in gen.generate("verify", seed):
            for doc in ops_of_pass:
                _specs, cfg = workload.configuration(doc, "core20")
                yield workload.lat, configuration_flip(workload.lat, cfg, workload.region, workload.clip)


def test_constructors_build_even_bounds_per_column(lat9, lat11):
    # the invariant ``PauliOperator`` relies on without checking it: each
    # column holds an even number of bounds, for random key sets with
    # repeats, every ``verify`` flip and growing membranes; a code set in
    # place of its bounds breaks it, and its weight reads negative
    rng = random.Random(20261022)
    lat1 = FiniteLattice(1)
    built = []
    for lat in (lat1, lat9, lat11):
        for _ in range(100):
            keys = [rng.choice(lat.qubits) for _ in range(rng.randrange(1, 40))]
            built.append((lat, pauli_from_keys(lat, x_keys=keys, z_keys=keys[::2] + keys[:3])))
    flips = list(_verify_flips())
    assert len(flips) == 3840
    built += flips
    for length in range(1, 6):
        for start in ((0, 0, 2), (-3, -2, 3), (-4, 4, 4), (1, -4, 0)):
            built.append((lat11, growing_membrane_pauli(lat11, start, length)))
    for lat, op in built:
        assert not _odd_columns(lat, op.x) and not _odd_columns(lat, op.z), op
    assert sum(bool(op.x) for _, op in flips) > 1000 and sum(bool(op.z) for _, op in flips) > 1000
    malformed = PauliOperator(frozenset({lat1.code(((0, 0, 0), X))}), frozenset(), lat1.n_qubits)
    assert _odd_columns(lat1, malformed.x) and malformed.x_weight < 0


def test_surface_net_checks_n2():
    rep = surface_net_checks(2)
    assert rep.gauge_order == 256
    assert rep.gauge_supports_distinct
    assert rep.gauge_supports_are_nets
    assert rep.single_orbit
    assert rep.ground_space_dim == 1


def test_surface_net_checks_too_large():
    with pytest.raises(TooLarge):
        surface_net_checks(3)


def test_surface_net_checks_caps_before_building_the_block(monkeypatch):
    # the cap is checked first, so a large n raises at once instead of
    # building a side-n block that may not fit in memory
    import toric3d.stabilizer as stabilizer

    def no_block(n):
        raise AssertionError(f"built FiniteLattice({n})")

    monkeypatch.setattr(stabilizer, "FiniteLattice", no_block)
    with pytest.raises(TooLarge, match=r"2\^\(n\^3\) <= 256"):
        surface_net_checks(3)


def test_membrane_xor_property(lat9):
    s1 = [Face((0, 0, 0), Z), Face((1, 0, 0), Z)]
    s2 = [Face((1, 0, 0), Z), Face((1, 1, 0), Z)]
    a, b = membrane_op(lat9, s1), membrane_op(lat9, s2)
    rhs = membrane_op(lat9, set(s1) ^ set(s2))
    assert (a.x ^ b.x, a.z ^ b.z) == (rhs.x, rhs.z)


def test_linking_parity_matches_symplectic_form(rng, lat9):
    for _ in range(60):
        loop = random_loop(rng, lo=-2, hi=3)
        x0, y0 = int(rng.integers(-2, 1)), int(rng.integers(-2, 1))
        w, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        z0 = int(rng.integers(-2, 3))
        faces = [Face((x0 + i, y0 + j, z0), Z) for i in range(w) for j in range(h)]
        surf = validate_surface(faces)
        parity = linking_parity(loop, surf.faces)
        sym = 0 if commutes(string_op(lat9, loop), membrane_op(lat9, faces)) else 1
        assert parity == sym


def test_orientation_independence(rng, lat9):
    # conjugation is blind to traversal orientation: the operator built from
    # a reversed path or surface is the same operator
    for _ in range(100):
        loop = random_loop(rng, lo=-2, hi=3)
        reversed_keys = [e.reversed().key for e in reversed(loop.edges)]
        assert string_op(lat9, loop) == pauli_from_keys(lat9, z_keys=reversed_keys)
    faces = list(validate_surface([Face((0, 0, 0), Z), Face((1, 0, 0), Z)]).faces)
    assert membrane_op(lat9, faces) == membrane_op(lat9, list(reversed(faces)))


def test_truncation_stability_positive(lat11):
    # observable inside a 2-block, string truncations reaching past it
    obs = pauli_from_keys(
        lat11,
        x_keys=[(((0, 0, 0)), X)],
        z_keys=[(((0, 0, -1)), Z)],
    )
    s2 = straight_string_pauli(lat11, (0, 0, 1), 3)
    s3 = straight_string_pauli(lat11, (0, 0, 1), 4)
    assert truncation_stable(obs, s2, s3)
    m2 = growing_membrane_pauli(lat11, (0, 0, 2), 2)
    m3 = growing_membrane_pauli(lat11, (0, 0, 2), 3)
    assert truncation_stable(obs, m2, m3)


def test_growing_membrane_hangs_below_its_line(lat11):
    # the membrane of an n-step +x line is the curtain below that walked line
    for n in (1, 2, 3):
        line = path_from_steps((0, 0, 2), parse_steps("X+" * n))
        curtain = pauli_from_keys(lat11, x_keys=reference_curtain_edges(lat11, list(line.edges)))
        assert growing_membrane_pauli(lat11, (0, 0, 2), n) == curtain


def test_truncation_stability_negative_control(lat11):
    # an observable sitting exactly on the frontier edge where the longer
    # string continues is allowed to disagree
    s2 = straight_string_pauli(lat11, (0, 0, 1), 2)
    s3 = straight_string_pauli(lat11, (0, 0, 1), 3)
    frontier = pauli_from_keys(lat11, x_keys=[((0, 0, -2), Z)])
    assert conjugation_sign(s2, frontier) != conjugation_sign(s3, frontier)
    assert not truncation_stable(frontier, s2, s3)


def test_configuration_flip_energy_agreement(rng, lat13):
    region = region_of((0, 0, 0), (4, 4, 4))
    clip = region.inflate(2)
    u = spec_from_strings("Z+", "X+X+", "Z-", base=(1, 2, 3))
    loop = path_from_steps((1, 1, 1), parse_steps("X+Y+X-Y-"))
    cfg = make_configuration(charges=[(2, 2, 2), (0, 0, 0)], strings=[u], loops=[loop])
    flip = configuration_flip(lat13, cfg, region, clip)
    assert syndrome_energy(lat13, flip, region) == energy(cfg, region).total


@pytest.mark.parametrize("n", range(1, 10))
def test_block_matches_reference_construction(n):
    lat = FiniteLattice(n)
    vertices, interior, boundary, faces = reference_block(n)
    assert lat.vertices == vertices
    assert lat.interior_edges == interior
    assert lat.boundary_edges == boundary
    assert lat.qubits == interior + boundary
    assert lat.faces == faces


@pytest.mark.parametrize("n", range(1, 8))
def test_block_membership_in_closed_form(n):
    """On the block's box widened by 3, ``pauli_from_keys`` accepts exactly
    the reference block's qubits, each as its own code, and ``star``
    exactly its vertices; the qubit codes are distinct, each its axis mod 3."""
    lat = FiniteLattice(n)
    ref_vertices, interior, boundary, _ = reference_block(n)
    keys = interior + boundary
    qubits, vertices = set(keys), set(ref_vertices)
    box = range(lat.lo[0] - 3, lat.hi[0] + 4)
    for v in product(box, box, box):
        for axis in range(3):
            key = (v, axis)
            if key in qubits:
                assert reference_codes(pauli_from_keys(lat, x_keys=[key]).x) == {lat.code(key)}
            else:
                with pytest.raises(OutOfRegion, match=re.escape(f"edge {key} is outside the lattice block")):
                    pauli_from_keys(lat, z_keys=[key])
        if v in vertices:
            assert star(lat, v).x_weight == 6
        else:
            with pytest.raises(OutOfRegion, match=re.escape(f"vertex {v} is outside the lattice block")):
                star(lat, v)
    codes = [lat.code(key) for key in keys]
    assert len(set(codes)) == len(codes)
    assert all(c % 3 == axis for c, (_, axis) in zip(codes, keys))


_LISTS = ("vertices", "interior_edges", "boundary_edges", "qubits")


@pytest.mark.parametrize("n", [13, 21, 33])
def test_block_builds_nothing_up_front(n):
    """A block keeps only its bounds: building it, and building and reading
    a configuration's flip on it, lists no vertex and no edge."""
    lat = FiniteLattice(n)
    assert not set(_LISTS) & set(vars(lat))
    region = region_of((0, 0, 0), (4, 4, 4))
    u = spec_from_strings("Z+", "X+X+", "Z-", base=(1, 2, 3))
    loop = path_from_steps((1, 1, 1), parse_steps("X+Y+X-Y-"))
    cfg = make_configuration(charges=[(2, 2, 2), (0, 0, 0)], strings=[u], loops=[loop])
    flip = configuration_flip(lat, cfg, region, region.inflate(2))
    assert syndrome_energy(lat, flip, region) == energy(cfg, region).total > 0
    assert not set(_LISTS) & set(vars(lat))


def test_verifier_scales_with_the_flip_not_the_block():
    """A string whose core climbs ``(X+Y+)^(h/2)`` and then ``Z+X-Z+``,
    tails ``Z+``, based at ``(0, 0, -h)``, and two charges, in the ``±h``
    cube on a block of side ``n ~ 4h``: the syndrome matches the energy, and
    the verifier allocates under 2 MiB at its peak, block included.  XOR-ing
    columns into block-wide ints peaked at 70 MiB at n = 401, counting every
    stabilizer of every flipped code at 38 MiB at n = 801, and a support
    listing every flipped code at 74 MiB at n = 1601."""
    rows = [(201, 306, 7065), (401, 606, 26615), (801, 1206, 103215), (1601, 2406, 406415)]
    for n, total, weight in rows:
        h = n // 4
        spec = spec_from_strings("Z+", "X+Y+" * (h // 2) + "Z+X-Z+", "Z+", base=(0, 0, -h))
        cfg = make_configuration(charges=[(2, 0, 2), (0, 2, 2)], strings=[spec])
        region = region_of((-h, -h, -h), (h, h, h))
        tracemalloc.start()
        try:
            lat = FiniteLattice(n)
            flip = configuration_flip(lat, cfg, region, region.inflate(2))
            syndrome = syndrome_energy(lat, flip, region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert syndrome == energy(cfg, region).total == total
        assert flip.x_weight + flip.z_weight == weight
        assert peak < 2 * 2**20


@pytest.mark.parametrize("n", range(1, 10))
def test_qubit_count_closed_form(n):
    lat = FiniteLattice(n)
    assert lat.n_qubits == len(lat.qubits)


def _energy_or_out_of_region(fn, lat, flip, region):
    try:
        return fn(lat, flip, region)
    except OutOfRegion:
        return OutOfRegion


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_syndrome_energy_matches_dense_reference(rng, n):
    """Sparse syndrome against the dense star/plaquette loop on every region
    with corners in [lo-3, hi+2] and sides up to n+2, including whether the
    region's plaquettes leave the block."""
    lat = FiniteLattice(n)
    bits = qubit_bits(lat)

    def random_bits(p):
        drawn = (rng.random(lat.n_qubits) < p).nonzero()[0].tolist()
        return frozenset(bits[lat.qubits[i]] for i in drawn)

    flips = [
        PauliOperator(reference_bounds(random_bits(p)), reference_bounds(random_bits(p)), lat.n_qubits)
        for p in (0.05, 0.2, 0.5)
    ]
    lo, hi = lat.lo[0] - 3, lat.hi[0] + 2
    sides = [(a, b) for a in range(lo, hi + 1) for b in range(a, min(hi, a + n + 1) + 1)]
    for k, (x, y, z) in enumerate(product(sides, repeat=3)):
        region = Region((x[0], y[0], z[0]), (x[1], y[1], z[1]))
        flip = flips[k % len(flips)]
        got = _energy_or_out_of_region(syndrome_energy, lat, flip, region)
        want = _energy_or_out_of_region(reference_syndrome_energy, lat, flip, region)
        assert got == want, region


@pytest.mark.parametrize("n", range(2, 7))
def test_syndrome_energy_at_column_ends(n):
    """Sparse syndrome against the dense reference on supports of whole block
    columns, whose z-runs end at the column floor and one past its ceiling,
    alone and with every cell at height ``lo - 1`` or ``hi + 1`` added: the
    odd stabilizers then sit at the lowest and highest grid heights, where a
    run read across a column boundary would be miscounted.  Every z-range
    with ends in [lo-3, hi+2] meets every support once, the x and y sides
    taking turns over three ranges at the block's edge."""
    rng = random.Random(n)
    lat = FiniteLattice(n)
    bits = qubit_bits(lat)
    lo, hi = lat.lo[0], lat.hi[0]
    columns: dict = {}
    for key, code in bits.items():
        (x, y, _), axis = key
        columns.setdefault((x, y, axis), set()).add(code)
    whole = [frozenset(c for (_, a), c in bits.items() if a == axis) for axis in range(3)]
    half = [
        frozenset().union(*(c for (_, _, a), c in columns.items() if a == axis and rng.random() < 0.5))
        for axis in range(3)
    ]
    layers = [frozenset(c for ((_, _, z), _), c in bits.items() if z == end) for end in (lo - 1, hi + 1)]
    flips = [
        PauliOperator(reference_bounds(s | layer), reference_bounds(s | layer), lat.n_qubits)
        for s in whole + half
        for layer in [frozenset()] + layers
    ]
    ends = range(lo - 3, hi + 3)
    sides = [(lo - 1, hi), (lo, hi - 1), (lo + 1, hi)]
    outcomes = set()
    for i, z in enumerate((a, b) for a in ends for b in ends if a <= b):
        for j, (x, y) in enumerate(product(sides, sides)):
            region = Region((x[0], y[0], z[0]), (x[1], y[1], z[1]))
            flip = flips[(i + j) % len(flips)]
            got = _energy_or_out_of_region(syndrome_energy, lat, flip, region)
            assert got == _energy_or_out_of_region(reference_syndrome_energy, lat, flip, region), region
            outcomes.add(got if got is OutOfRegion else got > 0)
    assert outcomes == {OutOfRegion, True, False}


def test_energy_law_side33_block(rng):
    """The energy law on a side-33 block: 40 configurations with up to two
    strings whose self-avoiding cores take up to 60 steps in a 13^3 region,
    plus loops and charges."""
    lat = FiniteLattice(33)
    region = region_of((0, 0, 0), (12, 12, 12))
    clip = region.inflate(2)
    checked = nonzero = 0
    for _ in range(40):
        strings = [
            random_spec(rng, base_lo=5, base_hi=7, max_core=60, lo=-5, hi=5, self_avoiding=True)
            for _ in range(int(rng.integers(0, 3)))
        ]
        loops = [random_loop(rng, lo=0, hi=12) for _ in range(int(rng.integers(0, 3)))]
        charges = [tuple(int(c) for c in rng.integers(0, 13, 3)) for _ in range(int(rng.integers(0, 3)))]
        cfg = make_configuration(charges=charges, strings=strings, loops=loops)
        try:
            flip = configuration_flip(lat, cfg, region, clip)
        except MultipleCrossings:
            continue
        expected = energy(cfg, region).total
        assert syndrome_energy(lat, flip, region) == expected
        checked += 1
        nonzero += expected > 0
    assert checked >= 35 and nonzero >= 20


# ---------------------------------------------------------------------------
# closed forms against the step-by-step references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 12))
def test_star_matrix_matches_rows_of_edges_of_vertex(n):
    lat = FiniteLattice(n)
    bits = qubit_bits(lat)
    rows = [_kernels.vector(bits[e.key] for e in edges_of_vertex(v)) for v in lat.vertices]
    assert lat.star_matrix == rows


@pytest.mark.parametrize("n", range(1, 7))
def test_face_matrix_matches_face_keys(n):
    lat = FiniteLattice(n)
    bits = qubit_bits(lat)
    rows = [_kernels.vector(bits[k] for k in face_keys(f)) for f in lat.faces]
    assert lat.face_matrix == rows


@pytest.mark.parametrize("n", [1, 2])
def test_are_nets_on_generators_matches_span_enumeration(n):
    lat = FiniteLattice(n)
    stars, faces = lat.star_matrix, lat.face_matrix
    assert _are_nets(stars, faces) and reference_are_nets(stars, faces)
    assert surface_net_checks(n).gauge_supports_are_nets
    # planted faults in the last star row (the first one too at n = 1): a bit
    # toggled on and off the star, or the whole row a single edge
    last = len(stars) - 1
    codes = sorted(qubit_bits(lat).values())
    own = [c for c in codes if stars[last] >> c & 1]
    for c in {*own, codes[0], codes[len(codes) // 2], codes[-1]}:
        for row in (stars[last] ^ 1 << c, 1 << c):
            planted = stars[:last] + [row]
            assert not _are_nets(planted, faces), (c, row == 1 << c)
            assert not reference_are_nets(planted, faces), (c, row == 1 << c)


def _random_dual_walk(rng, lo: int, hi: int):
    """Edges of a random walk (repeats allowed) from a vertex up to three
    steps outside the block's cube, so that it reaches the fringe, the floor
    and beyond."""
    v = tuple(int(c) for c in rng.integers(lo - 3, hi + 4, 3))
    edges = []
    for _ in range(int(rng.integers(1, 13))):
        edges.append(edge_from(v, DIRECTIONS[int(rng.integers(0, 6))]))
        v = boundary_edge(edges[-1])[1]
    return edges


@pytest.mark.parametrize("n", range(1, 10))
def test_curtain_edges_match_reference(rng, n):
    """The column-parity curtain against the edge-by-edge reference, on
    random walks and rectangle loops around the block, single and summed."""
    lat = FiniteLattice(n)
    lo, hi = lat.lo[0], lat.hi[0]
    fringe = set(lat.boundary_edges)
    reached = set()
    for case in range(80):
        paths = [
            _random_dual_walk(rng, lo, hi) if rng.random() < 0.6 else list(random_loop(rng, lo - 3, hi + 3).edges)
            for _ in range(int(rng.integers(1, 4)))
        ]
        edges = [e for path in paths for e in path]
        want = reference_curtain_edges(lat, edges)
        got = support_keys(lat, reference_codes(_curtain_edges(lat, edges)))
        assert got == want, (n, case, edges)
        reached |= {"fringe" for key in want if key in fringe}
        reached |= {"floor" for (_, _, z), _ in want if z == lo - 1}
        reached |= {"cancel" for e in edges if edges.count(e) > 1}
    assert reached == {"fringe", "floor", "cancel"}


@pytest.mark.parametrize("n", range(1, 10))
def test_charge_tails_match_reference(n):
    """Charge tails summed by column against the edge-by-edge drop, with
    charges around the block and repeated columns."""
    rng = random.Random(2000 + n)
    lat = FiniteLattice(n)
    lo, hi = lat.lo[0], lat.hi[0]
    reached = set()
    for case in range(80):
        charges = [tuple(rng.randint(lo - 2, hi + 2) for _ in range(3)) for _ in range(rng.randint(1, 6))]
        charges += [(x, y, rng.randint(lo - 2, hi + 2)) for x, y, _ in charges[: rng.randint(0, 2)]]
        want = reference_charge_tails(lat, charges)
        tops = [(x, y, 2, z - 1) for x, y, z in charges]
        got = support_keys(lat, reference_codes(_column_sum(lat, tops)))
        assert got == want, (n, case, charges)
        reached |= {"floor" for (_, _, z), _ in want if z == lo - 1}
        reached |= {"fringe" for (x, y, _), _ in want if not (lo <= x <= hi and lo <= y <= hi)}
    assert reached == {"fringe", "floor"}


def test_repeated_tops_cancel(lat9):
    """A loop or a charge given twice adds every column top twice, and the
    pairs cancel: no x support from the loops, no z support from the
    charges.  Three copies give the flip of one, and that flip matches the
    edge-by-edge references."""
    region = region_of((-2, -2, -2), (2, 2, 2))
    clip = region.inflate(2)
    loops = [
        path_from_steps((-1, -1, 1), parse_steps("X+X+Y+Y+X-X-Y-Y-")),
        path_from_steps((0, -1, -1), parse_steps("X+Z+Z+X-Z-Z-")),
        path_from_steps((-2, 0, 0), parse_steps("X+Y+X-Y-")),
    ]
    charges = [(0, 0, 1), (1, -1, 2), (-2, 2, -1)]
    twice = configuration_flip(lat9, make_configuration(charges=charges * 2, loops=loops * 2), region, clip)
    assert twice.x == twice.z == frozenset()
    once = configuration_flip(lat9, make_configuration(charges=charges, loops=loops), region, clip)
    thrice = configuration_flip(lat9, make_configuration(charges=charges * 3, loops=loops * 3), region, clip)
    assert thrice == once
    assert support_keys(lat9, reference_codes(once.x)) == reference_curtain_edges(
        lat9, [e for loop in loops for e in loop.edges]
    )
    assert support_keys(lat9, reference_codes(once.z)) == reference_charge_tails(lat9, charges)
    assert once.x and once.z


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plaquette_block_check_matches_reference(n):
    """The closed-form block test raises the reference's exception, message
    included, on every region of the dense syndrome test's grid."""
    lat = FiniteLattice(n)
    lo, hi = lat.lo[0] - 3, lat.hi[0] + 2
    sides = [(a, b) for a in range(lo, hi + 1) for b in range(a, min(hi, a + n + 1) + 1)]
    outcomes = set()
    for x, y, z in product(sides, repeat=3):
        region_lo, region_hi = (x[0], y[0], z[0]), (x[1], y[1], z[1])
        dual_hi = [tuple(c - (a == axis) for a, c in enumerate(region_hi)) for axis in range(3)]
        results = []
        for check in (_check_plaquettes_in_block, reference_check_plaquettes_in_block):
            try:
                check(lat, region_lo, dual_hi)
                results.append(None)
            except OutOfRegion as ex:
                results.append(str(ex))
        assert results[0] == results[1], (region_lo, region_hi)
        outcomes.add(results[0] is None)
    assert outcomes == {True, False}


def _crossing_or_message(spec, clip):
    try:
        return _crossing(spec, clip)
    except MultipleCrossings as ex:
        return str(ex)


def _reference_crossing_or_message(spec, clip):
    try:
        t_lo, t_end, _ = reference_segment_steps(spec, clip)
    except MultipleCrossings as ex:
        return str(ex)
    return spec.edges(t_lo, t_end - 1)


def test_crossing_matches_reference(rng):
    """The crossing read from one explicit edges window against the
    parameter-by-parameter reference, on random specs and boxes around,
    across and beside their cores."""
    outcomes = set()
    for _ in range(150):
        spec = random_spec(rng, max_core=10, max_period=3)
        for _ in range(6):
            lo = tuple(int(c) for c in rng.integers(-5, 3, 3))
            clip = Region(lo, tuple(c + int(rng.integers(0, 6)) for c in lo))
            got = _crossing_or_message(spec, clip)
            assert got == _reference_crossing_or_message(spec, clip), (spec, clip)
            outcomes.add(got if isinstance(got, str) else "one crossing")
    assert outcomes == {
        "one crossing",
        "path has no edge inside the region",
        "path crosses the region more than once",
        "path touches the region outside its crossing",
    }


def test_crossing_caps_its_window_like_the_tail_walk():
    # the Z+ tail from the origin needs top + 4 letters to pass a box that
    # reaches height top + 1, one past the cap: the same TooLarge as energy's
    line = spec_from_strings("Z+", "", "Z+")
    clip = region_of((1, 0, 0), (1, 0, MAX_TAIL_LETTERS - 2))
    with pytest.raises(TooLarge) as flip_error:
        _crossing(line, clip)
    with pytest.raises(TooLarge) as walk_error:
        energy(make_configuration(strings=[line]), clip)
    assert str(flip_error.value) == str(walk_error.value)


def test_configuration_flip_shares_no_tail_walk(rng, lat13, monkeypatch):
    """With the tail walk that energy reads disabled, the flip is still
    built, and its syndrome still matches the energy computed before."""
    region = region_of((0, 0, 0), (4, 4, 4))
    clip = region.inflate(2)
    u = spec_from_strings("Z+", "X+X+", "Z-", base=(1, 2, 3))
    loop = path_from_steps((1, 1, 1), parse_steps("X+Y+X-Y-"))
    cfgs = [make_configuration(charges=[(2, 2, 2), (0, 0, 0)], strings=[u], loops=[loop])]
    while len(cfgs) < 30:
        strings = [
            random_spec(rng, base_lo=1, base_hi=3, max_core=12, lo=-2, hi=2, self_avoiding=True)
            for _ in range(int(rng.integers(1, 3)))
        ]
        loops = [random_loop(rng, lo=0, hi=4) for _ in range(int(rng.integers(0, 2)))]
        charges = [tuple(int(c) for c in rng.integers(0, 5, 3)) for _ in range(int(rng.integers(0, 3)))]
        cfg = make_configuration(charges=charges, strings=strings, loops=loops)
        try:
            configuration_flip(lat13, cfg, region, clip)
        except MultipleCrossings:
            continue
        cfgs.append(cfg)
    energies = [energy(cfg, region).total for cfg in cfgs]

    def no_walk(self, region):
        raise AssertionError("edges_in called")

    monkeypatch.setattr(InfinitePathSpec, "edges_in", no_walk)
    with pytest.raises(AssertionError, match="edges_in called"):
        energy(cfgs[0], region)
    syndromes = [syndrome_energy(lat13, configuration_flip(lat13, cfg, region, clip), region) for cfg in cfgs]
    assert syndromes == energies
    assert sum(e > 0 for e in energies) >= 15
