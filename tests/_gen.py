"""Shared oracles and random generators for the test suite.

Oracles here stay deliberately naive: breadth-first search on the explicit
region graph, brute-force truncation walks, and direct step tallies.  They
never call the production code paths they are used to check.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache, reduce

from itertools import compress, product, repeat
from operator import xor
from typing import NamedTuple

from toric3d import _kernels
from toric3d.errors import (
    AlreadyMonotonicInRegion,
    DimensionMismatch,
    MalformedBoundary,
    MultipleCrossings,
    OutOfRegion,
    SelfIntersecting,
)
from toric3d.lattice import (
    AXES,
    Edge,
    Face,
    Region,
    Vertex,
    add,
    boundary_edge,
    bounding_region,
    direction_vector,
    edge_from,
    edges_of_vertex,
    face_keys,
    primal_face_of_edge,
    reverse_direction,
    scale,
    sub,
    unit,
)
from toric3d.paths import (
    FinitePath,
    InfinitePathSpec,
    Surface,
    _check_tail_cap,
    _cumulative,
    _escape_axis,
    _extent,
    _periods,
    _primitive,
    _word_displacement,
    is_monotonic,
    monotone_staircase,
    path_from_steps,
    validate_finite_path,
    word_is_monotone,
    word_is_self_avoiding,
)
from toric3d.sectors import _octahedral_tables
from toric3d.stabilizer import pauli_from_keys

DIRS6 = [(a, s) for a in AXES for s in (+1, -1)]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def face_edges(f: Face) -> tuple[Edge, Edge, Edge, Edge]:
    """The four boundary edges of ``f``, ordered as a closed walk, built as
    ``Edge`` records: the reference for ``lattice.face_keys``."""
    a1, a2 = [a for a in AXES if a != f.normal]
    b = f.base
    return (
        Edge(b, a1, +1),
        Edge(add(b, unit(a1)), a2, +1),
        Edge(add(b, unit(a2)), a1, -1),
        Edge(b, a2, -1),
    )


def primal_edge_of_face(f: Face) -> Edge:
    """Primal edge piercing a dual face (inverse of ``dual_face_of_edge``)."""
    return Edge(sub(add(f.base, (1, 1, 1)), unit(f.normal)), f.normal)


def dual_edge_of_face(f: Face) -> Edge:
    """Dual edge piercing a primal face (inverse of ``primal_face_of_edge``)."""
    return Edge(sub(f.base, unit(f.normal)), f.normal)


def region_vertices(box: Region):
    """Every vertex of ``box``, in lexicographic order."""
    return product(*(range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)))


def string_op(lat, path: FinitePath):
    """Z-type operator along a primal path."""
    return pauli_from_keys(lat, z_keys=[e.key for e in path.edges])


def membrane_op(lat, faces):
    """X-type operator on the primal edges piercing a set of dual faces."""
    return pauli_from_keys(lat, x_keys=[primal_edge_of_face(f).key for f in faces])


def bfs_distance(region: Region, a, b) -> int:
    """Shortest path length between two vertices of the region graph."""
    if not (region.contains_vertex(a) and region.contains_vertex(b)):
        raise ValueError("endpoints must lie in the region")
    seen = {tuple(a): 0}
    queue = deque([tuple(a)])
    while queue:
        v = queue.popleft()
        if v == tuple(b):
            return seen[v]
        for d in DIRS6:
            w = add(v, direction_vector(d))
            if region.contains_vertex(w) and w not in seen:
                seen[w] = seen[v] + 1
                queue.append(w)
    raise ValueError("region graph disconnected (impossible for a cuboid)")


def edges_in_region(region: Region) -> list[Edge]:
    """All canonical edges with both endpoints inside ``region``."""
    out = []
    for a in AXES:
        hi = list(region.hi)
        hi[a] -= 1
        if hi[a] < region.lo[a]:
            continue
        for base in region_vertices(Region(region.lo, tuple(hi))):
            out.append(Edge(base, a, +1))
    return out


def brute_count_edges(spec: InfinitePathSpec, region: Region, window: int) -> int:
    """Count in-region edges by realizing a big truncation step by step."""
    count = 0
    v = spec.vertex(-window)
    for t in range(-window, window + 1):
        w = add(v, direction_vector(spec.step(t)))
        if region.contains_vertex(v) and region.contains_vertex(w):
            count += 1
        v = w
    return count


def raw_step_tally_is_monotone(spec: InfinitePathSpec, window: int = 60) -> bool:
    """Monotonicity decided from the realized truncation only."""
    signs = {}
    for t in range(-window, window + 1):
        a, s = spec.step(t)
        if signs.setdefault(a, s) != s:
            return False
    return True


def chain_xor_check(chains: list[set], target: set) -> bool:
    """F2 sum of edge-key chains computed with the bitset kernels."""
    index = {}
    for ch in chains + [target]:
        for k in ch:
            index.setdefault(k, len(index))
    acc = 0
    for ch in chains:
        acc ^= _kernels.vector(index[k] for k in ch)
    return acc == _kernels.vector(index[k] for k in target)


def reference_solve(rows, target: int) -> int | None:
    """Coefficients ``c`` with ``c . rows = target``, or None.

    ``target`` is eliminated as one more row: it is a combination of the
    others exactly when it reduces to zero, and its kernel vector then holds
    that combination plus its own bit.
    """
    rows = list(rows)
    _, kernel = _kernels.eliminate(rows + [target])
    own = 1 << len(rows)
    if kernel and kernel[-1] & own:
        return kernel[-1] ^ own
    return None


def fill_cycle(boundary_keys: set, box: Region):
    """A set of dual faces inside ``box`` whose boundary is the given chain,
    found by solving the face-boundary linear system over F2."""
    faces = []
    for normal in AXES:
        a1, a2 = [a for a in AXES if a != normal]
        for base in region_vertices(box):
            f = Face(base, normal)
            if all(box.contains_vertex(v) for v in
                   [base, add(base, unit(a1)), add(base, unit(a2)),
                    add(add(base, unit(a1)), unit(a2))]):
                faces.append(f)
    edge_index = {}
    rows = []
    for f in faces:
        idx = []
        for e in face_edges(f):
            idx.append(edge_index.setdefault(e.key, len(edge_index)))
        rows.append(idx)
    for k in boundary_keys:
        if k not in edge_index:
            return None
    matrix = [_kernels.vector(idx) for idx in rows]
    target = _kernels.vector(edge_index[k] for k in boundary_keys)
    combo = reference_solve(matrix, target)
    if combo is None:
        return None
    return [f for i, f in enumerate(faces) if combo >> i & 1]


@lru_cache(maxsize=None)
def reference_block(n: int):
    """Vertices, sorted interior edges, sorted fringe edges and sorted faces
    of the side-``n`` block, collected by walking every vertex's edges and
    faces (the dict-of-tuples construction the closed form replaced).
    Cached per side; callers must not mutate the lists."""
    lo = -(n // 2)
    vertices = list(product(range(lo, lo + n), range(lo, lo + n), range(lo, lo + n)))
    interior = {}
    for v in vertices:
        for e in edges_of_vertex(v):
            interior.setdefault(e.key, None)
    faces = {}
    for v in vertices:
        for normal in AXES:
            a1, a2 = [a for a in AXES if a != normal]
            for da, db in product((0, -1), (0, -1)):
                base = add(add(v, tuple(da * c for c in unit(a1))), tuple(db * c for c in unit(a2)))
                faces.setdefault(Face(base, normal), None)
    boundary = {}
    for f in faces:
        for e in face_edges(f):
            if e.key not in interior:
                boundary.setdefault(e.key, None)
    return vertices, sorted(interior), sorted(boundary), sorted(faces)


@lru_cache(maxsize=8)
def qubit_bits(lat) -> dict:
    """Each qubit key of the block, with its code ``lat.code(key)``: the
    qubit in a Pauli support, its bit in an elimination row.  The
    references read block membership from ``reference_block(lat.n)``, never
    from the closed-form column ranges nor from the lists the block builds
    from them, and take only the code itself from ``lat``.  Cached per
    lattice, because the dense references call it once per region; callers
    must not mutate it."""
    _, interior, boundary, _ = reference_block(lat.n)
    return {key: lat.code(key) for key in interior + boundary}


@lru_cache(maxsize=16)
def reference_vertices(n: int) -> frozenset:
    """The side-``n`` block's vertices, from ``reference_block``."""
    return frozenset(reference_block(n)[0])


def support_keys(lat, codes) -> set:
    """The qubit keys of the cell ``codes``; a code that no qubit of the
    block holds raises KeyError."""
    key_of = {c: k for k, c in qubit_bits(lat).items()}
    return {key_of[c] for c in codes}


def reference_bounds(codes) -> frozenset:
    """The run bounds ``S ^ (S + 3)`` of the support ``S = codes``: the
    representation a ``PauliOperator`` holds."""
    codes = frozenset(codes)
    return codes ^ frozenset(c + 3 for c in codes)


@lru_cache(maxsize=64)
def reference_codes(bounds: frozenset) -> frozenset:
    """The support whose run bounds are ``bounds``, by prefix parity: walk
    every code of each residue mod 3 from its lowest bound to its highest,
    toggling membership at each bound.  A column holds an even number of
    bounds, so the parity is back to 0 between columns.  Cached, because
    the dense references read the same flip once per region."""
    codes = set()
    for r in range(3):
        points = sorted(b for b in bounds if b % 3 == r)
        inside = False
        for c in range(points[0], points[-1], 3) if points else ():
            inside ^= c in bounds
            if inside:
                codes.add(c)
    return frozenset(codes)


def reference_syndrome_energy(lat, flip, region: Region) -> int:
    """2 x stabilizers in ``region`` anticommuting with ``flip``, testing every
    star and plaquette of the region one edge at a time."""
    if flip.n_qubits != lat.n_qubits:
        raise DimensionMismatch("flip built on a different lattice")
    bits, vertices = qubit_bits(lat), reference_vertices(lat.n)
    x, z = reference_codes(flip.x), reference_codes(flip.z)
    violated = 0
    for v in region_vertices(region):
        if v not in vertices:
            continue
        parity = 0
        for e in edges_of_vertex(v):
            parity ^= bits[e.key] in z
        violated += parity
    for axis in AXES:
        hi = list(region.hi)
        hi[axis] -= 1
        if hi[axis] < region.lo[axis]:
            continue
        for base in region_vertices(Region(region.lo, tuple(hi))):
            f = primal_face_of_edge(Edge(base, axis))
            parity = 0
            ok = True
            for e in face_edges(f):
                idx = bits.get(e.key)
                if idx is None:
                    ok = False
                    break
                parity ^= idx in x
            if not ok:
                raise OutOfRegion(f"plaquette {f} extends outside the lattice block")
            violated += parity
    return 2 * violated


# The corner test and the step-by-step curtain that ``stabilizer`` replaced
# with closed forms over the block's bounds: the references for them.


def reference_check_plaquettes_in_block(lat, lo: Vertex, dual_hi: list[Vertex]) -> None:
    """Raise ``OutOfRegion`` unless every plaquette of the region lies in the
    block; its dual edges along ``axis`` have bases from ``lo`` to
    ``dual_hi[axis]``.  The faces whose four edges lie in the block form the
    union of two boxes, so a box of faces lies in it exactly when its corners
    do: at most eight faces per axis are tested."""
    bits = qubit_bits(lat)
    for axis, hi in enumerate(dual_hi):
        if hi[axis] < lo[axis]:
            continue
        for base in product(*({lo[a], hi[a]} for a in AXES)):
            f = primal_face_of_edge(Edge(base, axis))
            if any(e.key not in bits for e in face_edges(f)):
                raise OutOfRegion(f"plaquette {f} extends outside the lattice block")


def reference_curtain_edges(lat, dual_edges) -> set:
    """Primal edges piercing the vertical dual faces that hang below the
    horizontal edges of a dual path, clipped at the block's lower fringe.
    The membrane's boundary is the path itself plus descender and floor junk
    near the block frontier."""
    bits = qubit_bits(lat)
    keys: set = set()
    for e in dual_edges:
        if e.axis == 2:
            continue
        other = 1 - e.axis  # normal of the hanging face
        # the primal edge of the face based one step below e, then downwards
        x, y, z = e.base
        if other == 0:
            y += 1
        else:
            x += 1
        key = ((x, y, z), other)
        while key in bits:
            keys ^= {key}
            z -= 1
            key = ((x, y, z), other)
    return keys



def reference_charge_tails(lat, charges) -> set:
    """The z-flips of charge tails dropped straight down from each charge to
    the block's floor, edge by edge."""
    bits = qubit_bits(lat)
    z_chain: set = set()
    for x, y, z in charges:
        key = ((x, y, z - 1), 2)
        while key in bits:
            z_chain ^= {key}
            z -= 1
            key = ((x, y, z - 1), 2)
    return z_chain

# Three period-by-period tail walks, each rebuilding ``spec.vertex(t)`` and an
# ``Edge`` per step, and the listing that read every tail letter's vertex and
# edge periods: the references for ``InfinitePathSpec.edges_in``.


def reference_walk_in(spec: InfinitePathSpec, region: Region) -> list:
    """``(t, key)`` for every walked parameter ``t`` with ``vertex(t)`` in
    ``region``; ``key`` is edge ``t``'s key when both its endpoints lie in
    ``region``, else None.  Lists every core edge from ``core_keys`` when
    ``region`` contains ``core_box``, else scans ``core_vertices`` for the
    ones inside; then lists each tail letter's vertex periods, and the edge
    periods among them, from ``paths._periods``."""
    if region.contains_region(spec.core_box):
        hits = list(enumerate(spec.core_keys))
    else:
        inside = spec._inside(region)
        hits = [
            (t, key if nxt else None)
            for t, (key, here, nxt) in enumerate(zip(spec.core_keys, inside, inside[1:]))
            if here
        ]
    for tail in spec._tails:
        _check_tail_cap(tail, region)
        dx, dy, dz = disp = tail.disp
        for t, dt, v, lo, hi, a in tail.letters:
            qs = _periods(v, v, disp, region)
            if qs:
                ks = _periods(lo, hi, disp, region)
                x, y, z = lo
                hits += [
                    (t + q * dt, ((x + q * dx, y + q * dy, z + q * dz), a) if q in ks else None)
                    for q in qs
                ]
    return hits


def reference_count_edges_in_region(spec: InfinitePathSpec, region: Region) -> int:
    """Exact number of realized edges with both endpoints inside ``region``."""
    count = 0
    nc = len(spec.core)
    v = spec.base
    for t in range(nc):
        w = add(v, direction_vector(spec.step(t)))
        if region.contains_vertex(v) and region.contains_vertex(w):
            count += 1
        v = w

    def walk_tail(start_t, direction):
        nonlocal count
        disp = spec.pos_displacement if direction > 0 else spec.neg_displacement
        axis = _escape_axis(disp)
        period = len(spec.pos_period) if direction > 0 else len(spec.neg_period)
        t0 = start_t
        while True:
            window = []
            for i in range(period):
                t = t0 + i if direction > 0 else t0 - i
                a = spec.vertex(t) if direction > 0 else spec.vertex(t - 1)
                b = spec.vertex(t + 1) if direction > 0 else spec.vertex(t)
                window.extend((a, b))
                if region.contains_vertex(a) and region.contains_vertex(b):
                    count += 1
            coords = [w[axis] for w in window]
            if disp[axis] > 0 and min(coords) > region.hi[axis]:
                return
            if disp[axis] < 0 and max(coords) < region.lo[axis]:
                return
            t0 += period * direction

    walk_tail(nc, +1)
    walk_tail(0, -1)
    return count


def flux_chain_in_region(cfg, region: Region) -> set:
    """Mod-2 sum of all flux edges inside ``region`` (shared edges cancel),
    as one set XOR per string and loop: the reference for
    ``transforms.energy``'s flux count."""
    chain: set = set()
    for spec in cfg.strings:
        chain ^= {key for _, key in reference_walk_in(spec, region) if key is not None}
    for loop in cfg.loops:
        chain ^= {e.key for e in loop.edges if region.contains_edge(e)}
    return chain


def reference_string_edges_in_region(spec: InfinitePathSpec, region: Region) -> list[Edge]:
    """Realized edges of ``spec`` with both endpoints inside ``region``."""
    out: list[Edge] = []
    nc = len(spec.core)
    v = spec.base
    for t in range(nc):
        e = edge_from(v, spec.step(t))
        if region.contains_edge(e):
            out.append(e)
        v = boundary_edge(e)[1]

    def walk(start_t, direction):
        disp = spec.pos_displacement if direction > 0 else spec.neg_displacement
        axis = max(AXES, key=lambda a: abs(disp[a]))
        period = len(spec.pos_period) if direction > 0 else len(spec.neg_period)
        t0 = start_t
        while True:
            coords = []
            for i in range(period):
                t = t0 + i * direction
                te = t if direction > 0 else t - 1
                e = edge_from(spec.vertex(te), spec.step(te))
                a, b = boundary_edge(e)
                coords.extend((a[axis], b[axis]))
                if region.contains_edge(e):
                    out.append(e)
            if disp[axis] > 0 and min(coords) > region.hi[axis]:
                return
            if disp[axis] < 0 and max(coords) < region.lo[axis]:
                return
            t0 += period * direction

    walk(nc, +1)
    walk(0, -1)
    return out


def reference_region_params(spec: InfinitePathSpec, region: Region):
    """Parameters of in-region edges plus parameters of in-region vertices."""
    edge_ts: list[int] = []
    vertex_ts: list[int] = []
    nc = len(spec.core)

    def scan(t):
        e = edge_from(spec.vertex(t), spec.step(t))
        if region.contains_edge(e):
            edge_ts.append(t)
        if region.contains_vertex(spec.vertex(t)):
            vertex_ts.append(t)

    for t in range(nc):
        scan(t)

    def walk(start_t, direction):
        disp = spec.pos_displacement if direction > 0 else spec.neg_displacement
        axis = max(AXES, key=lambda a: abs(disp[a]))
        period = len(spec.pos_period) if direction > 0 else len(spec.neg_period)
        t0 = start_t
        while True:
            coords = []
            for i in range(period):
                t = (t0 + i * direction) if direction > 0 else (t0 - 1 - i)
                scan(t)
                a, b = boundary_edge(edge_from(spec.vertex(t), spec.step(t)))
                coords.extend((a[axis], b[axis]))
            if disp[axis] > 0 and min(coords) > region.hi[axis]:
                return
            if disp[axis] < 0 and max(coords) < region.lo[axis]:
                return
            t0 += period * direction

    walk(nc, +1)
    walk(0, -1)
    return sorted(edge_ts), sorted(vertex_ts)


def reference_segment_steps(spec: InfinitePathSpec, region: Region):
    """The single in-region stretch from the sorted parameter lists, or raise
    MultipleCrossings: the reference for ``transforms._segment_steps``."""
    edge_ts, vertex_ts = reference_region_params(spec, region)
    if not edge_ts:
        raise MultipleCrossings("path has no edge inside the region")
    t_lo, t_hi = edge_ts[0], edge_ts[-1]
    if edge_ts != list(range(t_lo, t_hi + 1)):
        raise MultipleCrossings("path crosses the region more than once")
    if any(t < t_lo or t > t_hi + 1 for t in vertex_ts):
        raise MultipleCrossings("path touches the region outside its crossing")
    return t_lo, t_hi + 1, tuple(spec.step(t) for t in range(t_lo, t_hi + 1))


def reference_tail_rays(spec: InfinitePathSpec, window: Region, length: int):
    """(anchor, outward edge keys) for the positive and negative ray.

    Each tail is stepped with ``spec.vertex(t)`` out to the window plus the
    period's extent; the rays of :func:`reference_path_equivalent`."""

    def touched(t):
        return window.contains_vertex(spec.vertex(t)) or window.contains_vertex(
            spec.vertex(t + 1)
        )

    nc = len(spec.core)
    axis_p = _escape_axis(spec.pos_displacement)
    bound_p = _extent_bound(spec, +1)
    t = nc
    last_in = None
    while True:
        if touched(t):
            last_in = t
        vp = spec.vertex(t)
        if (
            spec.pos_displacement[axis_p] > 0
            and vp[axis_p] > window.hi[axis_p] + bound_p
        ) or (
            spec.pos_displacement[axis_p] < 0
            and vp[axis_p] < window.lo[axis_p] - bound_p
        ):
            break
        t += 1
    exit_pos = (last_in if last_in is not None else nc - 1) + 1
    pos_anchor = spec.vertex(exit_pos)
    pos_keys = tuple(e.key for e in spec.edges(exit_pos, exit_pos + length - 1))

    axis_n = _escape_axis(spec.neg_displacement)
    bound_n = _extent_bound(spec, -1)
    t = -1
    last_in = None
    while True:
        if touched(t):
            last_in = t
        vn = spec.vertex(t)
        if (
            spec.neg_displacement[axis_n] > 0
            and vn[axis_n] > window.hi[axis_n] + bound_n
        ) or (
            spec.neg_displacement[axis_n] < 0
            and vn[axis_n] < window.lo[axis_n] - bound_n
        ):
            break
        t -= 1
    exit_neg = (last_in if last_in is not None else 0) - 1
    neg_anchor = spec.vertex(exit_neg + 1)
    neg_keys = tuple(
        e.key for e in reversed(spec.edges(exit_neg - length + 1, exit_neg))
    )
    return (pos_anchor, pos_keys), (neg_anchor, neg_keys)


def _extent_bound(spec: InfinitePathSpec, side: int) -> int:
    word = spec.pos_period if side > 0 else spec.neg_period
    cum = _cumulative(word)
    return max(_extent(cum, a) for a in AXES) + 1


def reference_path_equivalent(p: InfinitePathSpec, q: InfinitePathSpec) -> bool:
    """Path equivalence by comparing rays: outside a window holding both
    cores with a margin of every period's length, each tail is an exact
    periodic ray, and the specs are equivalent when the four rays pair up,
    straight or flipped, with equal anchors and equal keys for twice every
    period's length plus four edges.  The reference for
    ``paths.path_equivalent``."""
    if p == q:
        return True
    periods = len(p.neg_period) + len(p.pos_period) + len(q.neg_period) + len(q.pos_period)
    window = bounding_region(v for s in (p, q) for v in s.core_vertices).inflate(periods + 1)
    length = 2 * periods + 4
    p_pos, p_neg = reference_tail_rays(p, window, length)
    q_pos, q_neg = reference_tail_rays(q, window, length)
    return (p_pos == q_pos and p_neg == q_neg) or (p_pos == q_neg and p_neg == q_pos)


def unchecked_spec(neg, core, pos, base) -> InfinitePathSpec:
    """An ``InfinitePathSpec`` built without running its validation."""
    return tuple.__new__(InfinitePathSpec, (neg, core, pos, base))


def _parallel_factor(u: Vertex, v: Vertex) -> int | None:
    """q with v == q*u, or None if v is not an integer multiple of u."""
    q = None
    for a in AXES:
        if u[a] == 0:
            if v[a] != 0:
                return None
        else:
            if v[a] % u[a] != 0:
                return None
            qa = v[a] // u[a]
            if q is None:
                q = qa
            elif q != qa:
                return None
    return q


def reference_validate_spec(spec: InfinitePathSpec) -> None:
    """Spec validation whose certified-truncation walk builds an ``Edge`` per
    step: the reference for the key-tuple walk in ``paths._validate_spec``."""
    if not spec.neg_period or not spec.pos_period:
        raise SelfIntersecting("period words must be nonempty")
    dpos = _word_displacement(spec.pos_period)
    dneg_out = scale(_word_displacement(spec.neg_period), -1)
    if dpos == (0, 0, 0) or dneg_out == (0, 0, 0):
        raise SelfIntersecting("period word has zero net displacement")

    nc = len(spec.core)
    nn, npp = len(spec.neg_period), len(spec.pos_period)

    # window vertex sets of the first tail period on each side
    base = tuple(spec.base)
    core_cum = _cumulative(spec.core)
    junction = add(base, core_cum[-1])
    w_pos = _cumulative(spec.pos_period)
    w_pos = [add(junction, v) for v in w_pos]
    w_neg = []
    v = base
    for d in reversed(spec.neg_period):
        v = sub(v, direction_vector(d))
        w_neg.append(v)
    w_neg = [base] + w_neg
    core_vs = [add(base, v) for v in core_cum]

    def _windows_needed(disp, window, other_vertices):
        axis = _escape_axis(disp)
        step = abs(disp[axis])
        ext = _extent(window, axis)
        self_bound = ext // step + 1
        span = _extent(window + list(other_vertices), axis)
        core_bound = span // step + 1
        return max(self_bound, core_bound)

    k_pos = _windows_needed(dpos, w_pos, core_vs + w_neg)
    k_neg = _windows_needed(dneg_out, w_neg, core_vs + w_pos)

    u_pos, g_pos = _primitive(dpos)
    q = _parallel_factor(u_pos, dneg_out)
    if q is None:
        # independent tail headings: Cramer bound over a nonsingular axis pair
        best = None
        for a in AXES:
            for b in AXES:
                if a < b:
                    det = dpos[a] * dneg_out[b] - dpos[b] * dneg_out[a]
                    if det != 0:
                        best = (a, b, det)
        a, b, det = best
        all_vs = core_vs + w_pos + w_neg
        ra = _extent(all_vs, a) + 2
        rb = _extent(all_vs, b) + 2
        jmax = (ra * abs(dneg_out[b]) + rb * abs(dneg_out[a])) // abs(det) + 1
        kmax = (ra * abs(dpos[b]) + rb * abs(dpos[a])) // abs(det) + 1
        k_pos = max(k_pos, jmax)
        k_neg = max(k_neg, kmax)
    elif q < 0:
        # tails head opposite ways along a common line: bounded interaction
        axis = _escape_axis(u_pos)
        span = _extent(core_vs + w_pos + w_neg, axis) + 2
        bound = span // min(abs(dpos[axis]), abs(dneg_out[axis])) + 1
        k_pos = max(k_pos, bound)
        k_neg = max(k_neg, bound)
    else:
        # Same heading: exact periodic overlap test on the far tails.
        # A collision of window copies depends only on m = j*p - k*q (in
        # units of the primitive vector u), and every multiple of gcd(p, q)
        # is realized arbitrarily far out, so any hit is a genuine
        # self-intersection.
        g = math.gcd(g_pos, q)
        axis = _escape_axis(u_pos)
        span = (
            _extent(w_pos, axis)
            + _extent(w_neg, axis)
            + abs(junction[axis] - base[axis])
            + 2
        )
        m_max = span // abs(u_pos[axis]) + 1
        neg_set = set(w_neg)
        for m in range(-m_max, m_max + 1):
            if m % g != 0:
                continue
            shift = scale(u_pos, m)
            if any(add(w, shift) in neg_set for w in w_pos):
                raise SelfIntersecting("tail windows collide on a shared line")

    k_pos = max(3, k_pos) + 1
    k_neg = max(3, k_neg) + 1

    # walk the certified truncation once, checking vertex/edge distinctness
    lo = -k_neg * nn
    hi = nc + k_pos * npp - 1
    cur = spec.vertex(lo)
    keys = set()
    seen_v = {cur}
    for t in range(lo, hi + 1):
        e = edge_from(cur, spec.step(t))
        if e.key in keys:
            raise SelfIntersecting(f"edge revisited at parameter {t}")
        keys.add(e.key)
        cur = boundary_edge(e)[1]
        if cur in seen_v:
            raise SelfIntersecting(f"vertex revisited at parameter {t}")
        seen_v.add(cur)


# The straightening helpers before they worked on bare step words: the
# projection and lift, and the references for
# ``transforms._reroute_single_bad_axis`` and the run search of
# ``transforms._case_three``.


def _naive_bad_axes(steps):
    return [a for a in AXES if {s for b, s in steps if b == a} == {1, -1}]


class EndpointMismatch(ValueError):
    """A rerouted projection does not connect the original endpoints."""


class Projection(NamedTuple):
    """In-plane shadow of a path: the steps along ``drop_axis`` removed.

    ``dropped`` records ``(original_index, direction)`` for each removed step.
    """

    start: Vertex
    steps: tuple
    drop_axis: int
    dropped: tuple

    @property
    def displacement(self) -> Vertex:
        return _word_displacement(self.steps)


def project(path: FinitePath, nu: int) -> Projection:
    """Drop all steps along axis ``nu``, keeping order and a drop record."""
    kept, dropped = [], []
    for i, d in enumerate(path.steps):
        if d[0] == nu:
            dropped.append((i, d))
        else:
            kept.append(d)
    return Projection(path.start, tuple(kept), nu, tuple(dropped))


def lift(original: FinitePath, rerouted: Projection) -> FinitePath:
    """Reinsert dropped steps into a rerouted projection.

    The ``k``-th dropped step goes back after the first ``index - k``
    rerouted steps, the in-plane steps it originally followed (all of them
    if fewer; nondecreasing in ``k``).  The result starts at the original
    start vertex and ends at its original end.
    """
    nu = rerouted.drop_axis
    if project(original, nu).displacement != _word_displacement(d for d in rerouted.steps if d[0] != nu):
        raise EndpointMismatch("rerouted projection does not match the original shadow")
    steps, merged, done = rerouted.steps, [], 0
    for k, (i, d) in enumerate(rerouted.dropped):
        merged += steps[done : i - k]
        merged.append(d)
        done = i - k
    return path_from_steps(original.start, (*merged, *steps[done:]))


def reference_reroute_single_bad_axis(start, steps):
    """Monotone replacement for a stretch that oscillates along one axis only."""
    used = {d[0] for d in steps}
    end = start
    for d in steps:
        end = add(end, direction_vector(d))
    if len(used) <= 2:
        # in-plane: a direct monotone reroute between the endpoints
        return monotone_staircase(start, end)
    bad = _naive_bad_axes(steps)[0]
    # drop a monotone axis, straighten the shadow, then lift the dropped steps
    counts = {a: 0 for a in used if a != bad}
    for a, _ in steps:
        if a in counts:
            counts[a] += 1
    nu = max(sorted(counts), key=lambda a: counts[a])
    path = path_from_steps(start, steps)
    proj = project(path, nu)
    shadow_end = add(proj.start, proj.displacement)
    rerouted = Projection(proj.start, monotone_staircase(proj.start, shadow_end), nu, proj.dropped)
    return tuple(lift(path, rerouted).steps)


def reference_single_bad_runs(steps):
    """For each start ``i``, the longest window ``steps[i:j]`` with exactly
    one two-signed axis, found by scanning every end ``j`` downward."""
    runs = []
    n = len(steps)
    for i in range(n):
        for j in range(n, i, -1):
            sub_bad = _naive_bad_axes(steps[i:j])
            if len(sub_bad) == 1:
                runs.append((j - i, i, j))
                break
    return runs


def reference_straighten_once(spec: InfinitePathSpec, region: Region) -> InfinitePathSpec:
    """One straightening pass inside ``region``; strictly lowers the in-region
    edge count and never changes edges outside the region."""
    from toric3d.paths import replace_window
    from toric3d.transforms import _bad_axes, _case_three, _reroute_single_bad_axis, _segment_steps

    t_lo, t_hi, steps = _segment_steps(spec, region)
    if word_is_monotone(steps):
        raise AlreadyMonotonicInRegion("segment is already monotone in the region")
    bad = _bad_axes(steps)
    if len(bad) == 1:
        new_steps = _reroute_single_bad_axis(steps)
    else:
        new_steps = _case_three(steps)
    if new_steps is None or len(new_steps) >= len(steps):
        # guaranteed progress: the whole-segment monotone reroute is shorter
        new_steps = monotone_staircase((0, 0, 0), _word_displacement(steps))
    return replace_window(spec, t_lo, t_hi, new_steps)


def reference_straighten_fixpoint(spec: InfinitePathSpec, region: Region):
    """The straightening loop before it ran on the segment word: every pass
    walks the string again and rebuilds and re-validates the whole spec.  The
    reference for ``transforms.straighten_fixpoint``."""
    count = 0
    while True:
        try:
            spec = reference_straighten_once(spec, region)
        except AlreadyMonotonicInRegion:
            return spec, count
        count += 1


# The surface validator that read each face's edges as ``Edge`` records, in
# one pass for the incidence rows and another for the boundary chain: the
# reference for the one-pass ``validate_surface`` over closed-form face keys.


def _reference_boundary_chain(faces):
    odd = set()
    for f in faces:
        for e in face_edges(f):
            odd.symmetric_difference_update({e.key})
    return odd


def _reference_order_cycle(keys) -> FinitePath:
    by_vertex = {}
    for (base, axis) in keys:
        for v in (base, add(base, unit(axis))):
            by_vertex.setdefault(v, []).append((base, axis))
    if any(len(ks) != 2 for ks in by_vertex.values()):
        raise MalformedBoundary("boundary chain is not a union of simple cycles")
    start = min(by_vertex)
    walk = []
    v = start
    prev_key = None
    while True:
        options = [k for k in by_vertex[v] if k != prev_key]
        key = options[0]
        base, axis = key
        sign = +1 if base == v else -1
        e = Edge(base, axis, sign)
        walk.append(e)
        v = boundary_edge(e)[1]
        prev_key = key
        if v == start:
            break
    if len(walk) != len(keys):
        raise MalformedBoundary("boundary chain has more than one component")
    return validate_finite_path(walk)


def reference_validate_surface(faces) -> Surface:
    """Classify a face set as an open or closed non-self-intersecting surface.
    The result is built without ``Surface``'s own validation."""
    face_list = list(faces)
    if not face_list:
        raise MalformedBoundary("a surface needs at least one face")
    if len(set(face_list)) != len(face_list):
        raise SelfIntersecting("face repeated in surface")

    edge_index = {}
    rows = [
        _kernels.vector(edge_index.setdefault(e.key, len(edge_index)) for e in face_edges(f))
        for f in face_list
    ]
    kernel = _kernels.nullspace(rows)

    chain = _reference_boundary_chain(face_list)
    if not chain:
        # closed: the only null combination may be the full face set
        if kernel != [(1 << len(face_list)) - 1]:
            raise SelfIntersecting("closed surface contains a closed proper sub-surface")
        return tuple.__new__(Surface, (frozenset(face_list), None))
    if kernel:
        raise SelfIntersecting("surface contains a closed proper sub-surface")
    boundary = _reference_order_cycle(chain)
    return tuple.__new__(Surface, (frozenset(face_list), boundary))


def _faces_connected(surface: Surface) -> bool:
    """Whether the faces form one piece, faces sharing an edge joined: a
    search over each face's four edge keys, listed once.  Every open
    ``Surface`` passes: split into two groups that share no edge, it would
    hold a closed group, or a boundary that meets itself at a vertex or falls
    in two cycles, all rejected when the surface is built.  The oracle for
    that claim, which surgery relies on without checking."""
    faces = [face_keys(f) for f in surface.faces]
    key_to_faces = {}
    for i, keys in enumerate(faces):
        for key in keys:
            key_to_faces.setdefault(key, []).append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for key in faces[i]:
            for j in key_to_faces[key]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return len(seen) == len(faces)


# Surgery before it found each string's overlap once: the reference for
# ``transforms.surgery``.  It walks a reversed string again and rebuilds the
# run's key set for every boundary edge.


def _reference_overlap_params(spec: InfinitePathSpec, keys, window: Region) -> list[int]:
    """Sorted parameters of ``spec``'s edges inside ``window`` whose keys are in ``keys``."""
    return sorted(t for t, key in reference_walk_in(spec, window) if key is not None and key in keys)


def reference_surgery(cfg, surface):
    """Cut every string along its overlap with the surface boundary and
    resplice across the boundary arcs.  The output edge chain equals the
    input chain XOR the boundary chain."""
    from toric3d.errors import InvalidSurface, MultipleOverlapRuns, NoOverlap
    from toric3d.lattice import edge_direction
    from toric3d.paths import aligned_window, reverse_spec
    from toric3d.transforms import Configuration, _contiguous_runs, deoverlap

    if surface.closed:
        raise InvalidSurface("surgery needs an open surface")
    if not _faces_connected(surface):
        raise InvalidSurface("surface faces are not edge-connected")
    cfg = deoverlap(cfg)
    boundary = surface.boundary
    bkeys = {e.key for e in boundary.edges}
    window = bounding_region(
        [v for e in boundary.edges for v in boundary_edge(e)]
    ).inflate(2)

    touched: list[dict] = []
    strings = list(cfg.strings)
    for idx, spec in enumerate(strings):
        params = _reference_overlap_params(spec, bkeys, window)
        if not params:
            continue
        runs = _contiguous_runs(params)
        if len(runs) != 1:
            raise MultipleOverlapRuns(f"string {idx} meets the boundary in {len(runs)} runs")
        t_lo, t_hi = runs[0]
        # align orientations: the string must traverse the overlap against
        # the boundary's own traversal
        key0 = spec.edges(t_lo, t_lo)[0].key
        b_edge = next(e for e in boundary.edges if e.key == key0)
        if spec.edges(t_lo, t_lo)[0].sign == b_edge.sign:
            spec = reverse_spec(spec)
            strings[idx] = spec
            params = _reference_overlap_params(spec, bkeys, window)
            runs = _contiguous_runs(params)
            if len(runs) != 1:
                raise MultipleOverlapRuns(f"string {idx} meets the boundary in {len(runs)} runs")
            t_lo, t_hi = runs[0]
        positions = sorted(
            i for i, e in enumerate(boundary.edges) if e.key in
            {spec.edges(t, t)[0].key for t in range(t_lo, t_hi + 1)}
        )
        touched.append(
            {"index": idx, "p": t_lo, "q": t_hi, "positions": positions, "spec": spec}
        )
    if not touched:
        raise NoOverlap("surface boundary meets no string")

    L = len(boundary.edges)
    for info in touched:
        pos = info["positions"]
        if not _reference_cyclically_contiguous(pos, L):
            raise MultipleOverlapRuns(
                f"string {info['index']} overlap is not contiguous along the boundary"
            )
        info["b_start"], info["b_end"] = _reference_cyclic_run(pos, L)

    # order runs by first encounter walking the boundary cycle
    touched.sort(key=lambda info: info["b_start"])
    n = len(touched)
    new_specs = {}
    for k, info in enumerate(touched):
        nxt = touched[(k + 1) % n]
        arc = []
        i = (info["b_end"] + 1) % L
        while i != nxt["b_start"]:
            arc.append(edge_direction(boundary.edges[i]))
            i = (i + 1) % L
        spec_i, spec_j = info["spec"], nxt["spec"]
        a_lo = aligned_window(spec_i, info["p"], 0)[0]
        b_hi = aligned_window(spec_j, 0, nxt["q"] + 1)[1]
        core = (
            spec_i.realize_steps(a_lo, info["p"] - 1)
            + tuple(arc)
            + spec_j.realize_steps(nxt["q"] + 1, b_hi - 1)
        )
        new_specs[info["index"]] = InfinitePathSpec(
            spec_i.neg_period, core, spec_j.pos_period, spec_i.vertex(a_lo)
        )

    out_strings = [new_specs.get(i, s) for i, s in enumerate(strings)]
    return Configuration(cfg.charges, tuple(out_strings), cfg.loops)


def _reference_cyclically_contiguous(positions, L: int) -> bool:
    k = len(positions)
    if k == L:
        return True
    pos_set = set(positions)
    starts = [p for p in positions if (p - 1) % L not in pos_set]
    return len(starts) == 1


def _reference_cyclic_run(positions, L: int) -> tuple[int, int]:
    pos_set = set(positions)
    start = next(p for p in positions if (p - 1) % L not in pos_set)
    return start, (start + len(positions) - 1) % L


# The n = 2 and n = 3 enumerations as two hand-written loop nests each, every
# ordered assignment listed, kept to check the key fold of ``toric3d.sectors``
# (one key per string-order/swap class) and its counts against.


def _reference_candidates():
    out = []
    for p in range(1, 64):
        for m in range(1, 64):
            if p & m == 0:
                out.append((p, m))
    return out


def reference_raw_solutions(n_strings: int):
    cands = _reference_candidates()
    by_allowed = {}

    def allowed(universe_mask):
        if universe_mask not in by_allowed:
            by_allowed[universe_mask] = [
                (p, m) for (p, m) in cands if (p | m) & ~universe_mask == 0
            ]
        return by_allowed[universe_mask]

    sols = []
    if n_strings == 2:
        for c1 in cands:
            u = 63 & ~(c1[0] | c1[1])
            for c2 in allowed(u):
                sols.append((c1, c2))
    elif n_strings == 3:
        for c1 in cands:
            u1 = 63 & ~(c1[0] | c1[1])
            for c2 in allowed(u1):
                u2 = u1 & ~(c2[0] | c2[1])
                for c3 in allowed(u2):
                    sols.append((c1, c2, c3))
    else:
        raise ValueError("only 2- and 3-string enumerations are supported")
    return sols


def reference_raw_count_alt(n_strings: int) -> int:
    def splits(mask):
        return 2 ** bin(mask).count("1") - 2

    total = 0
    if n_strings == 2:
        for d1 in range(64):
            if bin(d1).count("1") < 2:
                continue
            for d2 in range(64):
                if bin(d2).count("1") < 2 or d1 & d2:
                    continue
                total += splits(d1) * splits(d2)
    else:
        for d1 in range(64):
            if bin(d1).count("1") < 2:
                continue
            for d2 in range(64):
                if bin(d2).count("1") < 2 or d1 & d2:
                    continue
                for d3 in range(64):
                    if bin(d3).count("1") < 2 or d3 & (d1 | d2):
                        continue
                    total += splits(d1) * splits(d2) * splits(d3)
    return total


# The canonical form of a solution as one sorted candidate per symmetry
# table, the reduction closure that recomputes it for every surgery move, the
# canonical forms of every swapped and ordered surgery move of a solution, and
# the span of a basis listed in full, and the n = 1 fiber loop that
# ``stabilizer.surface_net_checks`` once ran over all 2^18 nets one at a
# time: the oracles of the orbit table and of the rank decisions.


def reference_canonical_solution(sol):
    best = None
    for table in _octahedral_tables():
        cand = tuple(
            sorted(
                min((table[p], table[m]), (table[m], table[p])) for p, m in sol
            )
        )
        if best is None or cand < best:
            best = cand
    return best


def reference_reduction_closure(rep, classify_fn):
    """Cases reachable from ``rep`` by three rounds of surgery moves."""
    from toric3d.sectors import surgery_move

    seen = {reference_canonical_solution(rep)}
    frontier = [rep]
    cases = {classify_fn(rep)}
    for _ in range(3):
        nxt = []
        for sol in frontier:
            n = len(sol)
            for swaps in product((0, 1), repeat=n):
                var = tuple((m, p) if sw else (p, m) for (p, m), sw in zip(sol, swaps))
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        moved = surgery_move(var, i, j)
                        canon = reference_canonical_solution(moved)
                        if canon not in seen:
                            seen.add(canon)
                            nxt.append(moved)
                            cases.add(classify_fn(moved))
        frontier = nxt
    return frozenset(cases)


def reference_move_canons(sol, canon_of):
    """Canonical forms of every surgery move of ``sol`` over all ``2^n``
    D+/D- swaps and all ``n(n-1)`` ordered pairs of strings, each looked up
    by its key in ``canon_of``."""
    from toric3d.sectors import _key, surgery_move

    n = len(sol)
    canons = set()
    for swaps in product((0, 1), repeat=n):
        var = tuple((m, p) if sw else (p, m) for (p, m), sw in zip(sol, swaps))
        for i in range(n):
            for j in range(n):
                if i != j:
                    canons.add(canon_of[_key(surgery_move(var, i, j))])
    return canons


def reference_are_nets(rows, faces) -> bool:
    """Whether every support in the span of ``rows`` meets each of ``faces``
    in an even number of bits: each subset of the rows is XORed together and
    tested against every face, with no appeal to linearity."""
    rows = list(rows)
    for picks in product((0, 1), repeat=len(rows)):
        support = reduce(xor, compress(rows, picks), 0)
        if any((support & face).bit_count() % 2 for face in faces):
            return False
    return True


def reference_span(basis) -> list[int]:
    """All ``2^k`` XOR combinations of ``k`` basis vectors (iterative doubling):
    entry ``j`` XORs the vectors whose index is a set bit of ``j``.  The
    ``repeat`` count stops each doubling at the entries it started with."""
    out = [0]
    for b in basis:
        out += map(xor, out, repeat(b, len(out)))
    return out


def reference_fiber_checks(nets, n_interior: int, interior_basis):
    """``(boundary_conditions, fibers_equal, bijection)`` of a sorted net list."""
    interior_mask = (1 << n_interior) - 1
    interior_group = reference_span(interior_basis)
    fiber = 2 ** len(interior_basis)
    boundary_conditions = 0
    fibers_equal = bijection = True
    start = 0
    while start < len(nets):
        boundary = nets[start] >> n_interior
        end = start + 1
        while end < len(nets) and nets[end] >> n_interior == boundary:
            end += 1
        boundary_conditions += 1
        if end - start != fiber:
            fibers_equal = False
        elif bijection:
            grp = [v & interior_mask for v in nets[start:end]]
            bijection = sorted(g ^ grp[0] for g in interior_group) == grp
        start = end
    bijection = bijection and fibers_equal
    return boundary_conditions, fibers_equal, bijection


def reference_parse_steps(text: str):
    """``lattice.parse_steps`` as it was when it upper-cased and looked up one
    atom at a time: the reference for its messages."""
    from toric3d.lattice import _STEP_ATOMS

    text = text.strip()
    if len(text) % 2 != 0:
        raise ValueError(f"step string has odd length: {text!r}")
    steps = []
    for i in range(0, len(text), 2):
        atom = text[i : i + 2].upper()
        if atom not in _STEP_ATOMS:
            raise ValueError(f"invalid step atom {atom!r} at position {i}")
        steps.append(_STEP_ATOMS[atom])
    return tuple(steps)


def reference_classify(cfg, strict_gss: bool = False):
    """``sectors.classify`` as it was when it straightened each non-monotone
    string in every candidate region and kept the first region whose result
    is monotone: the reference for the verdict read off segment letters."""
    from toric3d.sectors import (
        ScriptStep,
        SectorVerdict,
        VerdictKind,
        _script_region,
        _sector_witness,
    )
    from toric3d.transforms import straighten_fixpoint

    frustration_free = not cfg.charges and not cfg.loops and not cfg.strings
    witness = _sector_witness(cfg, strict_gss)
    if witness is not None:
        return SectorVerdict(
            VerdictKind.NOT_GROUND_SECTOR, witness, frustration_free=frustration_free
        )

    script: list[ScriptStep] = []
    all_monotone = True
    for i, spec in enumerate(cfg.strings):
        mono, _ = is_monotonic(spec)
        if not mono:
            all_monotone = False
            for pad in (1, 2, 4, 8):
                region = _script_region(spec, pad)
                try:
                    fixed, _ = straighten_fixpoint(spec, region)
                except MultipleCrossings:
                    continue
                if is_monotonic(fixed)[0]:
                    script.append(ScriptStep("straighten", i, region))
                    break
            else:
                raise AssertionError(
                    f"no straightening region found for sector-valid string {i}"
                )
    for k in range(len(cfg.loops)):
        script.append(ScriptStep("drop_loop", k))

    if all_monotone and not cfg.loops:
        return SectorVerdict(VerdictKind.GROUND_STATE, frustration_free=frustration_free)
    return SectorVerdict(
        VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE,
        script=tuple(script),
        frustration_free=frustration_free,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _random_word(rng, max_len=2, monotone=False):
    length = int(rng.integers(1, max_len + 1))
    if monotone:
        axes = list(rng.permutation(3)[: int(rng.integers(1, 3))])
        word = tuple(
            (int(a), int(rng.choice((-1, 1)))) for a in axes for _ in range(1)
        )
        return word[:length] if len(word) >= length else word
    return tuple(
        (int(rng.integers(0, 3)), int(rng.choice((-1, 1)))) for _ in range(length)
    )


def random_core(rng, max_len=6, lo=-3, hi=3, self_avoiding=False):
    """Random steps from the origin that stay in ``[lo, hi]^3``; with
    ``self_avoiding`` a step onto an already visited vertex is dropped too,
    so long cores still make valid specs."""
    core = []
    v = (0, 0, 0)
    seen = {v}
    for _ in range(int(rng.integers(0, max_len + 1))):
        d = (int(rng.integers(0, 3)), int(rng.choice((-1, 1))))
        w = add(v, direction_vector(d))
        if all(lo <= w[a] <= hi for a in AXES) and not (self_avoiding and w in seen):
            core.append(d)
            seen.add(w)
            v = w
    return tuple(core)


def zigzag_core(rng, length):
    """``length`` steps oscillating along one axis while advancing along
    another (``X+ Y+ X- Y+ ...``): self-avoiding by construction."""
    bad, other = (int(a) for a in rng.permutation(3)[:2])
    up, ahead = int(rng.choice((-1, 1))), int(rng.choice((-1, 1)))
    pattern = ((bad, up), (other, ahead), (bad, -up), (other, ahead))
    return tuple(pattern[i % 4] for i in range(length))


def sweep_words(s: int, L: int, R: int, reject: bool = False) -> tuple[str, str, str]:
    """The ``(neg_period, core, pos_period)`` words of a string based at the
    origin whose positive tail sweeps its core's box: the period
    ``Z- (Y-^L Z- Y+^L Z-)^R X- Z+^(2R+1) X-`` is a planar snake of
    displacement ``(-2, 0, 0)``, so about ``s / 2`` of its periods lie in the
    box.  The core ``Z+^s X+^s Y+^s`` makes a valid string; with ``reject``
    the core ``Y+^(s-1) Z+^s X+^s Y+`` puts a core vertex on the last in-box
    period, so validation names a revisit in a window of about ``s / 2``
    periods."""
    snake = "Z-" + ("Y-" * L + "Z-" + "Y+" * L + "Z-") * R + "X-" + "Z+" * (2 * R + 1) + "X-"
    if reject:
        return "Z+", "Y+" * (s - 1) + "Z+" * s + "X+" * s + "Y+", snake
    return "Z+", "Z+" * s + "X+" * s + "Y+" * s, snake


def opposite_heading_words(N: int) -> tuple[str, str, str, Vertex]:
    """The ``(neg_period, core, pos_period, base)`` of a valid string whose
    tails head opposite ways along the z axis, ``2N`` per period: the
    positive tail covers column ``(0, 0)`` at ``z mod 2N < N`` and the
    negative tail at ``z mod 2N >= N``, so the two tails share that column
    with ``N`` letters each and never meet."""
    return (
        "X-" + "Z+" * (N + 1) + "X+" + "Z+" * (N - 1),
        "Y+" + "Z-" * (4 * N - 1) + "Y-",
        "Z+" * (N - 1) + "X+" + "Z+" * (N + 1) + "X-",
        (0, 0, 4 * N - 1),
    )


def facing_tails_spec(rng):
    """``(neg, core, pos, base)`` whose tails run along one axis ``A`` and
    head toward each other past a short core, so that the spec reaches the
    opposite-heading branch of ``_tails_apart`` and is mostly rejected
    there.  In the frame of ``A`` and two lateral axes ``B`` and ``C``,
    each with a random orientation, the base is on line 0 and the junction
    ``k`` steps behind it on line ``2B``.  Each period steps onto line
    ``B``, runs along it and steps back to its home line: the positive tail
    covers line ``B`` at heights from ``-k`` up, the negative one at
    heights from 0 down.  The core goes round through lines ``C``,
    ``B + C`` and ``2B + C``, which neither tail touches."""
    axes = [int(a) for a in rng.permutation(3)]
    signs = [int(rng.choice((-1, 1))) for _ in range(3)]

    def letters(*word):
        return tuple((axes[a], s * signs[a]) for a, s in word)

    k = int(rng.integers(1, 13))
    a, a2, c, c2 = (int(n) for n in rng.integers(1, (3, 3, 5, 5)))
    A, B, C = 0, 1, 2
    pos = letters((B, -1), *[(A, 1)] * a, (B, 1), *[(A, 1)] * c)
    # the negative period is read outward against its letters: outward it
    # steps onto line B, runs down it and steps back
    neg = letters(*[(A, 1)] * c2, (B, 1), *[(A, 1)] * a2, (B, -1))
    core = letters((C, 1), (B, 1), (B, 1), *[(A, -1)] * k, (C, -1))
    base = tuple(int(x) for x in rng.integers(-2, 3, 3))
    return neg, core, pos, base


def common_line_spec(rng, same_heading: bool):
    """``(neg, core, pos, base)`` with both tails along one axis, the same
    or opposite ways outward: each period is 1 to 3 copies of one axis
    letter and up to two sidestep pairs, permuted until the word is
    self-avoiding, under a self-avoiding core.  The tails meet the core,
    each other or themselves often enough that both verdicts are common."""
    axis, sign = int(rng.integers(0, 3)), int(rng.choice((-1, 1)))
    sides = [a for a in AXES if a != axis]

    def period(s):
        word = [(axis, s)] * int(rng.integers(1, 4))
        for _ in range(int(rng.integers(0, 3))):
            b = sides[int(rng.integers(0, 2))]
            word += [(b, 1), (b, -1)]
        while True:
            word = [word[j] for j in rng.permutation(len(word))]
            if word_is_self_avoiding(word):
                return tuple(word)

    # the negative period is read outward against its letters
    pos, neg = period(sign), period(-sign if same_heading else sign)
    base = tuple(int(x) for x in rng.integers(-2, 3, 3))
    return neg, random_core(rng, max_len=10, self_avoiding=True), pos, base


def random_spec(
    rng, base_lo=-2, base_hi=2, monotone_tails=False, max_core=6, max_period=2, **core_box
):
    """A valid spec with short random words; retries until validation passes.
    Tail periods take 1 to ``max_period`` letters; ``core_box`` passes ``lo``,
    ``hi`` and ``self_avoiding`` to ``random_core``."""
    for _ in range(60):
        base = tuple(int(x) for x in rng.integers(base_lo, base_hi + 1, 3))
        neg = _random_word(rng, max_len=max_period, monotone=monotone_tails)
        pos = _random_word(rng, max_len=max_period, monotone=monotone_tails)
        core = random_core(rng, max_len=max_core, **core_box)
        try:
            return InfinitePathSpec(neg, core, pos, base)
        except SelfIntersecting:
            continue
    raise RuntimeError("could not sample a valid spec")


def random_monotone_spec(rng, base_lo=-2, base_hi=2):
    """A fully monotone spec: one sign chosen per axis, words drawn from it."""
    for _ in range(60):
        signs = {a: int(rng.choice((-1, 1))) for a in AXES}
        def word():
            axes = rng.permutation(3)[: int(rng.integers(1, 3))]
            return tuple((int(a), signs[int(a)]) for a in axes)
        core_axes = rng.integers(0, 3, size=int(rng.integers(0, 5)))
        core = tuple((int(a), signs[int(a)]) for a in core_axes)
        base = tuple(int(x) for x in rng.integers(base_lo, base_hi + 1, 3))
        try:
            return InfinitePathSpec(word(), core, word(), base)
        except SelfIntersecting:
            continue
    raise RuntimeError("could not sample a monotone spec")


def random_nonmonotone_spec(rng):
    """Straight single-letter tails and a core forced to backtrack."""
    for _ in range(200):
        base = tuple(int(x) for x in rng.integers(-1, 2, 3))
        neg = ((int(rng.integers(0, 3)), int(rng.choice((-1, 1)))),)
        pos = ((int(rng.integers(0, 3)), int(rng.choice((-1, 1)))),)
        core = list(random_core(rng, max_len=8))
        if core:
            d = core[int(rng.integers(0, len(core)))]
            core.insert(int(rng.integers(0, len(core) + 1)), reverse_direction(d))
        # a core that revisits a vertex can never validate: skip building it
        if word_is_monotone(neg + tuple(core) + pos) or not word_is_self_avoiding(core):
            continue
        try:
            return InfinitePathSpec(neg, tuple(core), pos, base)
        except SelfIntersecting:
            continue
    raise RuntimeError("could not sample a non-monotone spec")


def random_membrane_faces(rng) -> set[Face]:
    """The faces of up to 3 rectangles in one plane; their union may have a
    hole or fall in pieces."""
    normal = int(rng.integers(0, 3))
    a1, a2 = (a for a in AXES if a != normal)
    level = int(rng.integers(-1, 2))
    faces = set()
    for _ in range(int(rng.integers(1, 4))):
        (u0, v0), (w, h) = rng.integers(0, 4, 2), rng.integers(1, 4, 2)
        for u in range(u0, u0 + w):
            for v in range(v0, v0 + h):
                base = [level] * 3
                base[a1], base[a2] = int(u), int(v)
                faces.add(Face(tuple(base), normal))
    return faces


def random_loop(rng, lo=0, hi=3) -> FinitePath:
    """A random axis-aligned rectangle loop inside the box."""
    a1, a2 = sorted(int(x) for x in rng.choice(3, size=2, replace=False))
    w = int(rng.integers(1, hi - lo))
    h = int(rng.integers(1, hi - lo))
    base = tuple(int(x) for x in rng.integers(lo, hi - max(w, h) + 1, 3))
    steps = (
        [(a1, 1)] * w + [(a2, 1)] * h + [(a1, -1)] * w + [(a2, -1)] * h
    )
    return path_from_steps(base, steps)


def equivalent_variant(rng, spec: InfinitePathSpec) -> InfinitePathSpec:
    """A finite core edit of ``spec``: absorb tail periods, then replace one
    step by a three-step bump around a transverse axis."""
    from toric3d.paths import replace_window

    nn, nc, npp = len(spec.neg_period), len(spec.core), len(spec.pos_period)
    j = int(rng.integers(0, 3))
    widened = replace_window(
        spec, -j * nn, nc + j * npp, spec.realize_steps(-j * nn, nc + j * npp - 1)
    )
    core = widened.core
    if not core:
        return widened
    for _ in range(40):
        k = int(rng.integers(0, len(core)))
        step = core[k]
        others = [a for a in AXES if a != step[0]]
        d = (int(rng.choice(others)), int(rng.choice((-1, 1))))
        bumped = core[:k] + (d, step, reverse_direction(d)) + core[k + 1 :]
        try:
            return InfinitePathSpec(
                widened.neg_period, bumped, widened.pos_period, widened.base
            )
        except SelfIntersecting:
            continue
    return widened
