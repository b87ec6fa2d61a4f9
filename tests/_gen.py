"""Shared oracles and random generators for the test suite.

Oracles here stay deliberately naive: breadth-first search on the explicit
region graph, brute-force truncation walks, and direct step tallies.  They
never call the production code paths they are used to check.
"""

from __future__ import annotations

from collections import deque

from itertools import product

from toric3d import _kernels
from toric3d.errors import DimensionMismatch, OutOfRegion, SelfIntersecting
from toric3d.lattice import (
    AXES,
    Edge,
    Face,
    Region,
    add,
    direction_vector,
    edges_of_vertex,
    face_edges,
    primal_face_of_edge,
    reverse_direction,
    unit,
)
from toric3d.paths import FinitePath, InfinitePathSpec, path_from_steps

DIRS6 = [(a, s) for a in AXES for s in (+1, -1)]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


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


def fill_cycle(boundary_keys: set, box: Region):
    """A set of dual faces inside ``box`` whose boundary is the given chain,
    found by solving the face-boundary linear system over F2."""
    from toric3d.lattice import face_edges

    faces = []
    for normal in AXES:
        a1, a2 = [a for a in AXES if a != normal]
        for base in box.vertices():
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
    combo = _kernels.solve(matrix, target)
    if combo is None:
        return None
    return [f for i, f in enumerate(faces) if combo >> i & 1]


def reference_block(n: int):
    """Vertices, sorted interior edges, sorted fringe edges and sorted faces
    of the side-``n`` block, collected by walking every vertex's edges and
    faces (the dict-of-tuples construction the closed form replaced)."""
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


def reference_syndrome_energy(lat, flip, region: Region) -> int:
    """2 x stabilizers in ``region`` anticommuting with ``flip``, testing every
    star and plaquette of the region one edge at a time."""
    if flip.n_qubits != lat.n_qubits:
        raise DimensionMismatch("flip built on a different lattice")
    z_flips = _kernels.support(flip.z)
    x_flips = _kernels.support(flip.x)
    violated = 0
    for v in region.vertices():
        if v not in lat.vertex_set:
            continue
        parity = 0
        for e in edges_of_vertex(v):
            parity ^= lat.edge_index[e.key] in z_flips
        violated += parity
    for axis in AXES:
        hi = list(region.hi)
        hi[axis] -= 1
        if hi[axis] < region.lo[axis]:
            continue
        for base in Region(region.lo, tuple(hi)).vertices():
            f = primal_face_of_edge(Edge(base, axis))
            parity = 0
            ok = True
            for e in face_edges(f):
                idx = lat.edge_index.get(e.key)
                if idx is None:
                    ok = False
                    break
                parity ^= idx in x_flips
            if not ok:
                raise OutOfRegion(f"plaquette {f} extends outside the lattice block")
            violated += parity
    return 2 * violated


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


def random_spec(rng, base_lo=-2, base_hi=2, monotone_tails=False, max_core=6, **core_box):
    """A valid spec with short random words; retries until validation passes.
    ``core_box`` passes ``lo``, ``hi`` and ``self_avoiding`` to ``random_core``."""
    for _ in range(60):
        base = tuple(int(x) for x in rng.integers(base_lo, base_hi + 1, 3))
        neg = _random_word(rng, monotone=monotone_tails)
        pos = _random_word(rng, monotone=monotone_tails)
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
        try:
            spec = InfinitePathSpec(neg, tuple(core), pos, base)
        except SelfIntersecting:
            continue
        from toric3d.paths import is_monotonic

        if not is_monotonic(spec)[0]:
            return spec
    raise RuntimeError("could not sample a non-monotone spec")


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
