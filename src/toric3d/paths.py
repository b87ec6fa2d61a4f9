"""Finite and infinite paths and surfaces on the dual lattice.

Infinite paths are restricted to the eventually periodic class: a finite core
word framed by two nonempty periodic tail words.  A spec realises the
bi-infinite walk

* ``steps(t) = core[t]`` for ``0 <= t < len(core)``, starting at ``base``,
* ``steps(t)`` cycles ``pos_period`` for ``t >= len(core)``,
* ``steps(t)`` cycles ``neg_period`` read right-to-left for ``t < 0``.

``vertex(0) == base`` and ``vertex(t+1) == vertex(t) + steps(t)``.  Validation
certifies non-self-intersection with a finite argument: period displacements
must be nonzero, a truncation window sized from the tail geometry is checked
for repeated vertices, and parallel same-heading tails get an exact periodic
overlap check.  Specs whose tails defeat the window bounds are rejected rather
than guessed at.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import MalformedBoundary, NotConnected, SelfIntersecting, TooLarge
from . import _kernels
from .lattice import (
    AXES,
    DIRECTIONS,
    Direction,
    Edge,
    EdgeKey,
    Face,
    Region,
    Vertex,
    add,
    boundary_edge,
    bounding_region,
    direction_vector,
    edge_direction,
    edge_from,
    face_edges,
    parse_steps,
    reverse_direction,
    scale,
    sub,
    unit,
)

StepWord = tuple[Direction, ...]

_MOVES: dict[Direction, Vertex] = {d: direction_vector(d) for d in DIRECTIONS}

# the letters one tail walk may take to leave a region: 10**6 take about 4 s
# (energy of one straight string, 2-vCPU VM, Python 3.11)
MAX_TAIL_LETTERS = 10**6


# ---------------------------------------------------------------------------
# finite paths
# ---------------------------------------------------------------------------


class FinitePath(NamedTuple):
    """A validated edge walk; ``vertices`` has one more entry than ``edges``.
    Its ``len`` counts edges, so the tuple helpers ``_make`` and ``_replace``
    do not apply to it."""

    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]
    closed: bool

    @property
    def start(self) -> Vertex:
        return self.vertices[0]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def steps(self) -> StepWord:
        return tuple(map(edge_direction, self.edges))


def validate_finite_path(edges: Iterable[Edge]) -> FinitePath:
    """Check consecutiveness and non-self-intersection of an edge walk."""
    edges = tuple(edges)
    if not edges:
        raise NotConnected("a path needs at least one edge")
    vertices = [boundary_edge(edges[0])[0]]
    keys = set()
    for e in edges:
        s, t = boundary_edge(e)
        if s != vertices[-1]:
            raise NotConnected(f"edge {e} starts at {s}, expected {vertices[-1]}")
        if e.key in keys:
            raise SelfIntersecting(f"edge {e.key} walked twice")
        keys.add(e.key)
        vertices.append(t)
    closed = vertices[-1] == vertices[0] and len(edges) > 1
    interior = vertices[:-1] if closed else vertices
    if len(set(interior)) != len(interior):
        raise SelfIntersecting("vertex visited twice")
    return FinitePath(edges, tuple(vertices), closed)


def path_from_steps(start: Vertex, steps: Sequence[Direction]) -> FinitePath:
    """Walk ``steps`` from ``start`` and validate the resulting path."""
    return validate_finite_path(map(edge_from, _cumulative(steps, start), steps))


def monotone_staircase(a: Vertex, b: Vertex) -> StepWord:
    """Axis-ordered (x, then y, then z) monotone step word from ``a`` to ``b``."""
    steps = []
    for axis in AXES:
        d = b[axis] - a[axis]
        steps.extend([(axis, 1 if d > 0 else -1)] * abs(d))
    return tuple(steps)


def word_is_self_avoiding(steps: Sequence[Direction]) -> bool:
    """Whether walking ``steps`` visits no vertex twice (so no edge twice)."""
    return len(set(_cumulative(steps))) == len(steps) + 1


def word_is_monotone(steps: Iterable[Direction]) -> bool:
    """Whether ``steps`` walks each axis one way only: keyed by axis, its
    letters keep one sign each."""
    letters = set(steps)
    return len(dict(letters)) == len(letters)


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


class Surface(NamedTuple):
    """A validated face set; ``boundary`` is None exactly for closed surfaces."""

    faces: frozenset[Face]
    boundary: FinitePath | None

    @property
    def closed(self) -> bool:
        return self.boundary is None


def _boundary_chain(faces: Sequence[Face]) -> set[EdgeKey]:
    odd: set[EdgeKey] = set()
    for f in faces:
        for e in face_edges(f):
            odd.symmetric_difference_update({e.key})
    return odd


def _order_cycle(keys: set[EdgeKey]) -> FinitePath:
    by_vertex: dict[Vertex, list[EdgeKey]] = {}
    for (base, axis) in keys:
        for v in (base, add(base, unit(axis))):
            by_vertex.setdefault(v, []).append((base, axis))
    if any(len(ks) != 2 for ks in by_vertex.values()):
        raise MalformedBoundary("boundary chain is not a union of simple cycles")
    start = min(by_vertex)
    walk: list[Edge] = []
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


def validate_surface(faces: Iterable[Face]) -> Surface:
    """Classify a face set as an open or closed non-self-intersecting surface."""
    face_list = list(faces)
    if not face_list:
        raise MalformedBoundary("a surface needs at least one face")
    if len(set(face_list)) != len(face_list):
        raise SelfIntersecting("face repeated in surface")

    edge_index: dict[EdgeKey, int] = {}
    rows = [
        _kernels.vector(edge_index.setdefault(e.key, len(edge_index)) for e in face_edges(f))
        for f in face_list
    ]
    kernel = _kernels.nullspace(rows)

    chain = _boundary_chain(face_list)
    if not chain:
        # closed: the only null combination may be the full face set
        if kernel != [(1 << len(face_list)) - 1]:
            raise SelfIntersecting("closed surface contains a closed proper sub-surface")
        return Surface(frozenset(face_list), None)
    if kernel:
        raise SelfIntersecting("surface contains a closed proper sub-surface")
    boundary = _order_cycle(chain)
    return Surface(frozenset(face_list), boundary)


# ---------------------------------------------------------------------------
# infinite path specs
# ---------------------------------------------------------------------------


def _word_displacement(word: Iterable[Direction]) -> Vertex:
    counts = Counter(word)
    return tuple(counts[a, 1] - counts[a, -1] for a in AXES)


def _cumulative(word: StepWord, start: Vertex = (0, 0, 0)) -> list[Vertex]:
    """The vertices walked from ``start`` along ``word``, ``start`` included."""
    x, y, z = start
    out = [(x, y, z)]
    for d in word:
        dx, dy, dz = _MOVES[d]
        x, y, z = x + dx, y + dy, z + dz
        out.append((x, y, z))
    return out


class DirectionSet(NamedTuple):
    """Tail directions split into the positive and negative side."""

    d_plus: frozenset[Direction]
    d_minus: frozenset[Direction]

    @property
    def all(self) -> frozenset[Direction]:
        return self.d_plus | self.d_minus


class _SpecFields(NamedTuple):
    neg_period: StepWord
    core: StepWord
    pos_period: StepWord
    base: Vertex


class InfinitePathSpec(_SpecFields):
    """The record of a spec's fields, validated in ``__new__``: a spec that
    could intersect itself raises SelfIntersecting."""

    def __new__(cls, neg_period: StepWord, core: StepWord, pos_period: StepWord, base: Vertex):
        spec = super().__new__(cls, neg_period, core, pos_period, base)
        _validate_spec(spec)
        return spec

    # -- realization ---------------------------------------------------

    @cached_property
    def core_vertices(self) -> list[Vertex]:
        """``vertex(0)`` through ``vertex(len(core))``."""
        return _cumulative(self.core, self.base)

    @cached_property
    def core_box(self) -> Region:
        """The bounding box of ``core_vertices``."""
        return bounding_region(self.core_vertices)

    @cached_property
    def core_keys(self) -> list[EdgeKey]:
        """The keys of edges ``0`` through ``len(core) - 1``."""
        cv = self.core_vertices
        return [(cv[t + 1] if s < 0 else cv[t], a) for t, (a, s) in enumerate(self.core)]

    @cached_property
    def _pos_cum(self) -> list[Vertex]:
        return _cumulative(self.pos_period)

    @cached_property
    def _neg_suffix(self) -> list[Vertex]:
        # _neg_suffix[r] = displacement of the last r letters of neg_period
        return _cumulative(self.neg_period[::-1])

    @property
    def pos_displacement(self) -> Vertex:
        return self._pos_cum[-1]

    @property
    def neg_displacement(self) -> Vertex:
        """Displacement per period walking the negative tail outward (to -inf)."""
        return scale(self._neg_suffix[-1], -1)

    @property
    def junction(self) -> Vertex:
        return self.core_vertices[-1]

    def step(self, t: int) -> Direction:
        nc = len(self.core)
        if t >= nc:
            return self.pos_period[(t - nc) % len(self.pos_period)]
        if t >= 0:
            return self.core[t]
        return self.neg_period[t % len(self.neg_period)]

    def vertex(self, t: int) -> Vertex:
        nc = len(self.core)
        if 0 <= t <= nc:
            return self.core_vertices[t]
        if t > nc:
            q, r = divmod(t - nc, len(self.pos_period))
            return add(add(self.junction, scale(self.pos_displacement, q)), self._pos_cum[r])
        q, r = divmod(-t, len(self.neg_period))
        v = add(self.base, scale(self.neg_displacement, q))
        return sub(v, self._neg_suffix[r])

    def realize_steps(self, a: int, b: int) -> StepWord:
        """``step(a)`` through ``step(b)``, empty when ``b < a``: a slice of
        the negative tail, of the core and of the positive tail."""
        nc = len(self.core)
        return (
            _cycle(self.neg_period, a, min(b + 1, 0))
            + self.core[max(a, 0) : max(0, min(b + 1, nc))]
            + _cycle(self.pos_period, max(a, nc) - nc, b + 1 - nc)
        )

    def edges(self, a: int, b: int) -> list[Edge]:
        steps = self.realize_steps(a, b)
        return list(map(edge_from, _cumulative(steps, self.vertex(a)), steps))

    def walk_in(self, region: Region) -> list[tuple[int, EdgeKey | None]]:
        """``(t, key)`` for every walked parameter ``t`` with ``vertex(t)`` in
        ``region``; ``key`` is edge ``t``'s key when both its endpoints lie in
        ``region``, else None.

        Lists every core edge from ``core_keys`` when ``region`` contains
        ``core_box``, else scans ``core_vertices`` for the ones inside; then
        walks each tail outward period by period, and a tail stops after the
        first period whose vertices all lie past ``region`` along the tail's
        escape axis.
        """
        if region.contains_region(self.core_box):
            hits = list(enumerate(self.core_keys))
        else:
            (lx, ly, lz), (hx, hy, hz) = region
            cv = self.core_vertices
            inside = [lx <= x <= hx and ly <= y <= hy and lz <= z <= hz for x, y, z in cv]
            hits = [
                (t, key if nxt else None)
                for t, (key, here, nxt) in enumerate(zip(self.core_keys, inside, inside[1:]))
                if here
            ]
        nc = len(self.core)
        hits += _walk(region, self.junction, nc, +1, self.pos_period, self.pos_displacement)
        hits += _walk(region, self.base, -1, -1, self.neg_period[::-1], self.neg_displacement)
        return hits


def _cycle(word: StepWord, lo: int, hi: int) -> StepWord:
    """``word[t % len(word)]`` for ``lo <= t < hi``: empty when ``hi <= lo``,
    as the repeat count is then at most 1 and the slice ends before it starts."""
    start, n = lo % len(word), hi - lo
    return (word * ((start + n - 1) // len(word) + 1))[start : start + n]


def _walk(region: Region, start: Vertex, t: int, dt: int, word: StepWord, disp: Vertex):
    """One tail of :meth:`InfinitePathSpec.walk_in`: edges ``t, t+dt, ...``
    walked outward from ``start`` along ``word`` (the letters in walking order)
    period by period until a period lies past ``region`` along the escape axis
    of ``disp``, or raise TooLarge when that takes more than
    ``MAX_TAIL_LETTERS`` letters.  Walking backward (``dt = -1``) each letter
    is stepped against, and ``vertex(t)`` is the vertex reached rather than
    the one left."""
    (lx, ly, lz), (hx, hy, hz) = region
    axis = _escape_axis(disp)
    sign = 1 if disp[axis] > 0 else -1
    limit = region.hi[axis] if sign > 0 else -region.lo[axis]
    # a period gains |disp[axis]| along the axis and strays at most len(word)
    n = len(word)
    bound = ((max(0, limit - sign * start[axis]) + n) // abs(disp[axis]) + 2) * n
    if bound > MAX_TAIL_LETTERS:
        raise TooLarge(
            f"a tail needs up to {bound} steps to leave the region (at most {MAX_TAIL_LETTERS})"
        )
    # per letter: move, axis, whether the edge key's base is the vertex reached
    # (the lesser endpoint), and the move along the signed escape axis
    moves = []
    for a, s in word:
        move = _MOVES[a, s * dt]
        moves.append((*move, a, (s > 0) != (dt > 0), sign * move[axis]))
    backward = dt < 0
    x, y, z = start
    escape = sign * start[axis]
    inside = lx <= x <= hx and ly <= y <= hy and lz <= z <= hz
    while True:
        past = escape > limit
        for dx, dy, dz, a, key_at_next, de in moves:
            nx, ny, nz = x + dx, y + dy, z + dz
            nxt_inside = lx <= nx <= hx and ly <= ny <= hy and lz <= nz <= hz
            if nxt_inside if backward else inside:
                if inside and nxt_inside:
                    yield t, ((nx, ny, nz) if key_at_next else (x, y, z), a)
                else:
                    yield t, None
            t += dt
            x, y, z, inside = nx, ny, nz, nxt_inside
            escape += de
            if escape <= limit:
                past = False
        if past:
            return


def spec_from_strings(neg: str, core: str, pos: str, base: Vertex = (0, 0, 0)) -> InfinitePathSpec:
    return InfinitePathSpec(parse_steps(neg), parse_steps(core), parse_steps(pos), tuple(base))


def truncate(spec: InfinitePathSpec, a: int, b: int) -> FinitePath:
    """The realized steps on ``[a, b]`` (inclusive) as a validated path."""
    if a > b:
        raise ValueError("truncation window out of order")
    return validate_finite_path(spec.edges(a, b))


def reverse_spec(spec: InfinitePathSpec) -> InfinitePathSpec:
    """Orientation reversal t -> -t; realizes the same edge set."""
    return InfinitePathSpec(
        tuple(reverse_direction(d) for d in reversed(spec.pos_period)),
        tuple(reverse_direction(d) for d in reversed(spec.core)),
        tuple(reverse_direction(d) for d in reversed(spec.neg_period)),
        spec.junction,
    )


def replace_window(
    spec: InfinitePathSpec, t_lo: int, t_hi: int, new_steps: Sequence[Direction]
) -> InfinitePathSpec:
    """Replace the realized steps on ``[t_lo, t_hi)`` by ``new_steps``.

    The replacement must connect ``vertex(t_lo)`` to ``vertex(t_hi)``; tails
    are preserved by aligning the cut points with full periods.
    """
    a, b = aligned_window(spec, t_lo, t_hi)
    disp = sub(spec.vertex(t_hi), spec.vertex(t_lo))
    if _word_displacement(tuple(new_steps)) != disp:
        raise ValueError("replacement steps do not connect the window endpoints")
    core = (
        spec.realize_steps(a, t_lo - 1)
        + tuple(new_steps)
        + spec.realize_steps(t_hi, b - 1)
    )
    return InfinitePathSpec(spec.neg_period, core, spec.pos_period, spec.vertex(a))


def aligned_window(spec: InfinitePathSpec, t_lo: int, t_hi: int) -> tuple[int, int]:
    """The least ``(a, b)`` with ``a <= min(t_lo, 0)`` and ``b >= max(t_hi,
    len(core))`` that cut the tails at whole periods, so ``[a, b)`` can
    become a new core under the same period words."""
    nn, nc, npp = len(spec.neg_period), len(spec.core), len(spec.pos_period)
    return min(0, t_lo // nn * nn), max(nc, nc - (nc - t_hi) // npp * npp)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def _extent(vertices: Sequence[Vertex], axis: int) -> int:
    vals = [v[axis] for v in vertices]
    return max(vals) - min(vals)


def _escape_axis(disp: Vertex) -> int:
    return max(AXES, key=lambda a: abs(disp[a]))


def _primitive(v: Vertex) -> tuple[Vertex, int]:
    g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    return tuple(c // g for c in v), g


def _validate_spec(spec: InfinitePathSpec) -> None:
    if not spec.neg_period or not spec.pos_period:
        raise SelfIntersecting("period words must be nonempty")
    dpos, dneg_out = spec.pos_displacement, spec.neg_displacement
    if dpos == (0, 0, 0) or dneg_out == (0, 0, 0):
        raise SelfIntersecting("period word has zero net displacement")

    nn = len(spec.neg_period)

    # window vertex sets of the first tail period on each side
    base = tuple(spec.base)
    core_vs = spec.core_vertices
    junction = core_vs[-1]
    w_pos = [add(junction, v) for v in spec._pos_cum]
    w_neg = [sub(base, v) for v in spec._neg_suffix]

    # enough tail periods to carry each tail past every window and core
    # vertex: the core's extents are those of its box's two corners
    all_vs = [*spec.core_box, *w_pos, *w_neg]

    def _windows_needed(disp):
        axis = _escape_axis(disp)
        return _extent(all_vs, axis) // abs(disp[axis]) + 1

    k_pos, k_neg = _windows_needed(dpos), _windows_needed(dneg_out)

    # the tail headings are parallel exactly when every 2x2 minor vanishes;
    # ``u_pos`` is primitive, so ``dneg_out`` is then ``q * u_pos``
    u_pos, g_pos = _primitive(dpos)
    axis = _escape_axis(u_pos)
    q = dneg_out[axis] // u_pos[axis]
    minors = [(a, b, dpos[a] * dneg_out[b] - dpos[b] * dneg_out[a]) for a, b in combinations(AXES, 2)]
    nonsingular = [m for m in minors if m[2]]
    if nonsingular:
        # independent tail headings: Cramer bound over the last nonzero minor
        a, b, det = nonsingular[-1]
        ra = _extent(all_vs, a) + 2
        rb = _extent(all_vs, b) + 2
        jmax = (ra * abs(dneg_out[b]) + rb * abs(dneg_out[a])) // abs(det) + 1
        kmax = (ra * abs(dpos[b]) + rb * abs(dpos[a])) // abs(det) + 1
        k_pos = max(k_pos, jmax)
        k_neg = max(k_neg, kmax)
    elif q < 0:
        # tails head opposite ways along a common line: bounded interaction
        span = _extent(all_vs, axis) + 2
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

    # walk the certified truncation once, reusing the core's vertices;
    # distinct vertices imply distinct edges, and only a repeat needs the
    # step-by-step check to be named
    lo = -k_neg * nn
    walked = (
        _cumulative(spec.neg_period * k_neg, spec.vertex(lo))
        + core_vs[1:]
        + _cumulative(spec.pos_period * k_pos, junction)[1:]
    )
    if len(set(walked)) == len(walked):
        return
    word = spec.neg_period * k_neg + spec.core + spec.pos_period * k_pos
    keys = set()
    seen_v = {walked[0]}
    for t, (a, s), cur, nxt in zip(range(lo, lo + len(word)), word, walked, walked[1:]):
        key = (cur if s > 0 else nxt, a)
        if key in keys:
            raise SelfIntersecting(f"edge revisited at parameter {t}")
        keys.add(key)
        if nxt in seen_v:
            raise SelfIntersecting(f"vertex revisited at parameter {t}")
        seen_v.add(nxt)


# ---------------------------------------------------------------------------
# tail analysis
# ---------------------------------------------------------------------------


def infinity_directions(spec: InfinitePathSpec) -> DirectionSet:
    """Directions walked infinitely often, measured outward on each tail."""
    d_plus = frozenset(spec.pos_period)
    d_minus = frozenset(reverse_direction(d) for d in spec.neg_period)
    return DirectionSet(d_plus, d_minus)


def is_monotonic(spec: InfinitePathSpec) -> tuple[bool, dict[int, int] | None]:
    """Whether every realized step uses a single sign per axis.

    Returns the per-axis sign assignment for the axes actually used; unused
    axes are free and omitted.
    """
    used = set(spec.neg_period) | set(spec.core) | set(spec.pos_period)
    signs = dict(used)
    return (True, signs) if len(signs) == len(used) else (False, None)


def enclosing_region(*specs: InfinitePathSpec) -> Region:
    """The bounding box of the given specs' cores, from their cached
    ``core_box``: outside a spec's own box every step of it heads along a
    tail direction."""
    return bounding_region(corner for spec in specs for corner in spec.core_box)


# ---------------------------------------------------------------------------
# path equivalence
# ---------------------------------------------------------------------------


def _comparison_window(p: InfinitePathSpec, q: InfinitePathSpec) -> Region:
    pad = len(p.neg_period) + len(p.pos_period) + len(q.neg_period) + len(q.pos_period) + 1
    return enclosing_region(p, q).inflate(pad)


def _tail_rays(spec: InfinitePathSpec, window: Region, length: int):
    """(anchor, outward edge keys) for the positive and negative ray.  Each
    ray starts at the first vertex past its tail's last vertex in ``window``,
    found by the tail walks of :meth:`InfinitePathSpec.walk_in`; ``window``
    holds the core with a margin, so each walk meets it."""
    nc = len(spec.core)
    pos = _walk(window, spec.junction, nc, +1, spec.pos_period, spec.pos_displacement)
    a = max(t for t, _ in pos) + 1
    neg = _walk(window, spec.base, -1, -1, spec.neg_period[::-1], spec.neg_displacement)
    b = min(t for t, _ in neg) - 1
    pos_keys = tuple(e.key for e in spec.edges(a, a + length - 1))
    neg_keys = tuple(e.key for e in reversed(spec.edges(b - length, b - 1)))
    return (spec.vertex(a), pos_keys), (spec.vertex(b), neg_keys)


def path_equivalent(p: InfinitePathSpec, q: InfinitePathSpec) -> bool:
    """Whether the realized edge sets differ in only finitely many edges.

    Outside a window containing both cores plus full tail periods, both paths
    are exact periodic rays; equivalence reduces to the four rays pairing up
    with identical edge sets, decided from anchors and period words.
    """
    window = _comparison_window(p, q)
    length = 2 * (
        len(p.pos_period) + len(p.neg_period) + len(q.pos_period) + len(q.neg_period)
    ) + 4
    p_pos, p_neg = _tail_rays(p, window, length)
    q_pos, q_neg = _tail_rays(q, window, length)
    straight = p_pos == q_pos and p_neg == q_neg
    flipped = p_pos == q_neg and p_neg == q_pos
    return straight or flipped
