"""Finite and infinite paths and surfaces on the dual lattice.

Infinite paths are restricted to the eventually periodic class: a finite core
word framed by two nonempty periodic tail words.  A spec realises the
bi-infinite walk

* ``steps(t) = core[t]`` for ``0 <= t < len(core)``, starting at ``base``,
* ``steps(t)`` cycles ``pos_period`` for ``t >= len(core)``,
* ``steps(t)`` cycles ``neg_period`` read right-to-left for ``t < 0``.

``vertex(0) == base`` and ``vertex(t+1) == vertex(t) + steps(t)``.

Every tail read uses one arithmetic model.  Letter ``i`` of a tail period sits
at ``v + q * disp`` in period ``q``, affine in ``q``, so the periods in which
its vertex, or both ends of its edge, lie in a box form one interval
(:func:`_periods`).  ``edges_in`` lists tail edges from these intervals,
``count_in`` counts them and ``params_in`` reads the first and last in-box
parameter off their ends; nothing walks a tail to find where it leaves a box.
A tail that such a walk would need more than ``MAX_TAIL_LETTERS`` letters to
leave is TooLarge in all three.  Path equivalence reads no box: it compares
the closed-form class of each tail's eventual edge set (:func:`_ray_class`).

Validation accepts a spec in closed form.  A monotone string, whose letters
keep one sign per axis, is accepted by its letters alone.  Otherwise
(:func:`_self_avoiding`) period displacements are nonzero, the core's vertices
are distinct, and no tail letter's vertex family meets another's or the
core.  One coset rule of ``Z * disp`` decides a tail against itself and
against the core, whose cosets are indexed once per tail from its vertices
in the box of the ends of the families' in-box runs; the two tails meet by
cosets or plane coordinates.  Only a rejection walks, once, a truncation window sized
from the same tail records, to name the parameter of the first revisit;
tails with one heading that the coset test finds meeting take no walk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate, compress
from typing import AbstractSet, Iterable, NamedTuple, Sequence

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
    face_keys,
    parse_steps,
    reverse_direction,
    scale,
    sub,
)

StepWord = tuple[Direction, ...]

_MOVES: dict[Direction, Vertex] = {d: direction_vector(d) for d in DIRECTIONS}

# the letters a walk of one tail may take to leave a region.  Tails are read
# in closed form, so the cap no longer bounds time; regions past it stay
# TooLarge, with the bound such a walk would need
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
    return _one_sign_per_axis(set(steps))


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def _order_cycle(keys: set[EdgeKey]) -> FinitePath:
    """Walk a boundary chain as one simple cycle, or raise MalformedBoundary.

    Each key is listed at its base and at its far end, in the chain's
    iteration order.  The walk starts at the least vertex and leaves it along
    the first key listed there; that choice fixes the cycle's orientation,
    which decides the strings surgery reverses.  Every later vertex is left
    along its one key that is not the key it was entered by."""
    by_vertex: dict[Vertex, list[EdgeKey]] = {}
    for key in keys:
        base, axis = key
        x, y, z = base
        by_vertex.setdefault(base, []).append(key)
        by_vertex.setdefault((x + (axis == 0), y + (axis == 1), z + (axis == 2)), []).append(key)
    if any(len(ks) != 2 for ks in by_vertex.values()):
        raise MalformedBoundary("boundary chain is not a union of simple cycles")
    start = min(by_vertex)
    walk: list[Edge] = []
    vertices = [start]
    v = start
    prev_key = None
    while True:
        first, second = by_vertex[v]
        key = second if first == prev_key else first
        base, axis = key
        if base == v:
            walk.append(Edge(base, axis, +1))
            x, y, z = base
            v = (x + (axis == 0), y + (axis == 1), z + (axis == 2))
        else:
            walk.append(Edge(base, axis, -1))
            v = base
        vertices.append(v)
        prev_key = key
        if v == start:
            break
    if len(walk) != len(keys):
        raise MalformedBoundary("boundary chain has more than one component")
    # every vertex has degree 2 and one component was walked, so the walk is
    # a simple closed path
    return FinitePath(tuple(walk), tuple(vertices), True)


class _SurfaceFields(NamedTuple):
    faces: frozenset[Face]
    boundary: FinitePath | None


class Surface(_SurfaceFields):
    """A face set validated in ``__new__`` as one open or closed
    non-self-intersecting surface, with ``boundary`` derived: None exactly
    when closed.  One pass over the faces, in the given order, sets each
    face's four edge keys (:func:`face_keys`) in its row of the F2 incidence
    matrix, whose nullspace finds closed sub-surfaces, and toggles them in
    the boundary chain; that order fixes the boundary's orientation."""

    __slots__ = ()

    def __new__(cls, faces: Iterable[Face]):
        face_list = list(faces)
        if not face_list:
            raise MalformedBoundary("a surface needs at least one face")
        if len(set(face_list)) != len(face_list):
            raise SelfIntersecting("face repeated in surface")

        bit_of: dict[EdgeKey, int] = {}
        rows = []
        chain: set[EdgeKey] = set()
        for f in face_list:
            row = 0
            for key in face_keys(f):
                row |= 1 << bit_of.setdefault(key, len(bit_of))
                if key in chain:
                    chain.remove(key)
                else:
                    chain.add(key)
            rows.append(row)
        kernel = _kernels.nullspace(rows)

        if not chain:
            # closed: the only null combination may be the full face set
            if kernel != [(1 << len(face_list)) - 1]:
                raise SelfIntersecting("closed surface contains a closed proper sub-surface")
            boundary = None
        elif kernel:
            raise SelfIntersecting("surface contains a closed proper sub-surface")
        else:
            boundary = _order_cycle(chain)
        return super().__new__(cls, frozenset(face_list), boundary)

    def __reduce__(self):
        # copies and pickles restore the validated fields as they are: the
        # faces alone, in another order, could orient the boundary the other way
        return self._make, (tuple(self),)

    @property
    def closed(self) -> bool:
        return self.boundary is None


# the public name of the validating constructor
validate_surface = Surface


# ---------------------------------------------------------------------------
# infinite path specs
# ---------------------------------------------------------------------------


def _word_displacement(word: Iterable[Direction]) -> Vertex:
    return _displacement(Counter(word))


def _displacement(counts: Counter[Direction]) -> Vertex:
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
        """The bounding box of ``core_vertices``.  A monotone core moves each
        coordinate one way only, so its box is that of ``base`` and
        ``junction``, read without walking the core."""
        if self._core_monotone:
            return bounding_region((self.base, self.junction))
        return bounding_region(self.core_vertices)

    @cached_property
    def _core_counts(self) -> Counter[Direction]:
        """How often the core walks each direction."""
        return Counter(self.core)

    @cached_property
    def _core_monotone(self) -> bool:
        return _one_sign_per_axis(self._core_counts.keys())

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

    @cached_property
    def junction(self) -> Vertex:
        """``vertex(len(core))``: ``base`` plus the core's displacement, read
        off its letter counts without walking a vertex."""
        return add(self.base, _displacement(self._core_counts))

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

    def edges_in(self, region: Region) -> dict[EdgeKey, int]:
        """The key of every edge with both endpoints in ``region``, mapped to
        its parameter, in no promised order: the core's from ``core_keys``
        when ``region`` contains ``core_box``, else from a scan of the core,
        and each tail letter's from its :func:`_periods` range.  For callers
        that need the keys; ``count_in`` and ``params_in`` list none."""
        if region.contains_region(self.core_box):
            hits = dict(zip(self.core_keys, range(len(self.core))))
        else:
            inside = self._inside(region)
            hits = {key: t for t, key in enumerate(self.core_keys) if inside[t] and inside[t + 1]}
        for tail in self._tails:
            _check_tail_cap(tail, region)
            dx, dy, dz = disp = tail.disp
            for t, dt, _, lo, hi, a in tail.letters:
                x, y, z = lo
                for q in _periods(lo, hi, disp, region):
                    hits[(x + q * dx, y + q * dy, z + q * dz), a] = t + q * dt
        return hits

    def count_in(self, region: Region) -> tuple[int, Region | None]:
        """The number of edges with both endpoints in ``region``, and a box
        inside ``region`` holding all of them (None when there are none):
        ``core_box`` or a scan of the core, and one :func:`_periods` range per
        tail letter."""
        nc = len(self.core)
        if region.contains_region(self.core_box):
            count, corners = nc, list(self.core_box) if nc else []
        else:
            inside = self._inside(region)
            count = sum(map(bool.__and__, inside, inside[1:]))
            corners = [v for v, here in zip(self.core_vertices, inside) if here] if count else []
        for tail in self._tails:
            _check_tail_cap(tail, region)
            dx, dy, dz = disp = tail.disp
            for _, _, _, lo, hi, _ in tail.letters:
                ks = _periods(lo, hi, disp, region)
                if ks:
                    count += len(ks)
                    for (x, y, z), q in ((lo, ks[0]), (lo, ks[-1]), (hi, ks[0]), (hi, ks[-1])):
                        corners.append((x + q * dx, y + q * dy, z + q * dz))
        return count, bounding_region(corners) if corners else None

    def params_in(self, region: Region) -> tuple[int, int | None, int | None, int | None, int | None]:
        """``(count, e_lo, e_hi, v_lo, v_hi)``: the number of edges with both
        endpoints in ``region``, their least and greatest parameter, and the
        least and greatest ``t`` with ``vertex(t)`` in ``region`` (None where
        there is none).  The core gives ``0..nc-1`` outright when ``region``
        contains ``core_box``, else the ends of a scan of the core; each tail
        letter adds the ends of one :func:`_periods` range."""
        nc = len(self.core)
        if region.contains_region(self.core_box):
            count, es, vs = nc, [0, nc - 1] if nc else [], [0, nc]
        else:
            inside = self._inside(region)
            edges = list(map(bool.__and__, inside, inside[1:]))
            count, es, vs = edges.count(True), _ends(edges), _ends(inside)
        for tail in self._tails:
            _check_tail_cap(tail, region)
            disp = tail.disp
            for t, dt, v, lo, hi, _ in tail.letters:
                qs = _periods(v, v, disp, region)
                if qs:
                    vs += t + qs[0] * dt, t + qs[-1] * dt
                    ks = _periods(lo, hi, disp, region)
                    if ks:
                        count += len(ks)
                        es += t + ks[0] * dt, t + ks[-1] * dt
        ends = min(es, default=None), max(es, default=None), min(vs, default=None), max(vs, default=None)
        return count, *ends

    def _inside(self, region: Region) -> list[bool]:
        """Whether each of ``core_vertices`` lies in ``region``."""
        (lx, ly, lz), (hx, hy, hz) = region
        return [lx <= x <= hx and ly <= y <= hy and lz <= z <= hz for x, y, z in self.core_vertices]

    @cached_property
    def _tails(self) -> tuple[_Tail, _Tail]:
        """The positive and the negative tail, each walked outward.  Edge
        ``nc + i`` leaves ``vertex(nc + i)``; edge ``-1 - i``, the letter
        ``neg_period[-1 - i]`` stepped against, reaches ``vertex(-1 - i)``.
        An edge key's base is the lesser of the edge's two ends."""
        nc, npp, nn = len(self.core), len(self.pos_period), len(self.neg_period)
        ps = [add(self.junction, v) for v in self._pos_cum]
        ns = [sub(self.base, v) for v in self._neg_suffix]
        pos = [(nc + i, npp, ps[i], *sorted(ps[i : i + 2]), a) for i, (a, _) in enumerate(self.pos_period)]
        neg = [
            (-1 - i, -nn, ns[i + 1], *sorted(ns[i : i + 2]), a)
            for i, (a, _) in enumerate(self.neg_period[::-1])
        ]
        dpos, dneg = self.pos_displacement, self.neg_displacement
        return (
            _Tail(self.junction, dpos, _escape_axis(dpos), tuple(pos)),
            _Tail(self.base, dneg, _escape_axis(dneg), tuple(neg)),
        )


def _cycle(word: StepWord, lo: int, hi: int) -> StepWord:
    """``word[t % len(word)]`` for ``lo <= t < hi``: empty when ``hi <= lo``,
    as the repeat count is then at most 1 and the slice ends before it starts."""
    start, n = lo % len(word), hi - lo
    return (word * ((start + n - 1) // len(word) + 1))[start : start + n]


class _Tail(NamedTuple):
    """One tail walked outward from ``start``, ``disp`` per period, escaping
    along ``axis``.  Letter ``(t, dt, v, lo, hi, axis)`` walks edge
    ``t + q * dt`` of period ``q``, whose vertex ``vertex(t + q * dt)`` is
    ``v + q * disp`` and whose key is ``(lo + q * disp, axis)``, ``hi`` being
    the key's other end."""

    start: Vertex
    disp: Vertex
    axis: int
    letters: tuple[tuple[int, int, Vertex, Vertex, Vertex, int], ...]


def _periods(lo: Vertex, hi: Vertex, disp: Vertex, box: Region) -> range:
    """The periods ``q >= 0`` with ``lo + q * disp`` and ``hi + q * disp``
    both in ``box``, for ``lo <= hi`` componentwise: a tail letter's vertex
    (``lo == hi``) or the two ends of its edge.  Affine in ``q``, so an
    interval, bounded as ``disp`` is nonzero."""
    q0, q1 = 0, None
    for l, h, d, bl, bh in zip(lo, hi, disp, *box):
        if d > 0:
            q0 = max(q0, -((l - bl) // d))
            top = (bh - h) // d
        elif d < 0:
            q0 = max(q0, -((bh - h) // -d))
            top = (l - bl) // -d
        elif bl <= l and h <= bh:
            continue
        else:
            return range(0)
        if q1 is None or top < q1:
            q1 = top
    return range(q0, q1 + 1)


def _ends(flags: list[bool]) -> list[int]:
    """The first and the last index of a True in ``flags``; empty when none."""
    return [flags.index(True), len(flags) - 1 - flags[::-1].index(True)] if True in flags else []


def _check_tail_cap(tail: _Tail, box: Region) -> None:
    """Raise TooLarge when walking ``tail`` until a period lies past ``box``
    along its escape axis could take more than ``MAX_TAIL_LETTERS`` letters:
    a period gains ``|disp|`` along that axis and strays at most its length."""
    disp, axis, n = tail.disp, tail.axis, len(tail.letters)
    sign = 1 if disp[axis] > 0 else -1
    limit = box.hi[axis] if sign > 0 else -box.lo[axis]
    bound = ((max(0, limit - sign * tail.start[axis]) + n) // abs(disp[axis]) + 2) * n
    if bound > MAX_TAIL_LETTERS:
        raise TooLarge(
            f"a tail needs up to {bound} steps to leave the region (at most {MAX_TAIL_LETTERS})"
        )


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
    new_steps = tuple(new_steps)
    if _word_displacement(new_steps) != sub(spec.vertex(t_hi), spec.vertex(t_lo)):
        raise ValueError("replacement steps do not connect the window endpoints")
    return InfinitePathSpec(*_spliced(spec, t_lo, t_hi, new_steps))


def _splice_monotone(spec: InfinitePathSpec, t_lo: int, t_hi: int, new_steps: StepWord) -> InfinitePathSpec:
    """:func:`replace_window` without its checks, the one certified way to
    build a spec: ``[t_lo, t_hi)`` must be every edge of ``spec`` inside a
    box region that holds no other vertex of it, and ``new_steps`` a
    monotone word from ``vertex(t_lo)`` to ``vertex(t_hi)``.  Such a word
    stays in the box of its two ends, inside the region, so it visits no
    vertex twice and misses every vertex kept; the periods are the same, so
    the spec is self-avoiding."""
    return InfinitePathSpec._make(_spliced(spec, t_lo, t_hi, new_steps))


def _spliced(spec: InfinitePathSpec, t_lo: int, t_hi: int, new_steps: StepWord) -> tuple:
    """The fields of the spec with ``new_steps`` on ``[t_lo, t_hi)``."""
    a, b = aligned_window(spec, t_lo, t_hi)
    core = spec.realize_steps(a, t_lo - 1) + new_steps + spec.realize_steps(t_hi, b - 1)
    return spec.neg_period, core, spec.pos_period, spec.vertex(a)


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
    """Raise SelfIntersecting unless the spec's walk is self-avoiding.

    After the period checks, a string whose letters keep one sign per axis
    across both periods and the core is accepted outright: along it
    ``sum(s_a * v_a)`` rises by 1 per step, so no vertex repeats.  Any other
    string goes to :func:`_self_avoiding`, which meets each tail's families
    with the core by one coset index read from the box of the ends of their
    in-box runs, and a rejection to :func:`_name_revisit`, which reads the same
    ``_tails`` and the same same-heading test (:func:`_tails_apart`) and
    walks its window once to name the first revisit."""
    if not spec.neg_period or not spec.pos_period:
        raise SelfIntersecting("period words must be nonempty")
    if spec.pos_displacement == (0, 0, 0) or spec.neg_displacement == (0, 0, 0):
        raise SelfIntersecting("period word has zero net displacement")
    if _one_sign_per_axis(spec._core_counts.keys() | {*spec.neg_period, *spec.pos_period}):
        return
    if not _self_avoiding(spec):
        _name_revisit(spec)


def _one_sign_per_axis(letters: AbstractSet[Direction]) -> bool:
    """Whether ``letters`` are directions keeping one sign per axis: a word
    of them is monotone.  Anything else takes the walk, which rejects a
    letter that is no direction."""
    return letters <= _MOVES.keys() and len(dict(letters)) == len(letters)


def _self_avoiding(spec: InfinitePathSpec) -> bool:
    """Whether the bi-infinite walk visits no vertex twice (so no edge
    twice), decided in closed form: the core's vertices are distinct, and
    each tail letter's vertex family ``v + q * disp`` (``q >= 0``) meets
    neither another letter's family, the core nor the other tail's.

    Two points meet when they share a coset of ``Z * disp`` (:func:`_coset`)
    and its index.  So a tail's letters need distinct cosets, and a family's
    run of periods in ``core_box`` past the junction meets the core when a
    core vertex of its coset has an index at or past the run's first (that
    vertex is in ``core_box``, so in the run).  Each tail reads the greatest
    index per coset from the core vertices in the box of its runs' ends; a
    monotone core is walked only when a family enters ``core_box``."""
    if not spec._core_monotone and len(set(spec.core_vertices)) != len(spec.core) + 1:
        return False
    box, nc = spec.core_box, len(spec.core)
    for tail in spec._tails:
        disp, cosets, runs = tail.disp, set(), []
        for t, _, v, _, _, _ in tail.letters:
            r, k = _coset(v, disp, tail.axis)
            if r in cosets:
                return False
            cosets.add(r)
            # the junction is the positive tail's own first vertex
            qs = _periods(v, v, disp, box)[t == nc :]
            if qs:
                runs.append((r, k + qs[0], v, qs[0], qs[-1]))
        if runs:
            ends = (add(v, scale(disp, q)) for _, _, v, q0, q1 in runs for q in (q0, q1))
            tops: dict[Vertex, int] = {}
            for w in compress(spec.core_vertices, spec._inside(bounding_region(ends))):
                r, k = _coset(w, disp, tail.axis)
                tops[r] = max(k, tops.get(r, k))
            if any(tops.get(r, k - 1) >= k for r, k, _, _, _ in runs):
                return False
    return _tails_apart(*spec._tails)


def _coset(v: Vertex, u: Vertex, axis: int) -> tuple[Vertex, int]:
    """``(r, k)`` with ``v == r + k * u`` and ``r`` the same for every point
    of ``v + Z * u``, for ``u[axis] != 0``."""
    k = v[axis] // u[axis]
    return (v[0] - k * u[0], v[1] - k * u[1], v[2] - k * u[2]), k


def _tails_apart(pos: _Tail, neg: _Tail) -> bool:
    """Whether no positive family ``v + q * d`` meets a negative family
    ``w + r * e`` (``q, r >= 0``), decided in closed form from the letters'
    cosets along a common line, or else their plane coordinates, with only
    the letter pairs that sorting leaves able to meet tested one by one."""
    d, e = pos.disp, neg.disp
    vs = [v for _, _, v, _, _, _ in pos.letters]
    ws = [w for _, _, w, _, _, _ in neg.letters]
    n = _cross(d, e)
    if n == (0, 0, 0):
        # common line: d == g * u and e == b * u along a primitive u, and two
        # points of one coset of Z * u meet when their indices do
        u, g = _primitive(d)
        axis = _escape_axis(u)
        b = e[axis] // u[axis]
        pos_cosets = [_coset(v, u, axis) for v in vs]
        neg_cosets = [_coset(w, u, axis) for w in ws]
        h = math.gcd(g, b)
        if b > 0:
            # same heading: k + q * g == l + r * b has a solution with q, r
            # >= 0 exactly when h divides l - k
            return not {(r, k % h) for r, k in pos_cosets} & {(r, l % h) for r, l in neg_cosets}
        # opposite headings: l - k == q * g + j * |b| for some q, j >= 0, so
        # only the positive indices k <= l of l's coset can meet it; the j
        # with j * |b| == l - k (mod g) recur with period g / h
        b = -b
        below: dict[Vertex, list[int]] = {}
        for r, k in sorted(pos_cosets, key=lambda c: c[1]):
            below.setdefault(r, []).append(k)
        for r, l in neg_cosets:
            ks = below.get(r, [])
            for k in ks[: bisect_right(ks, l)]:
                if any((l - k - j * b) % g == 0 for j in range(min((l - k) // b, g // h - 1) + 1)):
                    return False
        return True
    # independent headings: in coordinates S, S2 along the common plane
    # normal to n, the positive family moves S and the negative family S2,
    # each by n . n per period; a negative letter meets a positive one of its
    # plane and residues with S <= its S and S2 >= its S2
    m = _dot(n, n)
    along_d, along_e = _cross(e, n), _cross(n, d)

    def coordinates(v):
        s, s2 = _dot(along_d, v), _dot(along_e, v)
        return (_dot(n, v), s % m, s2 % m), s, s2

    targets: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for w in ws:
        key, s, s2 = coordinates(w)
        targets.setdefault(key, []).append((s, s2))
    groups: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for v in vs:
        key, s, s2 = coordinates(v)
        if key in targets:
            groups.setdefault(key, []).append((s, s2))
    for key, entries in groups.items():
        # S ascending beside the running maximum of S2
        entries.sort()
        ss, top = [s for s, _ in entries], list(accumulate((s2 for _, s2 in entries), max))
        for s, s2 in targets[key]:
            i = bisect_right(ss, s)
            if i and top[i - 1] >= s2:
                return False
    return True


def _cross(u: Vertex, v: Vertex) -> Vertex:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u: Vertex, v: Vertex) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _name_revisit(spec: InfinitePathSpec) -> None:
    """Name the first revisit of a spec :func:`_self_avoiding` rejected:
    walk once a truncation window certified to hold it, sized from the
    cached ``_tails``, and raise SelfIntersecting at its first repeated edge
    or vertex.  The window's bounds split by heading as :func:`_tails_apart`
    splits it; tails with one heading that its coset test finds meeting
    meet again ever further out, so they are rejected without a walk."""
    pos, neg = spec._tails
    dpos, dneg = pos.disp, neg.disp
    # enough tail periods to carry each tail past the core's box and the
    # first period of either tail, both of its ends included
    all_vs = [*spec.core_box, add(pos.start, dpos), neg.start]
    all_vs += [v for tail in (pos, neg) for _, _, v, _, _, _ in tail.letters]
    k_pos, k_neg = (_extent(all_vs, t.axis) // abs(t.disp[t.axis]) + 1 for t in (pos, neg))
    n = _cross(dpos, dneg)
    if n != (0, 0, 0):
        # independent headings: Cramer bound over the two axes other than
        # the first nonzero component of n, whose minor is that component
        i = next(a for a in AXES if n[a])
        a, b = (c for c in AXES if c != i)
        ra, rb, det = _extent(all_vs, a) + 2, _extent(all_vs, b) + 2, abs(n[i])
        k_pos = max(k_pos, (ra * abs(dneg[b]) + rb * abs(dneg[a])) // det + 1)
        k_neg = max(k_neg, (ra * abs(dpos[b]) + rb * abs(dpos[a])) // det + 1)
    elif dpos[pos.axis] * dneg[pos.axis] < 0:
        # opposite headings along a common line: bounded interaction
        a = pos.axis
        bound = (_extent(all_vs, a) + 2) // min(abs(dpos[a]), abs(dneg[a])) + 1
        k_pos, k_neg = max(k_pos, bound), max(k_neg, bound)
    elif not _tails_apart(pos, neg):
        raise SelfIntersecting("tail windows collide on a shared line")
    k_pos, k_neg = max(3, k_pos) + 1, max(3, k_neg) + 1

    # step t walks from walked[i - 1] to walked[i], i = t - lo + 1; up to the
    # first repeat every vertex has one time, so a repeated edge is a step
    # undoing the one before it
    lo = -k_neg * len(spec.neg_period)
    hi = len(spec.core) + k_pos * len(spec.pos_period) - 1
    walked = _cumulative(spec.realize_steps(lo, hi), spec.vertex(lo))
    seen = set()
    for i, v in enumerate(walked):
        if v in seen:
            what = "edge" if walked[i - 2] == v else "vertex"
            raise SelfIntersecting(f"{what} revisited at parameter {lo + i - 1}")
        seen.add(v)


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
    used = spec._core_counts.keys() | {*spec.neg_period, *spec.pos_period}
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


def _ray_class(tail: _Tail, word: StepWord) -> tuple[Vertex, int, frozenset[tuple[Vertex, int, int]]]:
    """The class of the edge set ``tail`` walks from some period on, for
    ``word`` its period word: the heading ``u``, the set's least period
    ``m`` along ``u``, and each letter's edge family as its coset of
    ``Z * u``, axis and index mod ``m``.  Two tails end in the same edge set
    exactly when their classes agree.  A shift that maps the set onto itself
    maps the walk onto itself, so ``m`` is the displacement of ``word``'s
    primitive root: ``Z+`` and ``Z+Z+`` have one class."""
    u, g = _primitive(tail.disp)
    n = len(word)
    root = next(d for d in range(1, n + 1) if n % d == 0 and word[d:] == word[:-d])
    m = g * root // n
    cosets = [(_coset(lo, u, tail.axis), axis) for _, _, _, lo, _, axis in tail.letters]
    return u, m, frozenset((r, axis, k % m) for (r, k), axis in cosets)


def path_equivalent(p: InfinitePathSpec, q: InfinitePathSpec) -> bool:
    """Whether the realized edge sets differ in only finitely many edges.

    A spec's two tails share no vertex, so a tail can end inside only one
    tail of the other spec: the specs are equivalent exactly when their
    tails' classes (:func:`_ray_class`) pair up, straight or flipped.
    Equal specs realize the same walk and return True without a comparison.
    """
    if p == q:
        return True
    (p_pos, p_neg), (q_pos, q_neg) = p._tails, q._tails
    a = _ray_class(p_pos, p.pos_period), _ray_class(p_neg, p.neg_period)
    b = _ray_class(q_pos, q.pos_period), _ray_class(q_neg, q.neg_period)
    return a == b or a == b[::-1]
