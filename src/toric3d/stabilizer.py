"""Exact F2 stabilizer verifier on finite blocks.

Everything here works with Pauli supports only: an operator is a pair of
supports (x flips, z flips) over the qubit edges of a finite block, and all
statements reduce to symplectic parities and F2 ranks.  A qubit is its cell
code, and codes step by 3 along a z-column, so a support is a union of
z-runs; it is stored as its run bounds ``S ^ (S + 3)``, the codes where
membership changes as one walks up a column.  Work grows with the run
count, not with the weight and not with the block; only the elimination
rows of the exhaustive checks are int bitsets, bit ``c`` for the code
``c``.  That every star product is a net is checked on the ``n^3``
generating stars, exactly by linearity; the products' distinctness and, at
n = 1, the boundary fibers of all the nets are still enumerated, the nets
in ascending order as chunks of packed lanes.  This module is the
cross-check for the combinatorial energy and linking computations.  It
reads explicit edge sets and shares no tail read with ``energy``:
``configuration_flip`` takes each string's crossing of ``clip`` from one
explicit window of ``realize_steps`` sized from the tail displacements.

The block of side ``n`` contains the ``n^3`` vertices nearest the origin,
every edge with at least one endpoint among them, every face with at least
one corner among them, and the extra edges of those faces as a boundary
fringe.  Qubits live on all these edges.  A block keeps only its bounds and
its code arithmetic, and its geometry is read from them: each column's
z-range (``_column``) is the one rule for which edges it holds, which the
Paulis, curtains and charge tails obey and from which the edge lists are
built on first read; whether a vertex or a region's plaquettes lie in the
block is read in closed form.  Curtains and charge tails are summed per
column into run bounds.  Syndromes shift only the bounds: the stabilizers
toggled an odd number of times form runs too, whose bounds are the points
that the support's bounds, shifted by fixed per-axis code deltas, reach an
odd number of times; each odd run is decoded once and clipped to the
region.  The conjugation sign is read from the bounds in one sorted merge.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from . import _kernels
from .errors import DimensionMismatch, MultipleCrossings, OutOfRegion, TooLarge
from .lattice import (
    AXES,
    Edge,
    EdgeKey,
    Face,
    Region,
    Vertex,
    add,
    boundary_edge,
    edge_from,
    edges_of_vertex,
    face_keys,
    primal_face_of_edge,
    sub,
    unit,
)
from .paths import MAX_TAIL_LETTERS, InfinitePathSpec, _cumulative
from .transforms import Configuration


def _plaquette_offsets(axis: int) -> tuple[tuple[Vertex, int], ...]:
    """Dual-edge keys, relative to an edge's base, of the four plaquettes
    around an edge along ``axis``: the faces ``(base, n)`` and
    ``(base - e_m, n)`` for each normal ``n != axis`` (``m`` the third axis),
    each keyed by its dual edge one step down the normal."""
    out: list[tuple[Vertex, int]] = []
    for normal in AXES:
        if normal != axis:
            d = sub((0, 0, 0), unit(normal))
            out += [(d, normal), (sub(d, unit(3 - axis - normal)), normal)]
    return tuple(out)


_PLAQUETTE_OFFSETS = tuple(_plaquette_offsets(a) for a in AXES)


class FiniteLattice:
    """Finite block whose qubits are indexed by their cell codes.

    Building one computes only the bounds and the code arithmetic, and
    ``n_qubits`` is the closed form ``3n (n + 1) (n + 4)``.  The vertices,
    the edges and the faces are listed in sorted key order on first read,
    the edges from ``_column``.  An edge is interior when an endpoint lies
    in the cube.  It is in the fringe when one of its faces has a corner in
    the cube: its own axis reaches the cube and at most one of its two other
    coordinates lies one step outside.

    The cell ``(v, axis)`` has the code ``3 * linear(v) + axis``, where
    ``linear`` numbers the grid of side ``n + 4`` that starts two steps below
    the cube: the qubit ``key`` has the code ``code(key)``, and every star
    and plaquette of a qubit gets a non-negative code too.  A star is coded
    as its vertex's cell along x, a plaquette as its dual edge's cell, and
    both sit at fixed code deltas from the qubit's own code, one tuple per
    qubit axis.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("lattice side must be >= 1")
        self.n = n
        lo = -(n // 2)
        hi = lo + n - 1
        self.lo = (lo, lo, lo)
        self.hi = (hi, hi, hi)
        # per axis n^2 (n + 1) interior edges and 4n (n + 1) fringe edges
        self.n_qubits = 3 * n * (n + 1) * (n + 4)
        self.width, self.shift = n + 4, 2 - lo
        self.strides = (3 * self.width**2, 3 * self.width, 3)
        self.origin = sum(self.strides) * self.shift
        self.star_deltas = tuple((-a, self.strides[a] - a) for a in AXES)
        self.plaquette_deltas = tuple(
            tuple(self.code((d, normal)) - self.code(((0, 0, 0), a)) for d, normal in _PLAQUETTE_OFFSETS[a])
            for a in AXES
        )

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, qubits={self.n_qubits})"

    def code(self, key: EdgeKey) -> int:
        """The cell code of ``key``: the qubit ``key`` in a Pauli support's
        runs, and its bit in an elimination row."""
        (x, y, z), axis = key
        sx, sy, sz = self.strides
        return x * sx + y * sy + z * sz + axis + self.origin

    @cached_property
    def vertices(self) -> list[Vertex]:
        cube = range(self.lo[0], self.hi[0] + 1)
        return list(product(cube, cube, cube))

    def _edges(self, interior: bool) -> list[EdgeKey]:
        """The interior or the fringe edges, in sorted key order, read off
        each column's ``_column`` z-range: an edge along ``axis`` is interior
        when its two other coordinates, ``axis - 1`` and ``axis - 2``, lie in
        the cube."""
        lo, hi = self.lo[0], self.hi[0]
        near = range(lo - 1, hi + 2)
        out: list[EdgeKey] = []
        for x, y in product(near, near):
            spans = [_column(self, x, y, axis) for axis in AXES]
            for z in near:
                inside = (lo <= x <= hi, lo <= y <= hi, lo <= z <= hi)
                for axis, span in enumerate(spans):
                    if span and span[0] <= z <= span[1] and (inside[axis - 1] and inside[axis - 2]) == interior:
                        out.append(((x, y, z), axis))
        return out

    @cached_property
    def interior_edges(self) -> list[EdgeKey]:
        return self._edges(True)

    @cached_property
    def boundary_edges(self) -> list[EdgeKey]:
        return self._edges(False)

    @cached_property
    def qubits(self) -> list[EdgeKey]:
        return self.interior_edges + self.boundary_edges

    @cached_property
    def faces(self) -> list[Face]:
        """Faces with a corner in the cube: the normal coordinate in the cube,
        the two in-plane ones at most one step below it."""
        lo, hi = self.lo[0], self.hi[0]
        near = range(lo - 1, hi + 1)
        return [
            Face(b, normal)
            for b in product(near, near, near)
            for normal in AXES
            if b[normal] >= lo
        ]

    @cached_property
    def star_matrix(self) -> list[int]:
        # a star's six edges sit at its code minus the star deltas, so the rows
        # are one pattern shifted to each star's code, stepped by the strides
        deltas = [d for pair in self.star_deltas for d in pair]
        top = max(deltas)
        pattern = _kernels.vector(top - d for d in deltas)
        xs, ys, zs = (range(self.lo[0] * s, (self.hi[0] + 1) * s, s) for s in self.strides)
        return [pattern << self.origin - top + x + y + z for x in xs for y in ys for z in zs]

    @cached_property
    def face_matrix(self) -> list[int]:
        # a face's four edges sit at one pattern per normal above its base's x cell
        patterns = [_kernels.vector(self.code(k) - self.origin for k in face_keys(Face((0, 0, 0), a))) for a in AXES]
        return [patterns[normal] << self.code((base, 0)) for base, normal in self.faces]


def _column(lat: FiniteLattice, x: int, y: int, axis: int) -> tuple[int, int] | None:
    """The z-range of the block's edges ``((x, y, z), axis)``, or None when
    the block has none.  An edge lies in the block when its own coordinate
    runs from one step below the cube to its top, and its two others lie at
    most one step outside the cube, not both outside."""
    lo, hi = lat.lo[0], lat.hi[0]
    if not (lo - 1 <= x <= hi + 1 and lo - 1 <= y <= hi + 1):
        return None
    if axis == 2:
        return (lo - 1, hi) if lo <= x <= hi or lo <= y <= hi else None
    along, across = (x, y) if axis == 0 else (y, x)
    if along > hi:
        return None
    return (lo - 1, hi + 1) if lo <= across <= hi else (lo, hi)


class PauliOperator(NamedTuple):
    """Phase-free Pauli over a lattice's qubits.  ``x`` and ``z`` hold each
    support ``S``, a set of cell codes (``lat.code(key)`` for the qubit
    ``key``), as its run bounds ``S ^ (S + 3)``: the codes where membership
    changes as one walks up a z-column.  The map is one to one, since the
    bounds pair off into the runs again (``_runs``), and it is linear: the
    bounds of a sum are the XOR of the bounds.  A weight is the runs' total
    length, read without listing a code.

    Direct construction must pass well-formed bounds: an even number in each
    column.  Every constructor here builds only such sets, and nothing
    checks them at run time; a code set passed as its own bounds gives wrong
    weights and signs (a single code reads a negative weight)."""

    x: frozenset[int]
    z: frozenset[int]
    n_qubits: int

    @property
    def x_weight(self) -> int:
        return _weight(self.x)

    @property
    def z_weight(self) -> int:
        return _weight(self.z)


def _odd(items: Iterable) -> frozenset:
    """The items that occur an odd number of times: their sum mod 2."""
    return frozenset(item for item, count in Counter(items).items() if count & 1)


def _runs(bounds: Iterable[int]) -> list[tuple[list[int], list[int]]]:
    """Per residue mod 3, the starts and the ends of the runs
    ``range(start, end, 3)`` whose bounds are ``bounds``: split by residue
    and sorted, the bounds pair off alternately.  No run spans two columns,
    because each column holds an even number of bounds."""
    by_residue: tuple[list[int], ...] = ([], [], [])
    for b in bounds:
        by_residue[b % 3].append(b)
    for points in by_residue:
        points.sort()
    return [(points[::2], points[1::2]) for points in by_residue]


def _weight(bounds: frozenset[int]) -> int:
    return sum(sum(ends) - sum(starts) for starts, ends in _runs(bounds)) // 3


def _codes(lat: FiniteLattice, keys: Iterable[EdgeKey]) -> frozenset[int]:
    """The codes of ``keys`` mod 2: a repeated key cancels."""
    out = []
    for k in keys:
        (x, y, z), axis = k
        span = _column(lat, x, y, axis)
        if span is None or not span[0] <= z <= span[1]:
            raise OutOfRegion(f"edge {k} is outside the lattice block")
        out.append(lat.code(k))
    return _odd(out)


def _bounds(codes: frozenset[int]) -> frozenset[int]:
    """The run bounds of the support ``codes``."""
    return codes ^ frozenset([c + 3 for c in codes])


def pauli_from_keys(
    lat: FiniteLattice, x_keys: Iterable[EdgeKey] = (), z_keys: Iterable[EdgeKey] = ()
) -> PauliOperator:
    return PauliOperator(_bounds(_codes(lat, x_keys)), _bounds(_codes(lat, z_keys)), lat.n_qubits)


def star(lat: FiniteLattice, v: Vertex) -> PauliOperator:
    if not Region(lat.lo, lat.hi).contains_vertex(v):
        raise OutOfRegion(f"vertex {v} is outside the lattice block")
    return pauli_from_keys(lat, x_keys=[e.key for e in edges_of_vertex(tuple(v))])


def plaquette(lat: FiniteLattice, f: Face) -> PauliOperator:
    return pauli_from_keys(lat, z_keys=face_keys(f))


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return conjugation_sign(p, q) == 0


def _overlap_parity(a: frozenset[int], b: frozenset[int]) -> int:
    """``|A & B| mod 2`` for the supports whose run bounds are ``a`` and
    ``b``, read from the bounds in one sorted merge.

    A cell lies in ``A`` when an odd number of the bounds of its residue
    lie at or below it.  So, past some code ``K`` of that residue beyond
    every bound, ``|A & B|`` counts mod 2 over the same-residue pairs of
    bounds ``a, b`` the cells from ``max(a, b)`` to ``K``.  Every column
    holds an even number of bounds, so the pairs are even in number and
    only the parity of the sum of ``max(a, b)`` is left (a code and its
    cell index have one parity, 3 being odd).  In the merged order each
    bound is the max of its pairs with the other set's bounds of its
    residue already passed, and supports whose bounds do not interleave
    are disjoint."""
    if not a or not b or max(a) <= min(b) or max(b) <= min(a):
        return 0
    passed = ([0, 0, 0], [0, 0, 0])  # parity of the bounds passed, per set and residue
    parity = 0
    for key in sorted([2 * c for c in a] + [2 * c + 1 for c in b]):
        c, side = divmod(key, 2)
        parity ^= c & passed[1 - side][c % 3]
        passed[side][c % 3] ^= 1
    return parity


def conjugation_sign(p: PauliOperator, observable: PauliOperator) -> int:
    """Sign picked up by ``observable`` under conjugation by ``p`` (0 or 1).

    Conjugation by a Pauli never changes a Pauli's support, only its sign,
    which is the symplectic pairing of the two: the parity of the qubits
    where one's x meets the other's z, read from the run bounds without
    expanding them (``_overlap_parity``).
    """
    if p.n_qubits != observable.n_qubits:
        raise DimensionMismatch("operators live on different lattices")
    return _overlap_parity(p.x, observable.z) ^ _overlap_parity(p.z, observable.x)


def truncation_stable(
    observable: PauliOperator, op_short: PauliOperator, op_long: PauliOperator
) -> bool:
    """Whether two truncations of the same operator act identically on the
    observable: equal conjugation signs (supports are untouched either way)."""
    return conjugation_sign(op_short, observable) == conjugation_sign(op_long, observable)


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------


def _faces_in_block(lat: FiniteLattice, lo: Vertex, hi: Vertex, normal: int) -> bool:
    """Whether every face ``(b, normal)`` with ``lo <= b <= hi`` has its four
    edges in the block.  Those faces form the union of two boxes: the normal
    coordinate in the cube and the in-plane ones at most one step below it,
    or the normal coordinate at most one step outside the cube and the
    in-plane ones in the cube short of its top.  A box of faces lies in the
    union exactly when it lies in one of the two."""
    c_lo, c_hi = lat.lo[0], lat.hi[0]

    def within(in_plane: tuple[int, int], along_normal: tuple[int, int]) -> bool:
        ranges = [along_normal if a == normal else in_plane for a in AXES]
        return all(bottom <= lo[a] and hi[a] <= top for a, (bottom, top) in enumerate(ranges))

    return within((c_lo - 1, c_hi), (c_lo, c_hi)) or within((c_lo, c_hi - 1), (c_lo - 1, c_hi + 1))


def _check_plaquettes_in_block(lat: FiniteLattice, lo: Vertex, dual_hi: list[Vertex]) -> None:
    """Raise ``OutOfRegion`` unless every plaquette of the region lies in the
    block; its dual edges along ``axis`` have bases from ``lo`` to
    ``dual_hi[axis]``, so its plaquettes are the faces ``(b, axis)`` with
    ``lo + e_axis <= b <= dual_hi[axis] + e_axis``.  On failure the corners
    of that box are tested in turn, and the first one outside the block is
    named."""
    for axis, hi in enumerate(dual_hi):
        if hi[axis] < lo[axis]:
            continue
        step = unit(axis)
        if _faces_in_block(lat, add(lo, step), add(hi, step), axis):
            continue
        for base in product(*({lo[a], hi[a]} for a in AXES)):
            f = primal_face_of_edge(Edge(base, axis))
            if not _faces_in_block(lat, f.base, f.base, axis):
                raise OutOfRegion(f"plaquette {f} extends outside the lattice block")


def _count_odd(
    lat: FiniteLattice, bounds: frozenset[int], deltas: tuple[tuple[int, ...], ...], boxes: Sequence[Region]
) -> int:
    """How many cells, reached an odd number of times from the support with
    run ``bounds`` by their axis's ``deltas``, lie in ``boxes[axis]``, read
    from the runs' ends.  A cell's axis is its residue mod 3; the star
    deltas reach residue 0 only, so the star call passes one box.

    A run ``[s, e)`` shifted by ``d`` changes parity only at ``s + d`` and
    ``e + d``, so the points reached an odd number of times from the bounds
    are the bounds of the odd cells' runs.  They pair off into runs
    (``_runs``); only each run's first cell is decoded, and its z-range is
    clipped to its axis's box.  This is exact because no run wraps into the
    next column: qubit grid heights lie in ``1..n+2``, below ``width - 1``,
    so ``c + 3`` never leaves the column of ``c``, and odd cells lie at grid
    heights ``1..n+3`` in the star call and ``0..n+2`` in the plaquette
    call, so none sits on both sides of a column boundary.  The work grows
    with the run count, not with the weight."""
    counts = Counter([b + d for b in bounds for d in deltas[b % 3]])
    w, s = lat.width, lat.shift
    inside = 0
    for box, (starts, ends) in zip(boxes, _runs([point for point, count in counts.items() if count & 1])):
        (lx, ly, lz), (hx, hy, hz) = box
        # the box in the grid's coordinates
        lx, ly, lz, hx, hy, hz = lx + s, ly + s, lz + s, hx + s, hy + s, hz + s
        for start, end in zip(starts, ends):
            xy, z = divmod(start // 3, w)
            x, y = divmod(xy, w)
            if lx <= x <= hx and ly <= y <= hy:
                inside += max(0, min(hz, z + (end - start) // 3 - 1) - max(lz, z) + 1)
    return inside


def syndrome_energy(lat: FiniteLattice, flip: PauliOperator, region: Region) -> int:
    """2 x number of stabilizers in ``region`` anticommuting with ``flip``.

    Stars are attributed to their vertex read in primal coordinates;
    plaquettes to their dual edge read in dual coordinates, counted when both
    dual endpoints lie in the region.  Only the flip's support is read: each
    z-flipped edge toggles its two endpoint stars and each x-flipped edge its
    four plaquettes, reached from the edge's cell code by fixed deltas.  The
    support is held as its run bounds: only those are shifted by the deltas,
    and each run of odd stabilizers is decoded once and clipped to the
    region, so the work grows with the run count, not with the flip's
    weight (``_count_odd``).
    """
    if flip.n_qubits != lat.n_qubits:
        raise DimensionMismatch("flip built on a different lattice")
    lo, hi = region
    # a dual edge lies in the region when its base does and its far end
    # stays below the region's top along the edge's axis
    dual_hi = [sub(hi, unit(normal)) for normal in AXES]
    _check_plaquettes_in_block(lat, lo, dual_hi)
    star_box = Region(tuple(map(max, lo, lat.lo)), tuple(map(min, hi, lat.hi)))
    violated = _count_odd(lat, flip.z, lat.star_deltas, [star_box])
    violated += _count_odd(lat, flip.x, lat.plaquette_deltas, [Region(lo, d_hi) for d_hi in dual_hi])
    return 2 * violated


def gauge_rank(n: int | FiniteLattice) -> int:
    """F2 rank of the star generators on the side-``n`` block, or on ``n``
    itself when it is a ``FiniteLattice`` already built."""
    lat = n if isinstance(n, FiniteLattice) else FiniteLattice(n)
    return _kernels.rank(lat.star_matrix)


# ---------------------------------------------------------------------------
# configuration -> explicit flip operator (the verification bridge)
# ---------------------------------------------------------------------------


def _column_sum(lat: FiniteLattice, tops: Iterable[tuple[int, int, int, int]]) -> frozenset[int]:
    """Run bounds of the mod-2 sum, over each ``(x, y, axis, top)``, of the
    block's edges ``((x, y, z), axis)`` from ``z = top`` down to the column's
    floor; a top outside the column adds nothing.  That run's bounds are the
    floor's code and the code one past the top, so each top adds those two
    and repeats cancel in the parity pass.  ``top + 1`` is at most ``hi +
    2``, inside the column (see ``_count_odd``).  The work grows with the
    number of tops, not with the length of the runs."""
    sx, sy, sz = lat.strides
    out = []
    for x, y, axis, top in tops:
        span = _column(lat, x, y, axis)
        if span is not None and span[0] <= top <= span[1]:
            base = x * sx + y * sy + axis + lat.origin
            out += (base + span[0] * sz, base + (top + 1) * sz)
    return _odd(out)


def _curtain_edges(lat: FiniteLattice, dual_edges: Iterable[Edge]) -> frozenset[int]:
    """Run bounds of the primal edges piercing the vertical dual faces that
    hang below the horizontal edges of a dual path, clipped at the block's
    lower fringe.  The membrane's boundary is the path itself plus
    descender and floor junk near the block frontier.  Below the dual edge
    ``(x, y, z)`` along ``a`` hangs the column of primal edges along
    ``1 - a`` at ``(x + 1 - a, y + a)``, from height ``z`` down."""
    return _column_sum(
        lat,
        ((x + 1 - e.axis, y + e.axis, 1 - e.axis, z) for e in dual_edges if e.axis != 2 for x, y, z in [e.base]),
    )


def _tail_letters(clip: Region, start: Vertex, period: int, disp: Vertex) -> int:
    """Letters after which a tail walked from ``start``, ``period`` letters
    and ``disp`` per period, has left ``clip`` for good: each period gains
    ``|disp|`` along its escape axis and strays at most ``period`` letters
    back.  Raise TooLarge past ``MAX_TAIL_LETTERS``.  This is the cap that
    ``edges_in`` and ``energy`` put on a tail, restated so that the flip
    shares no tail read with them."""
    axis = max(AXES, key=lambda a: abs(disp[a]))
    sign = 1 if disp[axis] > 0 else -1
    limit = clip.hi[axis] if sign > 0 else -clip.lo[axis]
    letters = ((max(0, limit - sign * start[axis]) + period) // abs(disp[axis]) + 2) * period
    if letters > MAX_TAIL_LETTERS:
        raise TooLarge(
            f"a tail needs up to {letters} steps to leave the region (at most {MAX_TAIL_LETTERS})"
        )
    return letters


def _crossing(spec: InfinitePathSpec, clip: Region) -> list[Edge]:
    """The edges of the string's single crossing of ``clip``, or raise
    MultipleCrossings.  The crossing is read from one explicit window of
    steps, ``spec.realize_steps(a, b - 1)`` walked from ``spec.vertex(a)``,
    wide enough that both tails have left ``clip`` for good: it runs from
    the first to the last edge with both endpoints in ``clip``, and must
    hold every such edge and every vertex in ``clip``.  Only the crossing's
    edges are built."""
    b = len(spec.core) + _tail_letters(clip, spec.junction, len(spec.pos_period), spec.pos_displacement)
    a = -_tail_letters(clip, spec.base, len(spec.neg_period), spec.neg_displacement)
    steps = spec.realize_steps(a, b - 1)
    # vertex i of the window starts step i; the last vertex closes it
    vertices = _cumulative(steps, spec.vertex(a))
    (lx, ly, lz), (hx, hy, hz) = clip
    inside = [lx <= x <= hx and ly <= y <= hy and lz <= z <= hz for x, y, z in vertices]
    crossing = [i for i in range(len(steps)) if inside[i] and inside[i + 1]]
    if not crossing:
        raise MultipleCrossings("path has no edge inside the region")
    first, last = crossing[0], crossing[-1]
    if last - first + 1 != len(crossing):
        raise MultipleCrossings("path crosses the region more than once")
    touched = [i for i, here in enumerate(inside) if here]
    if touched[0] < first or touched[-1] > last + 1:
        raise MultipleCrossings("path touches the region outside its crossing")
    return list(map(edge_from, vertices[first : last + 1], steps[first : last + 1]))


def _extend_clear_of(path_edges: list[Edge], region: Region) -> list[Edge]:
    """Append +x steps at a top exit until the hanging descender would fall
    outside the region's footprint."""
    out = list(path_edges)
    for v, attach in ((boundary_edge(out[-1])[1], "end"), (boundary_edge(out[0])[0], "start")):
        if v[2] <= region.hi[2]:
            continue
        ext = []
        while region.lo[0] - 1 <= v[0] <= region.hi[0] + 1 and region.lo[1] - 1 <= v[1] <= region.hi[1] + 1:
            e = edge_from(v, (0, +1))
            ext.append(e)
            v = boundary_edge(e)[1]
        out = out + ext if attach == "end" else [e.reversed() for e in reversed(ext)] + out
    return out


def configuration_flip(
    lat: FiniteLattice, cfg: Configuration, region: Region, clip: Region
) -> PauliOperator:
    """Explicit Pauli whose excitation pattern inside ``region`` matches the
    configuration: curtain membranes for strings and loops, straight charge
    tails dropped to the block frontier.

    ``clip`` is the truncation box for the infinite strings; it must contain
    ``region`` with margin and each string must cross it exactly once.
    """
    dual_edges = [e for spec in cfg.strings for e in _extend_clear_of(_crossing(spec, clip), region)]
    dual_edges += [e for loop in cfg.loops for e in loop.edges]
    z_chain = _column_sum(lat, ((x, y, 2, z - 1) for x, y, z in cfg.charges))
    return PauliOperator(_curtain_edges(lat, dual_edges), z_chain, lat.n_qubits)


# ---------------------------------------------------------------------------
# exhaustive block checks
# ---------------------------------------------------------------------------


class NetCheckReport(NamedTuple):
    n: int
    gauge_order: int
    gauge_supports_distinct: bool
    gauge_supports_are_nets: bool
    interior_nullity: int
    ground_space_dim: int
    single_orbit: bool
    boundary_conditions: int | None
    fiber_sizes_equal: bool | None
    bitflip_bijection: bool | None


def _edge_rows_over_faces(lat: FiniteLattice, edge_keys: Sequence[EdgeKey]) -> list[int]:
    incident: dict[EdgeKey, list[int]] = {k: [] for k in edge_keys}
    for i, f in enumerate(lat.faces):
        for key in face_keys(f):
            if key in incident:
                incident[key].append(i)
    return [_kernels.vector(incident[k]) for k in edge_keys]


def _are_nets(rows: Sequence[int], faces: Sequence[int]) -> bool:
    """Whether every F2 sum of ``rows`` meets each face evenly: the parity
    ``|r & f| mod 2`` is linear in ``r``, so the rows decide it for their span."""
    return not any((row & face).bit_count() & 1 for row in rows for face in faces)


# Nets per chunk of the n = 1 checks, as ``2^_CHUNK_ROWS`` lanes: 4096 nets
# make a 16 KB int at 31 bits a lane, so each chunk's checks are a few
# C-level big-int operations, while a single int of all 2^18 nets would be
# slower to shift and hold 1 MB at a time.
_CHUNK_ROWS = 12


def _lane_diff(diffs: dict[int, int], packed: int, shift: int) -> int:
    """``packed ^ packed >> shift``, computed once per shift of a chunk."""
    if shift not in diffs:
        diffs[shift] = packed ^ packed >> shift
    return diffs[shift]


def _fiber_checks(chunks: Iterable[tuple[int, int]], width: int, n_interior: int, interior_basis: list[int]):
    """``(boundary_conditions, fibers_equal, bijection)`` of the sorted nets,
    read as lanes.  Each chunk is ``(packed, lanes)``: consecutive nets
    packed ``width`` bits apart, each lane's top bit a clear guard bit.
    Every chunk but the last holds a whole number of blocks (below).

    Interior qubits are the low bits, so each boundary condition's nets (its
    fiber) form one run, and two nets differ on the boundary exactly when
    their XOR has a bit at ``n_interior`` or above.  The runs are counted
    over every adjacent pair of nets: inside a chunk, a pair that differs on
    the boundary carries into its lane's guard bit, and each seam between
    chunks is one comparison.  The nets split into aligned blocks of ``2^k``;
    the fibers are equal when each block keeps one boundary (its first and
    last lane agree on it) and the runs are as many as the blocks.  The least
    element of a coset of the interior group ``G`` is zero on ``G``'s
    leading bits, so the sorted coset is that element XOR the sorted ``G``:
    the boundary bit-flip pairs every fiber with a coset when each block's
    ``j``-th lane is its first XOR ``G[j]``.

    All three tests read a chunk's lane differences ``packed ^ packed >> s``,
    each computed once per shift ``s``: the runs at ``width``, the block test
    at ``width * (fiber - 1)`` and the bit-flip test at each ``width * j``.
    At n = 1 the fiber is 2, so one difference serves all three.
    """
    fiber = 2 ** len(interior_basis)
    group = sorted(_kernels.span(interior_basis))
    guard = 1 << (width - 1)
    boundary = guard - (1 << n_interior)
    runs = nets = 0
    fibers_equal = bijection = True
    last = size = None
    for packed, lanes in chunks:
        if lanes != size:
            size = lanes
            ones = _kernels.lane_ones(width, lanes)
            pairs, carry, guards = boundary * (ones >> width), (guard - 1) * ones, guard * ones
            starts = _kernels.lane_ones(width * fiber, lanes // fiber)
            block_ends, kept, whole = width * (fiber - 1), boundary * starts, (guard - 1) * starts
            flips = [(width * j, g * starts) for j, g in enumerate(group) if j]
        diffs = {width: packed ^ packed >> width}
        runs += ((diffs[width] & pairs) + carry & guards).bit_count()
        # across the seam: the first net starts a run, a later chunk's first
        # net does when it leaves the previous chunk's last net's boundary
        runs += last is None or (last ^ packed & boundary) & boundary != 0
        last = packed >> width * (lanes - 1)
        nets += lanes
        if fibers_equal:
            fibers_equal = lanes % fiber == 0 and not _lane_diff(diffs, packed, block_ends) & kept
        if fibers_equal and bijection:
            bijection = all(_lane_diff(diffs, packed, shift) & whole == flip for shift, flip in flips)
    fibers_equal = fibers_equal and nets == runs * fiber
    return runs, fibers_equal, fibers_equal and bijection


def surface_net_checks(n: int) -> NetCheckReport:
    """Exhaustive gauge-orbit and boundary-condition checks on a small block.

    Verifies that the ``2^(n^3)`` star products flip pairwise distinct edge
    sets (orthogonality of the resulting product states) and are nets, that
    the closed interior flip sets form a single gauge orbit (one ground
    vector per boundary condition), and, at n = 1, that every boundary
    condition carries the same number of nets with the boundary bit-flip map
    as the explicit pairing.  The net parity is checked on the ``n^3``
    generating stars, exactly by linearity; the distinctness of the products
    and the n = 1 fibers are still enumerated in full.
    """
    if n**3 > 8:
        raise TooLarge("gauge enumeration limited to 2^(n^3) <= 256")
    lat = FiniteLattice(n)

    supports = _kernels.span(lat.star_matrix)
    distinct = len(set(supports)) == len(supports)
    are_nets = _are_nets(lat.star_matrix, lat.face_matrix)

    interior_basis = _kernels.nullspace(_edge_rows_over_faces(lat, lat.interior_edges))
    nullity = len(interior_basis)
    gauge_order = 2 ** (n**3)
    dim = 2**nullity // gauge_order
    single_orbit = 2**nullity == gauge_order

    boundary_conditions = fibers_equal = bijection = None
    if n == 1:
        width = lat.n_qubits + 1  # one guard bit above each net's bits
        net_basis = _kernels.nullspace(_edge_rows_over_faces(lat, lat.qubits))
        nets = _kernels.sorted_span(net_basis, width, _CHUNK_ROWS)
        n_interior = len(lat.interior_edges)
        boundary_conditions, fibers_equal, bijection = _fiber_checks(nets, width, n_interior, interior_basis)

    return NetCheckReport(
        n=n,
        gauge_order=gauge_order,
        gauge_supports_distinct=distinct,
        gauge_supports_are_nets=are_nets,
        interior_nullity=nullity,
        ground_space_dim=dim,
        single_orbit=single_orbit,
        boundary_conditions=boundary_conditions,
        fiber_sizes_equal=fibers_equal,
        bitflip_bijection=bijection,
    )


# ---------------------------------------------------------------------------
# truncation families (straight charge strings, growing membranes)
# ---------------------------------------------------------------------------


def straight_string_pauli(lat: FiniteLattice, v: Vertex, length: int) -> PauliOperator:
    """Z-string from ``v`` stretching ``length`` steps straight down."""
    x, y, z = v
    return pauli_from_keys(lat, z_keys=[((x, y, z - k), 2) for k in range(1, length + 1)])


def growing_membrane_pauli(lat: FiniteLattice, line_start: Vertex, length: int) -> PauliOperator:
    """Membrane hanging below a dual +x segment of the given length."""
    x, y, z = line_start
    edges = [Edge((x + k, y, z), 0) for k in range(length)]
    return PauliOperator(_curtain_edges(lat, edges), frozenset(), lat.n_qubits)
