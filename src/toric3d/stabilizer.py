"""Exact F2 stabilizer verifier on finite blocks.

Everything here works with Pauli supports only: an operator is a pair of
int bitsets (x flips, z flips) over the qubit edges of a finite block,
and all statements reduce to symplectic parities and F2 ranks.  This module
is the cross-check for the combinatorial energy and linking computations.
It reads explicit edge sets, except that ``configuration_flip`` takes each
string's crossing of ``clip`` from ``walk_in``, the tail walk that ``energy``
reads too: a fault in that walk can cancel out in the energy check.

The block of side ``n`` contains the ``n^3`` vertices nearest the origin,
every edge with at least one endpoint among them, every face with at least
one corner among them, and the extra edges of those faces as a boundary
fringe.  Qubits live on all these edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product, repeat
from operator import eq, gt, le, xor
from typing import Iterable, Sequence

from . import _kernels
from .errors import DimensionMismatch, OutOfRegion, TooLarge
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
    face_edges,
    primal_face_of_edge,
    sub,
    unit,
)
from .transforms import Configuration, _segment_steps


class FiniteLattice:
    """Finite block with dense edge indexing.

    Edges and faces are listed in closed form, in sorted key order.  An edge
    is interior when an endpoint lies in the cube.  It is in the fringe when
    one of its faces has a corner in the cube: its own axis reaches the cube
    and at most one of its two other coordinates lies one step outside.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("lattice side must be >= 1")
        self.n = n
        lo = -(n // 2)
        hi = lo + n - 1
        self.lo = (lo, lo, lo)
        self.hi = (hi, hi, hi)
        side = range(lo, hi + 1)
        self.vertices: list[Vertex] = list(product(side, side, side))
        self.vertex_set = set(self.vertices)
        self.interior_edges: list[EdgeKey] = []
        self.boundary_edges: list[EdgeKey] = []
        wide = range(lo - 1, hi + 2)
        for v in product(wide, wide, wide):
            outside = [not lo <= c <= hi for c in v]
            n_outside = sum(outside)
            for axis in AXES:
                if v[axis] > hi:
                    continue
                transverse = n_outside - outside[axis]
                if transverse == 0:
                    self.interior_edges.append((v, axis))
                elif transverse == 1:
                    self.boundary_edges.append((v, axis))
        self.qubits: list[EdgeKey] = self.interior_edges + self.boundary_edges
        self.edge_index: dict[EdgeKey, int] = {k: i for i, k in enumerate(self.qubits)}
        self.n_qubits = len(self.qubits)

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, qubits={self.n_qubits})"

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
        return [
            _kernels.vector(self.edge_index[e.key] for e in edges_of_vertex(v))
            for v in self.vertices
        ]

    @cached_property
    def face_matrix(self) -> list[int]:
        return [
            _kernels.vector(self.edge_index[e.key] for e in face_edges(f))
            for f in self.faces
        ]


@dataclass(frozen=True)
class PauliOperator:
    """Phase-free Pauli: x and z supports over a lattice's qubits as int bitsets."""

    x: int
    z: int
    n_qubits: int

    @property
    def x_weight(self) -> int:
        return self.x.bit_count()

    @property
    def z_weight(self) -> int:
        return self.z.bit_count()


def _indices(lat: FiniteLattice, keys: Iterable[EdgeKey]) -> list[int]:
    out = []
    for k in keys:
        idx = lat.edge_index.get(k)
        if idx is None:
            raise OutOfRegion(f"edge {k} is outside the lattice block")
        out.append(idx)
    return out


def pauli_from_keys(
    lat: FiniteLattice, x_keys: Iterable[EdgeKey] = (), z_keys: Iterable[EdgeKey] = ()
) -> PauliOperator:
    x = _kernels.vector(_indices(lat, x_keys))
    z = _kernels.vector(_indices(lat, z_keys))
    return PauliOperator(x, z, lat.n_qubits)


def star(lat: FiniteLattice, v: Vertex) -> PauliOperator:
    if tuple(v) not in lat.vertex_set:
        raise OutOfRegion(f"vertex {v} is outside the lattice block")
    return pauli_from_keys(lat, x_keys=[e.key for e in edges_of_vertex(tuple(v))])


def plaquette(lat: FiniteLattice, f: Face) -> PauliOperator:
    return pauli_from_keys(lat, z_keys=[e.key for e in face_edges(f)])


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return conjugation_sign(p, q) == 0


def conjugation_sign(p: PauliOperator, observable: PauliOperator) -> int:
    """Sign picked up by ``observable`` under conjugation by ``p`` (0 or 1).

    Conjugation by a Pauli never changes a Pauli's support, only its sign,
    which is the symplectic pairing of the two.
    """
    if p.n_qubits != observable.n_qubits:
        raise DimensionMismatch("operators live on different lattices")
    return _kernels.symplectic_parity(p.x, p.z, observable.x, observable.z)


def truncation_stable(
    observable: PauliOperator, op_short: PauliOperator, op_long: PauliOperator
) -> bool:
    """Whether two truncations of the same operator act identically on the
    observable: equal conjugation signs (supports are untouched either way)."""
    return conjugation_sign(op_short, observable) == conjugation_sign(op_long, observable)


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------


def _check_plaquettes_in_block(lat: FiniteLattice, lo: Vertex, dual_hi: list[Vertex]) -> None:
    """Raise ``OutOfRegion`` unless every plaquette of the region lies in the
    block; its dual edges along ``axis`` have bases from ``lo`` to
    ``dual_hi[axis]``.  The faces whose four edges lie in the block form the
    union of two boxes, so a box of faces lies in it exactly when its corners
    do: at most eight faces per axis are tested."""
    for axis, hi in enumerate(dual_hi):
        if hi[axis] < lo[axis]:
            continue
        for base in product(*({lo[a], hi[a]} for a in AXES)):
            f = primal_face_of_edge(Edge(base, axis))
            if any(e.key not in lat.edge_index for e in face_edges(f)):
                raise OutOfRegion(f"plaquette {f} extends outside the lattice block")


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


def _inside(v: Vertex, lo: Vertex, hi: Vertex) -> bool:
    return lo[0] <= v[0] <= hi[0] and lo[1] <= v[1] <= hi[1] and lo[2] <= v[2] <= hi[2]


def syndrome_energy(lat: FiniteLattice, flip: PauliOperator, region: Region) -> int:
    """2 x number of stabilizers in ``region`` anticommuting with ``flip``.

    Stars are attributed to their vertex read in primal coordinates;
    plaquettes to their dual edge read in dual coordinates, counted when both
    dual endpoints lie in the region.  Only the flip's support is read: each
    z-flipped edge toggles its two endpoint stars and each x-flipped edge its
    four plaquettes, so the work grows with the flip's weight.
    """
    if flip.n_qubits != lat.n_qubits:
        raise DimensionMismatch("flip built on a different lattice")
    lo, hi = region
    # a dual edge lies in the region when its base does and its far end
    # stays below the region's top along the edge's axis
    dual_hi = [sub(hi, unit(normal)) for normal in AXES]
    _check_plaquettes_in_block(lat, lo, dual_hi)
    qubits = lat.qubits
    stars: list[Vertex] = []
    for i in _kernels.support(flip.z):
        base, axis = qubits[i]
        stars += (base, add(base, unit(axis)))
    plaquettes: list[EdgeKey] = []
    for i in _kernels.support(flip.x):
        (x, y, z), axis = qubits[i]
        plaquettes += [
            ((x + dx, y + dy, z + dz), normal) for (dx, dy, dz), normal in _PLAQUETTE_OFFSETS[axis]
        ]
    star_lo = tuple(map(max, lo, lat.lo))
    star_hi = tuple(map(min, hi, lat.hi))
    violated = sum(
        1 for v, count in Counter(stars).items() if count & 1 and _inside(v, star_lo, star_hi)
    )
    violated += sum(
        1
        for (d, normal), count in Counter(plaquettes).items()
        if count & 1 and _inside(d, lo, dual_hi[normal])
    )
    return 2 * violated


def gauge_rank(n: int) -> int:
    """F2 rank of the star generators on the side-``n`` block."""
    lat = n if isinstance(n, FiniteLattice) else FiniteLattice(n)
    return _kernels.rank(lat.star_matrix)


# ---------------------------------------------------------------------------
# configuration -> explicit flip operator (the verification bridge)
# ---------------------------------------------------------------------------


def _curtain_edges(lat: FiniteLattice, dual_edges: Sequence[Edge]) -> set[EdgeKey]:
    """Primal edges piercing the vertical dual faces that hang below the
    horizontal edges of a dual path, clipped at the block's lower fringe.
    The membrane's boundary is the path itself plus descender and floor junk
    near the block frontier."""
    keys: set[EdgeKey] = set()
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
        while key in lat.edge_index:
            keys ^= {key}
            z -= 1
            key = ((x, y, z), other)
    return keys


def _extend_clear_of(path_edges: list[Edge], region: Region) -> list[Edge]:
    """Append +x steps at a top exit until the hanging descender would fall
    outside the region's footprint."""
    out = list(path_edges)
    for endpoint, attach in ((boundary_edge(out[-1])[1], "end"), (boundary_edge(out[0])[0], "start")):
        v = endpoint
        if v[2] <= region.hi[2]:
            continue
        ext = []
        while region.lo[0] - 1 <= v[0] <= region.hi[0] + 1 and region.lo[1] - 1 <= v[1] <= region.hi[1] + 1:
            e = edge_from(v, (0, +1))
            ext.append(e)
            v = boundary_edge(e)[1]
        if attach == "end":
            out = out + ext
        else:
            out = [e.reversed() for e in reversed(ext)] + out
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
    x_keys: set[EdgeKey] = set()
    for spec in cfg.strings:
        t_lo, t_hi, _ = _segment_steps(spec, clip)
        edges = spec.edges(t_lo, t_hi - 1)
        edges = _extend_clear_of(edges, region)
        x_keys ^= _curtain_edges(lat, edges)
    for loop in cfg.loops:
        x_keys ^= _curtain_edges(lat, list(loop.edges))

    z_chain: set[EdgeKey] = set()
    for x, y, z in cfg.charges:
        key = ((x, y, z - 1), 2)
        while key in lat.edge_index:
            z_chain ^= {key}
            z -= 1
            key = ((x, y, z - 1), 2)
    return pauli_from_keys(lat, x_keys=x_keys, z_keys=z_chain)


# ---------------------------------------------------------------------------
# exhaustive block checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetCheckReport:
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
    face_index = {f: i for i, f in enumerate(lat.faces)}
    incident: dict[EdgeKey, list[int]] = {k: [] for k in edge_keys}
    for f, i in face_index.items():
        for e in face_edges(f):
            if e.key in incident:
                incident[e.key].append(i)
    return [_kernels.vector(incident[k]) for k in edge_keys]


def _fiber_checks(nets: list[int], n_interior: int, interior_basis: list[int]):
    """``(boundary_conditions, fibers_equal, bijection)`` of the sorted nets,
    from lazy passes over the list (it is never copied).

    Interior qubits are the low bits, so each boundary condition's nets (its
    fiber) form one run, and two nets differ on the boundary exactly when
    their XOR exceeds the interior mask.  The fibers are equal when the
    aligned blocks of ``2^k`` nets each keep one boundary.  The least element
    of a coset of the interior group ``G`` is zero on ``G``'s leading bits,
    so the sorted coset is that element XOR the sorted ``G``: the boundary
    bit-flip pairs every fiber with a coset when each block's ``j``-th net is
    its first XOR ``G[j]``.
    """
    fiber = 2 ** len(interior_basis)
    mask = repeat((1 << n_interior) - 1)
    runs = len(nets) and 1 + sum(map(gt, map(xor, nets, islice(nets, 1, None)), mask))
    fibers_equal = len(nets) == runs * fiber and all(
        map(le, map(xor, islice(nets, 0, None, fiber), islice(nets, fiber - 1, None, fiber)), mask)
    )
    group = sorted(_kernels.span(interior_basis))
    bijection = fibers_equal and all(
        all(map(eq, islice(nets, j, None, fiber), map(xor, islice(nets, 0, None, fiber), repeat(group[j]))))
        for j in range(1, fiber)
    )
    return runs, fibers_equal, bijection


def surface_net_checks(n: int) -> NetCheckReport:
    """Exhaustive gauge-orbit and boundary-condition checks on a small block.

    Verifies that the ``2^(n^3)`` star products flip pairwise distinct edge
    sets (orthogonality of the resulting product states), that the closed
    interior flip sets form a single gauge orbit (one ground vector per
    boundary condition), and, at n = 1, that every boundary condition carries
    the same number of nets with the boundary bit-flip map as the explicit
    pairing.
    """
    if n**3 > 8:
        raise TooLarge("gauge enumeration limited to 2^(n^3) <= 256")
    lat = FiniteLattice(n)

    supports = _kernels.span(lat.star_matrix)
    distinct = len(set(supports)) == len(supports)

    # every gauge support must satisfy all plaquette parities
    are_nets = not any(
        (row & face).bit_count() & 1 for row in supports for face in lat.face_matrix
    )

    interior_basis = _kernels.nullspace(_edge_rows_over_faces(lat, lat.interior_edges))
    nullity = len(interior_basis)
    gauge_order = 2 ** (n**3)
    dim = 2**nullity // gauge_order
    single_orbit = 2**nullity == gauge_order

    boundary_conditions = fibers_equal = bijection = None
    if n == 1:
        nets = _kernels.span(_kernels.nullspace(_edge_rows_over_faces(lat, lat.qubits)))
        nets.sort()
        n_interior = len(lat.interior_edges)
        boundary_conditions, fibers_equal, bijection = _fiber_checks(nets, n_interior, interior_basis)

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
    keys = []
    for k in range(1, length + 1):
        keys.append(Edge((v[0], v[1], v[2] - k), 2).key)
    return pauli_from_keys(lat, z_keys=keys)


def growing_membrane_pauli(lat: FiniteLattice, line_start: Vertex, length: int) -> PauliOperator:
    """Membrane hanging below a dual +x segment of the given length."""
    x, y, z = line_start
    edges = [Edge((x + k, y, z), 0) for k in range(length)]
    return pauli_from_keys(lat, x_keys=_curtain_edges(lat, edges))
