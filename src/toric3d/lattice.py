"""Geometry of the cubic lattice Z^3 and its dual.

Conventions used everywhere in the package:

* Vertices are integer triples ``(x, y, z)``.  The dual lattice is also
  indexed by integer triples; dual vertex ``d`` sits at the centre of the
  primal unit cell based at ``d`` (i.e. at ``d + (1/2, 1/2, 1/2)`` in real
  coordinates).  All arithmetic stays integral.
* A direction is a pair ``(axis, sign)`` with ``axis`` in ``{0, 1, 2}``
  (x, y, z) and ``sign`` in ``{+1, -1}``.
* Edges are canonicalised: an edge is identified by its lesser endpoint
  ``base`` and its ``axis``; a separate traversal ``sign`` records which way
  a path walks it.  Mod-2 edge chains use the orientation-free key
  ``(base, axis)``.
* A face is identified by its corner ``base`` and its ``normal`` axis; its
  four boundary edges form the unit square with corner ``base`` in the plane
  perpendicular to ``normal``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple

Vertex = tuple[int, int, int]
Axis = int
Sign = int
Direction = tuple[Axis, Sign]
EdgeKey = tuple[Vertex, Axis]

AXES: tuple[Axis, ...] = (0, 1, 2)
AXIS_NAMES = "xyz"

DIRECTIONS: tuple[Direction, ...] = tuple((a, s) for a in AXES for s in (+1, -1))

_UNITS: tuple[Vertex, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def unit(axis: Axis) -> Vertex:
    return _UNITS[axis]


def add(v: Vertex, w: Vertex) -> Vertex:
    return (v[0] + w[0], v[1] + w[1], v[2] + w[2])


def sub(v: Vertex, w: Vertex) -> Vertex:
    return (v[0] - w[0], v[1] - w[1], v[2] - w[2])


def scale(v: Vertex, k: int) -> Vertex:
    return (v[0] * k, v[1] * k, v[2] * k)


def direction_vector(d: Direction) -> Vertex:
    a, s = d
    return scale(unit(a), s)


def reverse_direction(d: Direction) -> Direction:
    return (d[0], -d[1])


def direction_name(d: Direction) -> str:
    return AXIS_NAMES[d[0]] + ("+" if d[1] > 0 else "-")


_STEP_ATOMS = {AXIS_NAMES[a].upper() + c: (a, +1 if c == "+" else -1) for a in AXES for c in "+-"}

# (axis letter, sign) for every atom whose upper case is a step atom: only
# x, y and z upper-case to X, Y and Z, and no character upper-cases to a sign
_ATOM_PAIRS = {tuple(n): d for atom, d in _STEP_ATOMS.items() for n in (atom, atom.lower())}


def parse_steps(text: str) -> tuple[Direction, ...]:
    """Tokenise a step word like ``"X+Z-"`` into directions; the axis letter
    may be lower case.

    Raises ``ValueError`` naming the first bad atom in upper case.
    """
    text = text.strip()
    if len(text) % 2 != 0:
        raise ValueError(f"step string has odd length: {text!r}")
    try:
        return tuple(map(_ATOM_PAIRS.__getitem__, zip(text[0::2], text[1::2])))
    except KeyError:
        i = next(i for i in range(0, len(text), 2) if text[i : i + 2].upper() not in _STEP_ATOMS)
        raise ValueError(f"invalid step atom {text[i : i + 2].upper()!r} at position {i}") from None


def format_steps(steps: Iterable[Direction]) -> str:
    return "".join(AXIS_NAMES[a].upper() + ("+" if s > 0 else "-") for a, s in steps)


class Edge(NamedTuple):
    """A lattice edge in canonical form plus a traversal sign."""

    base: Vertex
    axis: Axis
    sign: Sign = +1

    @property
    def key(self) -> EdgeKey:
        return (self.base, self.axis)

    def reversed(self) -> "Edge":
        return Edge(self.base, self.axis, -self.sign)


def edge_from(v: Vertex, d: Direction) -> Edge:
    """The edge traversed when stepping from vertex ``v`` along ``d``."""
    a, s = d
    if s > 0:
        return Edge(v, a, +1)
    return Edge(sub(v, unit(a)), a, -1)


def edge_direction(e: Edge) -> Direction:
    return (e.axis, e.sign)


def boundary_edge(e: Edge) -> tuple[Vertex, Vertex]:
    """Start and end vertex of ``e`` respecting its traversal sign."""
    lo = e.base
    hi = add(e.base, unit(e.axis))
    return (lo, hi) if e.sign > 0 else (hi, lo)


class Face(NamedTuple):
    base: Vertex
    normal: Axis


def face_keys(f: Face) -> tuple[EdgeKey, EdgeKey, EdgeKey, EdgeKey]:
    """The keys of the four boundary edges of ``f`` in the order of a closed
    walk from ``base``: along the lesser in-plane axis, along the greater,
    back along the lesser and back along the greater.  Read off the normal
    without building an edge."""
    b = (x, y, z) = f.base
    if f.normal == 0:
        return ((b, 1), ((x, y + 1, z), 2), ((x, y, z + 1), 1), (b, 2))
    if f.normal == 1:
        return ((b, 0), ((x + 1, y, z), 2), ((x, y, z + 1), 0), (b, 2))
    return ((b, 0), ((x + 1, y, z), 1), ((x, y + 1, z), 0), (b, 1))


def edges_of_vertex(v: Vertex) -> tuple[Edge, ...]:
    """The six canonical edges incident to ``v``."""
    out = []
    for a in AXES:
        out.append(Edge(v, a, +1))
        out.append(Edge(sub(v, unit(a)), a, +1))
    return tuple(out)


# ---------------------------------------------------------------------------
# duality (primal <-> dual, integer bookkeeping with the half-step implicit)
# ---------------------------------------------------------------------------

_ONES = (1, 1, 1)


def dual_face_of_edge(e: Edge) -> Face:
    """Dual face pierced by a primal edge (result lives on the dual lattice)."""
    return Face(sub(add(e.base, unit(e.axis)), _ONES), e.axis)


def dual_edge_of_face(f: Face) -> Edge:
    """Dual edge piercing a primal face (result lives on the dual lattice)."""
    return Edge(sub(f.base, unit(f.normal)), f.normal)


def primal_face_of_edge(e: Edge) -> Face:
    """Primal face pierced by a dual edge (inverse of :func:`dual_edge_of_face`)."""
    return Face(add(e.base, unit(e.axis)), e.axis)


# ---------------------------------------------------------------------------
# finite cuboidal regions
# ---------------------------------------------------------------------------


class Region(NamedTuple):
    """Inclusive cuboid of lattice vertices, ``lo <= hi`` componentwise."""

    lo: Vertex
    hi: Vertex

    def contains_vertex(self, v: Vertex) -> bool:
        (lx, ly, lz), (hx, hy, hz) = self
        x, y, z = v
        return lx <= x <= hx and ly <= y <= hy and lz <= z <= hz

    def contains_edge(self, e: Edge) -> bool:
        u, w = boundary_edge(e)
        return self.contains_vertex(u) and self.contains_vertex(w)

    def contains_region(self, other: "Region") -> bool:
        (lx, ly, lz), (hx, hy, hz) = self
        (ax, ay, az), (bx, by, bz) = other
        return lx <= ax and ly <= ay and lz <= az and bx <= hx and by <= hy and bz <= hz

    def inflate(self, k: int) -> "Region":
        return Region(sub(self.lo, (k, k, k)), add(self.hi, (k, k, k)))

    def span(self, axis: Axis) -> int:
        return self.hi[axis] - self.lo[axis]

    def vertices(self) -> Iterable[Vertex]:
        return product(
            range(self.lo[0], self.hi[0] + 1),
            range(self.lo[1], self.hi[1] + 1),
            range(self.lo[2], self.hi[2] + 1),
        )


def region_of(lo: Vertex, hi: Vertex) -> Region:
    if any(lo[a] > hi[a] for a in AXES):
        raise ValueError(f"region corners out of order: {lo} > {hi}")
    return Region(tuple(lo), tuple(hi))


def bounding_region(vertices: Iterable[Vertex]) -> Region:
    """The least region holding ``vertices``, in one pass over them: a
    coordinate below its running low cannot also top its running high."""
    it = iter(vertices)
    first = next(it, None)
    if first is None:
        raise ValueError("bounding_region of no vertices")
    (lx, ly, lz) = (hx, hy, hz) = first
    for x, y, z in it:
        if x < lx:
            lx = x
        elif x > hx:
            hx = x
        if y < ly:
            ly = y
        elif y > hy:
            hy = y
        if z < lz:
            lz = z
        elif z > hz:
            hz = z
    return Region((lx, ly, lz), (hx, hy, hz))
