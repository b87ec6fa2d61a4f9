"""Geometry layer: boundary maps, duality, regions."""

from itertools import chain, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toric3d.lattice import (
    AXES,
    Edge,
    Face,
    add,
    boundary_edge,
    dual_face_of_edge,
    face_keys,
    primal_face_of_edge,
    parse_steps,
    region_of,
)
from ._gen import (
    dual_edge_of_face,
    edges_in_region,
    face_edges,
    primal_edge_of_face,
    reference_parse_steps,
)

coords = st.integers(min_value=-5, max_value=5)
vertices = st.tuples(coords, coords, coords)


def test_boundary_edge_examples():
    assert boundary_edge(Edge((0, 0, 0), 2, +1)) == ((0, 0, 0), (0, 0, 1))
    assert boundary_edge(Edge((0, 0, 0), 2, -1)) == ((0, 0, 1), (0, 0, 0))
    assert boundary_edge(Edge((2, -1, 5), 0, +1)) == ((2, -1, 5), (3, -1, 5))


def test_face_keys_are_the_keys_of_face_edges():
    for normal in AXES:
        for base in product(range(-2, 2), repeat=3):
            f = Face(base, normal)
            assert face_keys(f) == tuple(e.key for e in face_edges(f))


def test_boundary_face_is_closed_square():
    f = Face((0, 0, 0), 2)
    chain = face_edges(f)
    assert len(chain) == 4
    # endpoints telescope to zero mod 2
    ends = []
    for e in chain:
        s, t = boundary_edge(e)
        ends.extend([s, t])
    for v in set(ends):
        assert ends.count(v) % 2 == 0
    # consecutive
    for e1, e2 in zip(chain, chain[1:]):
        assert boundary_edge(e1)[1] == boundary_edge(e2)[0]
    assert boundary_edge(chain[-1])[1] == boundary_edge(chain[0])[0]


def test_boundary_face_translation_covariance():
    f0 = Face((0, 0, 0), 0)
    f1 = Face((1, 1, 1), 0)
    shifted = [e._replace(base=add(e.base, (1, 1, 1))) for e in face_edges(f0)]
    assert shifted == list(face_edges(f1))


def test_duality_involution_on_block():
    block = list(product(range(3), repeat=3))
    for base in block:
        for axis in AXES:
            e = Edge(base, axis)
            assert primal_edge_of_face(dual_face_of_edge(e)) == e
            f = Face(base, axis)
            assert primal_face_of_edge(dual_edge_of_face(f)) == f
            assert dual_face_of_edge(e).normal == e.axis
            assert dual_edge_of_face(f).axis == f.normal


def test_dual_face_boundary_edges_hit_incident_faces():
    # the dual face of an edge has four dual boundary edges, each dual to a
    # primal face containing the original edge
    for base in product(range(3), repeat=3):
        for axis in AXES:
            e = Edge(tuple(base), axis)
            fbar = dual_face_of_edge(e)
            for ebar in face_edges(fbar):
                f = primal_face_of_edge(ebar)
                assert e.key in {x.key for x in face_edges(f)}


def test_edges_in_region_examples():
    assert edges_in_region(region_of((0, 0, 0), (0, 0, 0))) == []
    assert len(edges_in_region(region_of((0, 0, 0), (1, 1, 1)))) == 12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_edges_in_region_count_formula(n):
    # per axis: n edges along the axis times (n+1)^2 transverse positions
    edges = edges_in_region(region_of((0, 0, 0), (n, n, n)))
    assert len(edges) == 3 * n * (n + 1) ** 2
    # cross-check by direct enumeration
    brute = 0
    region = region_of((0, 0, 0), (n, n, n))
    for base in product(range(n + 1), repeat=3):
        for axis in AXES:
            if region.contains_edge(Edge(tuple(base), axis)):
                brute += 1
    assert brute == len(edges)


@given(vertices, vertices)
def test_translation_covariance_of_duality(v, shift):
    for axis in AXES:
        e = Edge(v, axis)
        lhs = dual_face_of_edge(e._replace(base=add(v, shift)))
        f = dual_face_of_edge(e)
        rhs = f._replace(base=add(f.base, shift))
        assert lhs == rhs


def test_parse_steps_atoms():
    assert parse_steps("X+Z-") == ((0, 1), (2, -1))
    with pytest.raises(ValueError):
        parse_steps("Z+Q")
    with pytest.raises(ValueError):
        parse_steps("Z")


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError as ex:
        return str(ex)


def test_parse_steps_matches_reference():
    """Same steps or same message as the atom-by-atom loop: lower, mixed and
    upper case, odd lengths, junk atoms, and letters that upper-case to more
    than one character (``'ß'`` to ``'SS'``) or to an accented ``Y``."""
    alphabet = "xyzXYZ+-qß\u1e99 "
    words = ["".join(w) for w in chain.from_iterable(product(alphabet, repeat=n) for n in range(5))]
    words += ["ßX+-", " x+Y-z+ ", "X+Z+" * 50 + "Q+", "X+" * 99 + "x", "Z+\u00e9+", "\u1e99+Z-"]
    messages = set()
    for text in words:
        expected = _parsed(reference_parse_steps, text)
        assert _parsed(parse_steps, text) == expected, text
        if isinstance(expected, str):
            messages.add(" ".join(expected.split()[:2]))
    assert _parsed(parse_steps, "ßX+-") == "invalid step atom 'SSX' at position 0"
    assert _parsed(parse_steps, "x+y-Z+") == ((0, 1), (1, -1), (2, 1))
    assert messages == {"invalid step", "step string"}
