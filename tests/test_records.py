"""The record contract: field-wise repr, equality and hash, immutability,
validation at construction, and the cached core walk."""

import copy
import pickle

import pytest

from toric3d import paths
from toric3d.errors import InvalidConfiguration, MalformedBoundary, SelfIntersecting
from toric3d.lattice import Face, Region, parse_steps
from toric3d.paths import InfinitePathSpec, Surface, path_equivalent, path_from_steps, spec_from_strings
from toric3d.sectors import (
    ScriptStep,
    SectorVerdict,
    VerdictKind,
    Witness,
    classify,
    sector_label,
)
from toric3d.transforms import Configuration, energy, make_configuration, straighten_fixpoint

X, Y, Z = 0, 1, 2
_LINE = spec_from_strings("Z+", "X+Y+", "Z+", (1, 0, -1))
_OPEN = path_from_steps((0, 0, 0), ((X, 1), (Y, 1)))
_SQUARE = path_from_steps((0, 0, 0), ((X, 1), (Y, 1), (X, -1), (Y, -1)))


def test_spec_repr():
    assert repr(_LINE) == (
        "InfinitePathSpec(neg_period=((2, 1),), core=((0, 1), (1, 1)),"
        " pos_period=((2, 1),), base=(1, 0, -1))"
    )


def test_sector_label_repr():
    label = sector_label(make_configuration(strings=[_LINE]))
    assert repr(label) == (
        "SectorLabel(g=0, tags=(StringClassTag(kind='P', directions=frozenset({(2, -1), (2, 1)}),"
        " anchors=frozenset({((2, 1), (2, 1)), ((2, -1), (1, 0))})),))"
    )


def test_sector_verdict_repr():
    verdict = SectorVerdict(
        VerdictKind.NOT_GROUND_SECTOR,
        Witness((Z, 1), pair=(0, 1)),
        (ScriptStep("straighten", 0, Region((0, 0, 0), (1, 2, 3))), ScriptStep("drop_loop", 1)),
    )
    assert repr(verdict) == (
        "SectorVerdict(kind=<VerdictKind.NOT_GROUND_SECTOR: 'NotGroundSector'>,"
        " witness=Witness(direction=(2, 1), string_index=None, pair=(0, 1)),"
        " script=(ScriptStep(kind='straighten', index=0, region=Region(lo=(0, 0, 0), hi=(1, 2, 3))),"
        " ScriptStep(kind='drop_loop', index=1, region=None)), frustration_free=False)"
    )


def test_records_compare_and_hash_by_field():
    again = spec_from_strings("Z+", "X+Y+", "Z+", (1, 0, -1))
    assert again == _LINE and hash(again) == hash(_LINE)
    assert Witness((Z, 1), 0) == Witness((Z, 1), string_index=0)
    assert len({ScriptStep("drop_loop", 0), ScriptStep("drop_loop", 0)}) == 1


@pytest.mark.parametrize(
    "record, field",
    [
        (_LINE, "core"),
        (make_configuration(strings=[_LINE]), "strings"),
        (_OPEN, "closed"),
        (Witness((Z, 1)), "pair"),
        (SectorVerdict(VerdictKind.GROUND_STATE), "kind"),
        (energy(make_configuration(strings=[_LINE]), Region((0, 0, 0), (2, 2, 2))), "flux_energy"),
    ],
)
def test_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


_BAD_SPEC = (((Z, 1),), ((Z, -1),), ((Z, 1),), (0, 0, 0))


def test_bad_spec_raises_positionally():
    with pytest.raises(SelfIntersecting):
        InfinitePathSpec(*_BAD_SPEC)


def test_bad_spec_raises_by_keyword():
    names = ("neg_period", "core", "pos_period", "base")
    with pytest.raises(SelfIntersecting):
        InfinitePathSpec(**dict(zip(names, _BAD_SPEC)))
    with pytest.raises(SelfIntersecting, match="period word has zero net displacement"):
        InfinitePathSpec(neg_period=((X, 1), (X, -1)), core=(), pos_period=((Z, 1),), base=(0, 0, 0))


def test_surface_in_two_pieces_raises_positionally_and_by_keyword():
    """A ``Surface`` validates its faces when built, so no surface in two
    pieces reaches surgery."""
    pieces = [Face((0, 0, 0), Y), Face((5, 5, 5), Y)]
    with pytest.raises(MalformedBoundary, match="^boundary chain has more than one component$"):
        Surface(pieces)
    with pytest.raises(MalformedBoundary, match="^boundary chain has more than one component$"):
        Surface(faces=pieces)
    one = Surface(faces=pieces[:1])
    assert one.faces == frozenset(pieces[:1]) and len(one.boundary) == 4


@pytest.mark.parametrize(
    "copy_of",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_surface_copies_keep_their_boundary(copy_of):
    surface = Surface([Face((0, 0, 0), Z), Face((1, 0, 0), Z), Face((1, 1, 0), Z)])
    again = copy_of(surface)
    assert type(again) is Surface and again == surface
    assert again.boundary.edges == surface.boundary.edges


def test_core_letter_that_is_no_direction_is_not_certified():
    """The monotone certificate reads only letters that are directions: a
    core letter of two steps keeps one sign per axis, yet the core walk
    still rejects it."""
    with pytest.raises(KeyError):
        InfinitePathSpec(((Z, 1),), ((X, 2),), ((Z, 1),), (0, 0, 0))


def test_configuration_rejects_an_open_loop():
    with pytest.raises(InvalidConfiguration, match="^loop 1 is not closed$"):
        Configuration((), (), (_SQUARE, _OPEN))
    with pytest.raises(InvalidConfiguration, match="^loop 0 is not closed$"):
        Configuration(charges=(), strings=(), loops=(_OPEN,))
    assert Configuration((), (), (_SQUARE,)).loops == (_SQUARE,)


def test_core_vertices_computed_once(monkeypatch):
    core = ((X, 1), (Y, 1), (X, 1))
    walks = []
    cumulative = paths._cumulative

    def counting(word, *start):
        if word is core:
            walks.append(word)
        return cumulative(word, *start)

    monkeypatch.setattr(paths, "_cumulative", counting)
    spec = InfinitePathSpec(((Z, 1),), core, ((Z, 1),), (0, 0, 0))
    first = spec.core_vertices
    assert spec.core_vertices is first
    spec.edges_in(Region((0, 0, 0), (1, 1, 1)))
    assert first == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]
    assert len(walks) == 1


def test_monotone_string_core_never_walked(monkeypatch):
    """A whole-monotone string is accepted by its letters: building it,
    ``classify``, ``energy`` on a region holding its core box,
    ``straighten_fixpoint`` and ``path_equivalent`` with itself, or with an
    equal spec built apart, neither walk its core nor read a tail class.  An
    unequal but equivalent pair still reads the classes of its four tails."""
    core = parse_steps("X+Y+Z+" * 40 + "X+" * 7)
    walks, classes = [], []
    cumulative, ray_class = paths._cumulative, paths._ray_class

    def counting(word, *start):
        if word == core:
            walks.append(word)
        return cumulative(word, *start)

    def counting_classes(tail, word):
        classes.append(word)
        return ray_class(tail, word)

    monkeypatch.setattr(paths, "_cumulative", counting)
    monkeypatch.setattr(paths, "_ray_class", counting_classes)
    spec = InfinitePathSpec(parse_steps("Z+X+"), core, parse_steps("Y+"), (1, -2, 0))
    region = spec.core_box.inflate(2)
    cfg = make_configuration(strings=[spec])
    assert classify(cfg).kind is VerdictKind.GROUND_STATE
    flux = energy(cfg, region).flux_energy
    assert straighten_fixpoint(spec, region) == (spec, 0)
    twin = InfinitePathSpec(spec.neg_period, tuple(list(core)), spec.pos_period, spec.base)
    assert twin == spec and twin.core is not spec.core
    assert path_equivalent(spec, spec) and path_equivalent(spec, twin)
    assert walks == [] and classes == []
    assert spec.core_box == Region((1, -2, 0), (48, 38, 40))
    assert flux == 2 * len(spec.edges_in(region))

    bent = spec_from_strings("Z+", "X+Z+Z+X-", "Z+")
    straight, passes = straighten_fixpoint(bent, bent.core_box.inflate(1))
    assert passes and straight != bent
    assert path_equivalent(bent, straight)
    assert classes == [bent.pos_period, bent.neg_period, straight.pos_period, straight.neg_period]

