"""Ground-state and ground-sector decisions, sector labels, and the
exhaustive classification of tail-direction assignments.

A configuration is a ground state iff every string is monotone, the strings'
tail-direction sets are pairwise disjoint, and there are no finite loops.
Charges never affect membership: they cost a fixed energy of 2 wherever they
sit and only contribute the charge parity to the label (they do break
frustration-freeness, which is reported separately).

Membership in a ground *sector* only constrains the tails: each string must
have conflict-free tail directions (no axis walked both ways infinitely
often) and the strings' direction sets must be pairwise disjoint.  For every
positive verdict a finite repair script (region straightenings plus loop
removals) is emitted.  Each straightening region is chosen from the letters
a straightened segment would use, without straightening; ``run_script``
does the straightening, and the tests check that it lands on monotone,
path-equivalent strings.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from enum import Enum
from functools import cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterator, NamedTuple

from .errors import NotAGroundSector
from .lattice import AXES, Direction, Region, reverse_direction, sub
from .paths import (
    DirectionSet,
    InfinitePathSpec,
    enclosing_region,
    infinity_directions,
    is_monotonic,
    word_is_monotone,
)
from .transforms import Configuration, _segment_steps, straighten_fixpoint


class VerdictKind(Enum):
    GROUND_STATE = "GroundState"
    GROUND_SECTOR_NOT_GROUND_STATE = "GroundSectorNotGroundState"
    NOT_GROUND_SECTOR = "NotGroundSector"


class Witness(NamedTuple):
    """Why a configuration is outside every ground sector."""

    direction: Direction
    string_index: int | None = None
    pair: tuple[int, int] | None = None


class ScriptStep(NamedTuple):
    kind: str  # "straighten" or "drop_loop"
    index: int
    region: Region | None = None


class SectorVerdict(NamedTuple):
    kind: VerdictKind
    witness: Witness | None = None
    script: tuple[ScriptStep, ...] = ()
    frustration_free: bool = False

    @property
    def is_ground_sector(self) -> bool:
        return self.kind is not VerdictKind.NOT_GROUND_SECTOR


def charge_parity(cfg: Configuration) -> int:
    return len(cfg.charges) % 2


def tail_conflict(ds: DirectionSet) -> Direction | None:
    """A direction witnessing that some axis is walked both ways forever.

    The outward bookkeeping folds back into forward steps: the tails' forward
    letters are ``d_plus`` and the reverses of ``d_minus``.  The witness is
    the least shared direction, else ``+`` along the first such axis.
    """
    letters = set(ds.d_plus) | {reverse_direction(d) for d in ds.d_minus}
    for a in AXES:
        if (a, +1) in letters and (a, -1) in letters:
            shared = ds.d_plus & ds.d_minus
            return min(shared) if shared else (a, +1)
    return None


def _script_region(spec: InfinitePathSpec, pad_factor: int) -> Region:
    pad = pad_factor * (len(spec.neg_period) + len(spec.pos_period) + 2)
    return enclosing_region(spec).inflate(pad)


def run_script(cfg: Configuration, script: tuple[ScriptStep, ...]) -> Configuration:
    """Execute a repair script: straighten strings in place, drop loops."""
    strings = list(cfg.strings)
    drop: set[int] = set()
    for step in script:
        if step.kind == "straighten":
            strings[step.index], _ = straighten_fixpoint(strings[step.index], step.region)
        elif step.kind == "drop_loop":
            drop.add(step.index)
        else:
            raise ValueError(f"unknown script step {step.kind!r}")
    loops = tuple(l for i, l in enumerate(cfg.loops) if i not in drop)
    return Configuration(cfg.charges, tuple(strings), loops)


def _sector_witness(cfg: Configuration, strict_gss: bool = False) -> Witness | None:
    """Why ``cfg`` lies outside every ground sector, or None if it lies in one.

    Reads the tails only: a string whose tails walk some axis both ways, then
    two strings sharing a direction (with ``strict_gss``, one direction shared
    by all strings: the literal total-intersection reading).
    """
    dsets = [infinity_directions(s) for s in cfg.strings]

    for i, ds in enumerate(dsets):
        bad = tail_conflict(ds)
        if bad is not None:
            return Witness(bad, string_index=i)

    if strict_gss:
        if len(dsets) >= 2:
            common = set(dsets[0].all)
            for ds in dsets[1:]:
                common &= ds.all
            if common:
                return Witness(min(common))
    else:
        for i in range(len(dsets)):
            for j in range(i + 1, len(dsets)):
                common = dsets[i].all & dsets[j].all
                if common:
                    return Witness(min(common), pair=(i, j))
    return None


def _straightens_monotone(spec: InfinitePathSpec, t_lo: int, t_hi: int) -> bool:
    """Whether straightening the segment ``[t_lo, t_hi)`` leaves ``spec``
    monotone, read off letters alone.

    Straightening ends in a monotone word between the segment's endpoints,
    and every such word uses exactly one letter ``(a, sign d_a)`` per nonzero
    component of their displacement ``d``.  A segment over a region holding
    the core leaves only period letters outside it, so the straightened spec
    is monotone exactly when those letters and the periods' keep one sign
    per axis."""
    d = sub(spec.vertex(t_hi), spec.vertex(t_lo))
    letters = {(a, 1 if d[a] > 0 else -1) for a in AXES if d[a]}
    return word_is_monotone(letters.union(spec.neg_period, spec.pos_period))


def classify(cfg: Configuration, strict_gss: bool = False) -> SectorVerdict:
    """Full decision: ground state / ground sector with repair script / neither.

    A non-monotone string of a ground sector is straightened in the first of
    its script regions (padded 1, 2, 4, ... times) where
    :func:`_straightens_monotone` holds.  It crosses each once: each holds its
    core, and its tails walk each axis one way.  Some pad is enough: each axis
    a tail walks gains a period displacement along it, so the segment's
    displacement there grows with the pad until its sign is the tail's; a
    pad past the tail cap raises TooLarge.  Nothing is straightened here.
    ``strict_gss`` switches the multi-string condition to the literal
    total-intersection reading instead of pairwise disjointness.
    """
    witness = _sector_witness(cfg, strict_gss)
    if witness is not None:
        return SectorVerdict(VerdictKind.NOT_GROUND_SECTOR, witness)

    script: list[ScriptStep] = []
    all_monotone = True
    for i, spec in enumerate(cfg.strings):
        mono, _ = is_monotonic(spec)
        if not mono:
            all_monotone = False
            pad = 1
            while True:
                region = _script_region(spec, pad)
                t_lo, t_hi, _ = _segment_steps(spec, region)
                if _straightens_monotone(spec, t_lo, t_hi):
                    break
                pad *= 2
            script.append(ScriptStep("straighten", i, region))
    for k in range(len(cfg.loops)):
        script.append(ScriptStep("drop_loop", k))

    if all_monotone and not cfg.loops:
        # only the empty configuration is frustration-free, and it lands here
        empty = not cfg.charges and not cfg.strings
        return SectorVerdict(VerdictKind.GROUND_STATE, frustration_free=empty)
    return SectorVerdict(VerdictKind.GROUND_SECTOR_NOT_GROUND_STATE, script=tuple(script))


# ---------------------------------------------------------------------------
# sector labels
# ---------------------------------------------------------------------------

Tau = tuple[int, int]


class StringClassTag(NamedTuple):
    """Tail class of one string.

    ``P``: both tails pinned to straight rays (two anchors),
    ``Q``: exactly one tail pinned (one anchor),
    ``R``: neither tail pinned (no anchors).
    An anchor is ``(direction, tau)`` with ``tau`` the two transverse
    coordinates of the supporting line of the pinned ray.
    """

    kind: str
    directions: frozenset[Direction]
    anchors: frozenset[tuple[Direction, Tau]]


class SectorLabel(NamedTuple):
    g: int
    tags: tuple[StringClassTag, ...]


def _transverse(v, axis: int) -> Tau:
    return tuple(v[a] for a in AXES if a != axis)


def _string_tag(spec: InfinitePathSpec) -> StringClassTag:
    ds = infinity_directions(spec)
    anchors = []
    if len(ds.d_plus) == 1:
        d = next(iter(ds.d_plus))
        anchors.append((d, _transverse(spec.junction, d[0])))
    if len(ds.d_minus) == 1:
        d = next(iter(ds.d_minus))
        anchors.append((d, _transverse(spec.base, d[0])))
    kind = {2: "P", 1: "Q", 0: "R"}[len(anchors)]
    return StringClassTag(kind, frozenset(ds.all), frozenset(anchors))


def sector_label(cfg: Configuration, strict_gss: bool = False) -> SectorLabel:
    if _sector_witness(cfg, strict_gss) is not None:
        raise NotAGroundSector("configuration is outside every ground sector")
    return SectorLabel(charge_parity(cfg), tuple(_string_tag(s) for s in cfg.strings))


# ---------------------------------------------------------------------------
# exhaustive classification of tail-direction assignments
# ---------------------------------------------------------------------------

# direction index: axis*2 for +, axis*2+1 for -
_DIR_OF_BIT = [(a, +1 if b == 0 else -1) for a in AXES for b in (0, 1)]
_BIT_OF_DIR = {d: i for i, d in enumerate(_DIR_OF_BIT)}


Assignment = tuple[int, int]  # (mask of D+, mask of D-)
Solution = tuple[Assignment, ...]


# each assignment at its smaller encoding, as keys and images hold it
_CANDIDATES: list[Assignment] = [
    (p, m) for p in range(1, 64) for m in range(p + 1, 64) if p & m == 0
]


@cache
def _octahedral_tables() -> list[list[int]]:
    """Mask-transform tables for the 48 signed axis permutations, built on
    first use."""
    tables = []
    for perm in permutations(AXES):
        for flips in product((0, 1), repeat=3):
            table = [0]  # doubled once per direction bit, over the masks below it
            for a, s in _DIR_OF_BIT:
                table += [t | 1 << _BIT_OF_DIR[perm[a], -s if flips[a] else s] for t in table]
            tables.append(table)
    return tables


# one shared tuple per candidate, so the cached images hold no copies
_SHARED: dict[Assignment, Assignment] = {a: a for a in _CANDIDATES}


@cache
def _images(a: Assignment) -> tuple[Assignment, ...]:
    """The smaller D+/D- encoding of ``a`` under each octahedral table."""
    p, m = a
    return tuple(_SHARED[min((t[p], t[m]), (t[m], t[p]))] for t in _octahedral_tables())


def _key(sol: Solution) -> Solution:
    """``sol`` up to string order and D+/D- swaps: each assignment at its
    smaller encoding, sorted."""
    return tuple(sorted(min(a, a[::-1]) for a in sol))


def _orbit(sol: Solution) -> list[Solution]:
    """The keys of ``sol``'s 48 octahedral images, one column of cached
    images per table.  Their minimum is the canonical form: the minimum over
    symmetry, string order and swaps, as swap and order minimize
    independently per string."""
    return [tuple(sorted(col)) for col in zip(*map(_images, sol))]


def _orbit_table(keys: list[Solution]) -> dict[Solution, Solution]:
    """Map every key of the orbits of ``keys`` to its canonical form.

    A key not yet in the table starts a new orbit: its 48 image keys, every
    key of that orbit, are built once and all mapped to their minimum, so
    each later key is one lookup.  Ascending ``keys`` reach each orbit first
    at its minimum, so the table's values first appear in ascending order.
    """
    canon_of: dict[Solution, Solution] = {}
    for key in keys:
        if key not in canon_of:
            images = _orbit(key)
            canon_of.update(dict.fromkeys(images, min(images)))
    return canon_of


# the direction masks of the three axes, both ways
_AXIS_PAIRS = frozenset(0b11 << (2 * a) for a in AXES)


def _reversed_mask(mask: int) -> int:
    """``mask`` with every direction reversed: each axis's two bits swapped."""
    return (mask & 0b010101) << 1 | (mask >> 1) & 0b010101


def _case_two(sol: Solution) -> str:
    (p1, m1), (p2, m2) = sol
    d1, d2 = p1 | m1, p2 | m2
    s1, s2 = d1.bit_count(), d2.bit_count()
    if (s1, s2) == (2, 2):
        return "I"
    if (s1, s2) == (2, 3):
        if d1 in _AXIS_PAIRS:
            return "II.C"
        rev = _reversed_mask(d1)
        return "II.A" if rev & d2 == rev else "II.B"
    if (s1, s2) == (2, 4):
        return "III.A" if d1 in _AXIS_PAIRS else "III.B"
    if (s1, s2) == (3, 3):
        return "IV.A"
    raise AssertionError(f"unexpected size profile {(s1, s2)}")


def _case_three(sol: Solution) -> str:
    # three pairwise-disjoint sets of at least two directions (p and m are
    # nonempty and disjoint) use all six, two each
    pairs = sum((p | m) in _AXIS_PAIRS for p, m in sol)
    return {3: "A", 1: "B", 0: "C"}[pairs]


def surgery_move(sol: Solution, i: int, j: int) -> Solution:
    """Direction-set effect of splicing strings i and j across a membrane:
    the rewired strings pair i's positive side with j's positive side and
    i's negative side with j's negative side."""
    out = list(sol)
    (pi, mi), (pj, mj) = sol[i], sol[j]
    out[i], out[j] = (pi, pj), (mi, mj)
    return tuple(out)


class EnumerationReport(NamedTuple):
    n_strings: int
    raw_count: int
    raw_count_alt: int
    orbits: dict[Solution, str]
    case_inventory: dict[str, int]
    reduction_targets: dict[str, frozenset[str]]


@cache
def _allowed(free: int) -> tuple[Assignment, ...]:
    """The candidates whose directions all lie in the mask ``free``, in
    ``_CANDIDATES`` order: filtered from those of ``free`` with its lowest
    clear bit set, so only ``_allowed(63)`` scans every candidate."""
    wider = _CANDIDATES if free == 63 else _allowed(free | free + 1)
    return tuple((p, m) for p, m in wider if (p | m) & ~free == 0)


def _keys(n_strings: int) -> list[Solution]:
    """The key of each assignment of ``n_strings`` strings with pairwise
    disjoint direction sets, once and in ascending order: each string comes
    from the directions the earlier ones left free, above the last one, and
    leaves two for each string after it."""
    if n_strings not in (2, 3):
        raise ValueError("only 2- and 3-string enumerations are supported")
    partial: list[tuple[Solution, int]] = [((), 63)]
    for left in reversed(range(n_strings)):
        longer = []
        for key, free in partial:
            allowed = _allowed(free)
            above = allowed[bisect_right(allowed, key[-1]) :] if key else allowed
            room = free.bit_count() - 2 * left
            longer += [(key + ((p, m),), free & ~(p | m)) for p, m in above if (p | m).bit_count() <= room]
        partial = longer
    return [key for key, _ in partial]


def _raw_count_alt(n_strings: int) -> int:
    """Independent ordering: choose disjoint direction sets first, then count
    the ways to split each into two nonempty sides.  A subproblem is the
    number of strings left and the directions ``used`` so far; each is
    solved once per call, over the submasks of the directions left free."""
    memo: dict[tuple[int, int], int] = {}

    def count(left: int, used: int) -> int:
        if left == 0:
            return 1
        if (left, used) not in memo:
            free = d = 63 & ~used
            total = 0
            while d:
                if d & (d - 1):  # at least two directions
                    total += (2 ** d.bit_count() - 2) * count(left - 1, used | d)
                d = (d - 1) & free
            memo[left, used] = total
        return memo[left, used]

    return count(n_strings, 0)


def _distinct_moves(sol: Solution) -> Iterator[Solution]:
    """Per pair i < j, the surgery move on ``sol`` and with j's sides
    swapped: swapping i, both or another string, or the pair (j, i), gives
    one of these two keys."""
    for i, j in combinations(range(len(sol)), 2):
        yield surgery_move(sol, i, j)
        yield surgery_move(sol[:j] + (sol[j][::-1],) + sol[j + 1 :], i, j)


def _reduction_closure(rep: Solution, classify_fn, canon_of: dict[Solution, Solution]) -> frozenset[str]:
    """Cases of the canonical forms that three rounds of surgery reach from
    ``rep``.  Surgery commutes with symmetry, order and swaps, so a canonical
    form's distinct moves reach its orbit's neighbours, and every move's key
    is a fold key in ``canon_of``."""
    seen, frontier = {rep}, {rep}
    for _ in range(3):
        frontier = {canon_of[_key(moved)] for sol in frontier for moved in _distinct_moves(sol)} - seen
        seen |= frontier
    return frozenset(map(classify_fn, seen))


def enumerate_gsc_solutions(n_strings: int) -> EnumerationReport:
    """Enumerate the tail-direction assignments satisfying the ground sector
    condition up to string order and D+/D- swaps, fold them under octahedral
    symmetry, and name the surviving cases.

    String order and swaps act freely (the direction sets are disjoint and
    nonempty, and ``p != m``), so each key stands for ``n! * 2^n`` of the
    ``raw_count`` assignments.  The orbit table, built for this call only,
    computes each orbit's 48 images once; every other key, and each of the
    closure's ``2 * C(n, 2)`` moves per canonical form, is a lookup in it.
    A key is the least ordering of its assignments, so the orbits come in
    ascending canonical order, the order of their first assignments."""
    keys = _keys(n_strings)
    classify_fn = _case_two if n_strings == 2 else _case_three
    canon_of = _orbit_table(keys)
    orbits = {canon: classify_fn(canon) for canon in dict.fromkeys(canon_of.values())}

    reducible = {"IV.A"} if n_strings == 2 else {"B", "C"}
    targets: dict[str, set[str]] = {}
    for canon, case in orbits.items():
        if case in reducible:
            targets.setdefault(case, set()).update(_reduction_closure(canon, classify_fn, canon_of))
    return EnumerationReport(
        n_strings=n_strings,
        raw_count=len(keys) * factorial(n_strings) * 2**n_strings,
        raw_count_alt=_raw_count_alt(n_strings),
        orbits=orbits,
        case_inventory=dict(sorted(Counter(orbits.values()).items())),
        reduction_targets={k: frozenset(v) for k, v in targets.items()},
    )
