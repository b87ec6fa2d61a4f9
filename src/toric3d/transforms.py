"""Constructive moves on configurations: energy accounting, straightening,
surgery, and linking parity.

A configuration is a finite set of charges (primal vertices), infinite flux
strings (eventually periodic dual-path specs), and finite closed flux loops
(dual paths).  Regions follow the package convention: the same integer corner
pair is read in dual coordinates for flux counting and in primal coordinates
for charge counting.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .errors import (
    AlreadyMonotonicInRegion,
    EndpointMismatch,
    InvalidConfiguration,
    InvalidSurface,
    MultipleCrossings,
    MultipleOverlapRuns,
    NoOverlap,
    SelfIntersecting,
)
from .lattice import (
    AXES,
    DIRECTIONS,
    Direction,
    EdgeKey,
    Face,
    Region,
    Vertex,
    add,
    bounding_region,
    dual_face_of_edge,
    unit,
)
from .paths import (
    FinitePath,
    InfinitePathSpec,
    Surface,
    _displacement,
    _splice_monotone,
    _word_displacement,
    aligned_window,
    enclosing_region,
    monotone_staircase,
    path_from_steps,
    replace_window,
    reverse_spec,
    word_is_monotone,
    word_is_self_avoiding,
)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


class _ConfigurationFields(NamedTuple):
    charges: tuple[Vertex, ...]
    strings: tuple[InfinitePathSpec, ...]
    loops: tuple[FinitePath, ...]


class Configuration(_ConfigurationFields):
    """The record of a configuration's fields, validated in ``__new__``: an
    open loop raises InvalidConfiguration."""

    __slots__ = ()

    def __new__(
        cls,
        charges: tuple[Vertex, ...],
        strings: tuple[InfinitePathSpec, ...],
        loops: tuple[FinitePath, ...],
    ):
        for i, loop in enumerate(loops):
            if not loop.closed:
                raise InvalidConfiguration(f"loop {i} is not closed")
        return super().__new__(cls, charges, strings, loops)


def make_configuration(
    charges: Iterable[Vertex] = (),
    strings: Iterable[InfinitePathSpec] = (),
    loops: Iterable[FinitePath] = (),
) -> Configuration:
    return Configuration(
        tuple(tuple(c) for c in charges), tuple(strings), tuple(loops)
    )


class EnergyReport(NamedTuple):
    region: Region
    flux_energy: int
    charge_energy: int

    @property
    def total(self) -> int:
        return self.flux_energy + self.charge_energy


def _flux_count(cfg: Configuration, region: Region) -> int:
    """The number of edges inside ``region`` that an odd number of strings
    and loops walk (shared edges cancel mod 2).

    Sums each string's count and the size of the loops' own mod-2 chain,
    then lists keys only inside the boxes where two of their in-region hulls
    overlap, where every shared edge lies: an edge walked by ``m`` of them
    counts ``m - m % 2`` too many."""
    counts = [spec.count_in(region) for spec in cfg.strings]
    loops: set[EdgeKey] = set()
    for loop in cfg.loops:
        loops ^= {e.key for e in loop.edges if region.contains_edge(e)}
    parts: list[InfinitePathSpec | set[EdgeKey]] = list(cfg.strings)
    hulls = [hull for _, hull in counts]
    if loops and cfg.strings:
        parts.append(loops)
        hulls.append(_meet(region, bounding_region(v for loop in cfg.loops for v in loop.vertices)))
    # per part, the overlaps with every other part, listed once in one box
    boxes: list[list[Region]] = [[] for _ in parts]
    for i, j in combinations(range(len(parts)), 2):
        box = _meet(hulls[i], hulls[j])
        if box is not None:
            boxes[i].append(box)
            boxes[j].append(box)
    walked: Counter[EdgeKey] = Counter()
    for part, meets in zip(parts, boxes):
        if meets:
            walked.update(_keys_in(part, bounding_region(v for box in meets for v in box)))
    return len(loops) + sum(count for count, _ in counts) - sum(m - m % 2 for m in walked.values())


def _keys_in(part: InfinitePathSpec | set[EdgeKey], box: Region) -> Iterable[EdgeKey]:
    """The keys of a string's edges, or of a set of edge keys, in ``box``."""
    if isinstance(part, InfinitePathSpec):
        return part.edges_in(box).keys()
    return {(b, a) for b, a in part if box.contains_vertex(b) and box.contains_vertex(add(b, unit(a)))}


def _meet(a: Region | None, b: Region | None) -> Region | None:
    """The box both ``a`` and ``b`` contain, or None."""
    if a is None or b is None:
        return None
    ((ax, ay, az), (bx, by, bz)), ((cx, cy, cz), (dx, dy, dz)) = a, b
    lo, hi = (max(ax, cx), max(ay, cy), max(az, cz)), (min(bx, dx), min(by, dy), min(bz, dz))
    return Region(lo, hi) if lo[0] <= hi[0] and lo[1] <= hi[1] and lo[2] <= hi[2] else None


def energy(cfg: Configuration, region: Region) -> EnergyReport:
    """Energy of the excitation pattern inside ``region``: 2 per violated
    stabilizer (flux edge in dual reading, charge vertex in primal reading).

    Coincident excitations fuse away: shared flux edges and doubled charges
    cancel mod 2 before counting."""
    flux = 2 * _flux_count(cfg, region)
    live: set[Vertex] = set()
    for c in cfg.charges:
        live.symmetric_difference_update({tuple(c)})
    charge = 2 * sum(1 for c in live if region.contains_vertex(c))
    return EnergyReport(region, flux, charge)


# ---------------------------------------------------------------------------
# projection and lift
# ---------------------------------------------------------------------------


class Projection(NamedTuple):
    """In-plane shadow of a path: the steps along ``drop_axis`` removed.

    ``dropped`` records ``(original_index, direction)`` for each removed step.
    """

    start: Vertex
    steps: tuple[Direction, ...]
    drop_axis: int
    dropped: tuple[tuple[int, Direction], ...]

    @property
    def displacement(self) -> Vertex:
        return _word_displacement(self.steps)


def project(path: FinitePath, nu: int) -> Projection:
    """Drop all steps along axis ``nu``, keeping order and a drop record."""
    kept: list[Direction] = []
    dropped: list[tuple[int, Direction]] = []
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


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------


def _segment_steps(spec: InfinitePathSpec, region: Region) -> tuple[int, int, tuple[Direction, ...]]:
    """The single in-region stretch of the path, or raise MultipleCrossings.

    Read off ``params_in`` without listing a key: each parameter counts once,
    so the in-region edges form one stretch exactly when their parameters
    span as many values as there are; the stretch's word is a
    ``realize_steps`` slice."""
    count, t_lo, t_hi, v_lo, v_hi = spec.params_in(region)
    if not count:
        raise MultipleCrossings("path has no edge inside the region")
    if t_hi - t_lo + 1 != count:
        raise MultipleCrossings("path crosses the region more than once")
    if v_lo < t_lo or v_hi > t_hi + 1:
        raise MultipleCrossings("path touches the region outside its crossing")
    return t_lo, t_hi + 1, spec.realize_steps(t_lo, t_hi)


def _bad_axes(steps: Iterable[Direction]) -> list[int]:
    letters = set(steps)
    return [a for a in AXES if (a, 1) in letters and (a, -1) in letters]


def _reroute_single_bad_axis(steps: Sequence[Direction]) -> tuple[Direction, ...]:
    """Monotone replacement for a stretch that oscillates along one axis
    only, built in one pass from one ``Counter`` of the word.

    In-plane it is the staircase between the ends.  Otherwise the monotone
    axis ``nu`` walked most is dropped: each ``nu`` step stays where it is,
    the other slots take the staircase of the rest of the displacement in
    order until it runs out, and any staircase steps left go at the end,
    which is what :func:`lift` makes of the straightened projection."""
    counts = Counter(steps)
    disp = _displacement(counts)
    walked = [counts[a, 1] + counts[a, -1] for a in AXES]
    if not all(walked):
        return monotone_staircase((0, 0, 0), disp)
    bad = next(a for a in AXES if counts[a, 1] and counts[a, -1])
    nu = max((a for a in AXES if a != bad), key=walked.__getitem__)
    shadow = iter(monotone_staircase((0, 0, 0), tuple(0 if a == nu else c for a, c in enumerate(disp))))
    lifted = [d if d[0] == nu else next(shadow, None) for d in steps]
    return (*filter(None, lifted), *shadow)


def _straighten_pass(steps: Sequence[Direction], letters: set[Direction]) -> tuple[Direction, ...]:
    """One straightening move on a non-monotone segment word with the set of
    its ``letters``: a shorter self-avoiding word between the same endpoints.
    A monotone word is the shortest between them, so the whole-segment
    staircase always progresses."""
    if len(_bad_axes(letters)) == 1:
        return _reroute_single_bad_axis(steps)
    return _case_three(steps) or monotone_staircase((0, 0, 0), _word_displacement(steps))


def straighten_once(spec: InfinitePathSpec, region: Region) -> InfinitePathSpec:
    """One straightening pass inside ``region``; strictly lowers the in-region
    edge count and never changes edges outside the region."""
    t_lo, t_hi, steps = _segment_steps(spec, region)
    letters = set(steps)
    if word_is_monotone(letters):
        raise AlreadyMonotonicInRegion("segment is already monotone in the region")
    return replace_window(spec, t_lo, t_hi, _straighten_pass(steps, letters))


def _single_bad_runs(steps: Sequence[Direction]) -> list[tuple[int, int, int]]:
    """``(j - i, i, j)`` for each start ``i`` whose longest window
    ``steps[i:j]`` with at most one two-signed axis has exactly one.

    A window's bad axes only grow with ``j`` and only shrink with ``i``, so
    one sweep of both ends with per-axis sign counts finds every ``j``."""
    n = len(steps)
    counts = dict.fromkeys(DIRECTIONS, 0)
    bad = 0
    runs = []
    j = 0
    for i in range(n):
        while j < n:
            a, s = steps[j]
            grows = counts[a, s] == 0 and counts[a, -s] > 0
            if grows and bad == 1:
                break
            counts[a, s] += 1
            bad += grows
            j += 1
        if bad == 1:
            runs.append((j - i, i, j))
        a, s = steps[i]
        counts[a, s] -= 1
        bad -= counts[a, s] == 0 and counts[a, -s] > 0
    return runs


def _case_three(steps: Sequence[Direction]):
    """Straighten the longest run that misbehaves along a single axis; each
    run walks its bad axis both ways, so its monotone reroute is shorter."""
    # imported here: loading heapq costs about 1 ms of every CLI start
    from heapq import nsmallest

    for _, i, j in nsmallest(8, _single_bad_runs(steps), key=lambda r: (-r[0], r[1])):
        candidate = tuple(steps[:i]) + _reroute_single_bad_axis(steps[i:j]) + tuple(steps[j:])
        if word_is_self_avoiding(candidate):
            return candidate
    return None


def straighten_fixpoint(spec: InfinitePathSpec, region: Region) -> tuple[InfinitePathSpec, int]:
    """Straighten until the in-region segment is monotone; returns the new
    spec and the number of :func:`straighten_once` passes.

    Each pass rewrites the segment word between the same two vertices, so
    the string is walked once and rebuilt at most once, without validation
    (:func:`~toric3d.paths._splice_monotone`): the segment is the string's
    whole in-region stretch, and the final monotone word stays inside the
    box region, so it cannot meet the rest of the string."""
    t_lo, t_hi, steps = _segment_steps(spec, region)
    count, letters = 0, set(steps)
    while not word_is_monotone(letters):
        steps = _straighten_pass(steps, letters)
        count, letters = count + 1, set(steps)
    return (_splice_monotone(spec, t_lo, t_hi, steps) if count else spec), count


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------


def deoverlap(cfg: Configuration) -> Configuration:
    """Perturb later strings by unit detours until no two share an edge."""
    strings = list(cfg.strings)
    # up to 12 detours; the 13th scan only confirms the last one
    for attempt in range(13):
        shared = _first_shared_run(strings)
        if shared is None:
            return Configuration(cfg.charges, tuple(strings), cfg.loops)
        if attempt == 12:
            raise InvalidConfiguration("strings keep overlapping after detours")
        j, t_lo, t_hi = shared
        run = strings[j].realize_steps(t_lo, t_hi - 1)
        used = {d[0] for d in run}
        detours = (
            ((axis, sign),) + run + ((axis, -sign),)
            for axis in AXES
            if axis not in used
            for sign in (+1, -1)
        )
        for detour in detours:
            try:
                strings[j] = replace_window(strings[j], t_lo, t_hi, detour)
                break
            except SelfIntersecting:
                continue
        else:
            raise InvalidConfiguration("could not detour overlapping strings apart")


def _first_shared_run(strings: Sequence[InfinitePathSpec]) -> tuple[int, int, int] | None:
    """The first contiguous run of edges that string ``j`` shares with an
    earlier string, as ``(j, t_lo, t_hi)`` with ``t_hi`` exclusive, or None."""
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            pad = 2 * (
                len(strings[i].neg_period)
                + len(strings[i].pos_period)
                + len(strings[j].neg_period)
                + len(strings[j].pos_period)
            ) + 2
            window = enclosing_region(strings[i], strings[j]).inflate(pad)
            keys_i = strings[i].edges_in(window)
            ts = [t for key, t in strings[j].edges_in(window).items() if key in keys_i]
            if ts:
                t_lo, t_hi = _contiguous_runs(ts)[0]
                return j, t_lo, t_hi + 1
    return None


def _contiguous_runs(ts: Sequence[int]) -> list[tuple[int, int]]:
    runs = []
    for t in sorted(ts):
        if runs and runs[-1][1] == t - 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    return [tuple(r) for r in runs]


def surgery(cfg: Configuration, surface: Surface) -> Configuration:
    """Cut every string along its overlap with the surface boundary and
    resplice across the boundary arcs.  The output edge chain equals the
    input chain XOR the boundary chain."""
    if surface.closed:
        raise InvalidSurface("surgery needs an open surface")
    cfg = deoverlap(cfg)
    boundary = surface.boundary
    position = {e.key: i for i, e in enumerate(boundary.edges)}
    window = bounding_region(boundary.vertices)  # holds both ends of every boundary key

    # per touched string: its boundary arc (first, last position along the
    # cycle), index, first and last overlap parameter, and the aligned spec
    touched = []
    strings = list(cfg.strings)
    for idx, spec in enumerate(strings):
        overlap = {t: key for key, t in spec.edges_in(window).items() if key in position}
        if not overlap:
            continue
        runs = _contiguous_runs(overlap)
        if len(runs) != 1:
            raise MultipleOverlapRuns(f"string {idx} meets the boundary in {len(runs)} runs")
        (p, q), = runs
        # consecutive edges of the run meet at a vertex of the simple boundary
        # cycle, so they sit next to each other on it: the run is one arc,
        # walked with the boundary or against it
        ends = position[overlap[p]], position[overlap[q]]
        if spec.step(p)[1] == boundary.edges[ends[0]].sign:
            # the string must traverse the arc against the boundary; reversal
            # maps edge t to edge len(core) - 1 - t
            spec = reverse_spec(spec)
            p, q = len(spec.core) - 1 - q, len(spec.core) - 1 - p
        else:
            ends = ends[::-1]
        touched.append((ends, idx, p, q, spec))
    if not touched:
        raise NoOverlap("surface boundary meets no string")

    # splice each string's head, the boundary arc up to the next run in
    # cycle order, and that run's string's tail
    touched.sort()
    L = len(boundary.edges)
    cycle = boundary.steps * 2
    for k, ((_, b_end), idx, p, _, spec_i) in enumerate(touched):
        (b_next, _), _, _, q, spec_j = touched[(k + 1) % len(touched)]
        arc = cycle[b_end + 1 : b_end + 1 + (b_next - b_end - 1) % L]
        a_lo = aligned_window(spec_i, p, 0)[0]
        b_hi = aligned_window(spec_j, 0, q + 1)[1]
        core = spec_i.realize_steps(a_lo, p - 1) + arc + spec_j.realize_steps(q + 1, b_hi - 1)
        strings[idx] = InfinitePathSpec(spec_i.neg_period, core, spec_j.pos_period, spec_i.vertex(a_lo))
    return Configuration(cfg.charges, tuple(strings), cfg.loops)


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------


def linking_parity(loop: FinitePath, faces: AbstractSet[Face]) -> int:
    """Parity of the number of loop edges piercing the face set: any 2-chain,
    not only a valid ``Surface``'s faces."""
    if not loop.closed:
        raise InvalidConfiguration("linking parity needs a closed loop")
    hits = sum(1 for e in loop.edges if dual_face_of_edge(e) in faces)
    return hits & 1
