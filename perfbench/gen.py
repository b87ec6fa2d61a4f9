"""Seeded input generator for the benchmark.

Everything here is plain Python and never imports toric3d: the program under
test only ever sees the JSON-able documents produced below (step words,
bases, faces, regions and argv lists).  Every configuration is built so that
its verdict is known by construction, and every string is self-avoiding by
construction, so a failed operation always points at the program.

Step words use the program's atoms ``X+ X- Y+ Y- Z+ Z-``; a direction is an
``(axis, sign)`` pair.
"""

from __future__ import annotations

import random

AXES = (0, 1, 2)
GS = "GroundState"
GSNGS = "GroundSectorNotGroundState"
NGS = "NotGroundSector"
KINDS = (GS, GSNGS, NGS)

# decide: core lengths, and configuration ops per (kind, size) in one pass
DECIDE_SIZES = (80, 320, 1280)
DECIDE_VARIANTS = 4
# membrane sizes k x h of the surgery ops in one pass: 1 op in 5
DECIDE_SURGERY = ((1, 1), (1, 16), (2, 8), (3, 5), (4, 12), (5, 3), (6, 16), (8, 8), (8, 16))
DECIDE_PASSES = 16  # distinct passes: more than one run completes

VERIFY_BLOCK = 21
VERIFY_REGION = ((0, 0, 0), (8, 8, 8))
VERIFY_MAX_CORE = 20
VERIFY_PASS = 20
VERIFY_PASSES = 48

EXHAUSTIVE_CYCLE = (
    {"op": "gauge_rank", "n": 7},
    {"op": "gauge_rank", "n": 9},
    {"op": "gauge_rank", "n": 11},
    {"op": "surface_net_checks", "n": 1},
    {"op": "surface_net_checks", "n": 2},
    {"op": "enumerate", "strings": 2},
    {"op": "enumerate", "strings": 3},
)
# the four cases of the former numba-vs-numpy kernel script, traced run only
KERNEL_CASES = (
    {"case": "f2_rank.dense256x2048", "kernel": "f2_rank", "rows": 256, "bits": 2048, "calls": 1},
    {"case": "f2_rank.dense1024x8192", "kernel": "f2_rank", "rows": 1024, "bits": 8192, "calls": 1},
    {"case": "anticommute_batch.4096x4096", "kernel": "anticommute_batch", "rows": 4096, "bits": 4096, "calls": 1},
    {"case": "symplectic_parity.512bx20k", "kernel": "symplectic_parity", "rows": 1, "bits": 512, "calls": 20000},
)

CLI_COMMANDS = ("validate", "classify", "energy", "straighten", "surgery")
CLI_MAX_CORE = 80
CLI_PASSES = 16


def word(steps) -> str:
    return "".join("XYZ"[a] + ("+" if s > 0 else "-") for a, s in steps)


def _walk(start, steps):
    out = [tuple(start)]
    for a, s in steps:
        v = list(out[-1])
        v[a] += s
        out.append(tuple(v))
    return out


def _bbox(vertices):
    return [[min(v[a] for v in vertices) for a in AXES], [max(v[a] for v in vertices) for a in AXES]]


def _inflate(box, k):
    return [[c - k for c in box[0]], [c + k for c in box[1]]]


def _union(boxes):
    return [
        [min(b[0][a] for b in boxes) for a in AXES],
        [max(b[1][a] for b in boxes) for a in AXES],
    ]


def _string_doc(neg, core, pos, base):
    return {"neg_period": word(neg), "core": word(core), "pos_period": word(pos), "base": list(base)}


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------


def _monotone_core(rng, length, signs, zigzag):
    """Monotone core: a two-axis staircase, or a random walk on all axes."""
    if zigzag:
        a, b = rng.sample(AXES, 2)
        return [(a, signs[a]) if i % 2 == 0 else (b, signs[b]) for i in range(length)]
    return [(ax, signs[ax]) for ax in (rng.choice(AXES) for _ in range(length))]


def _one_bad_axis_core(rng, length, bad, signs, zigzag, first_not=None, last_not=None):
    """Core that walks ``bad`` both ways and every other axis one way only.

    A reversal along ``bad`` always has a step on another axis in between,
    so the walk cannot revisit a vertex.  ``first_not``/``last_not`` forbid a
    first or last step that would run into a straight tail on that column.
    """
    others = [a for a in AXES if a != bad]
    if zigzag:
        m = rng.choice(others)
        up = signs[bad] if first_not != (bad, signs[bad]) else -signs[bad]
        pattern = [(bad, up), (m, signs[m]), (bad, -up), (m, signs[m])]
        return [pattern[i % 4] for i in range(length)]
    while True:
        steps = []
        last_bad = 0
        for i in range(length):
            options = [(a, signs[a]) for a in others] + [(bad, +1), (bad, -1)]
            options = [d for d in options if not (d[0] == bad and d[1] == -last_bad)]
            if i == 0 and first_not is not None:
                options = [d for d in options if d != first_not]
            if i == length - 1 and last_not is not None:
                options = [d for d in options if d != last_not]
            d = rng.choice(options)
            steps.append(d)
            last_bad = d[1] if d[0] == bad else 0
        if (bad, +1) in steps and (bad, -1) in steps:
            return steps


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _tail(rng, axis, signs, axes):
    """A 1-3 letter monotone period that heads along ``axis`` and may mix in
    the other ``axes`` with their signs."""
    letters = [(axis, signs[axis])]
    for _ in range(rng.randint(0, 2)):
        a = rng.choice(axes)
        letters.append((a, signs[a]))
    rng.shuffle(letters)
    return letters


def _decide_string(rng, length, mode, tail_axis, zigzag, multi_tails):
    """One string; ``mode`` is 'monotone', 'bad' (one oscillating axis) or 'u'
    (both tails head the same way: outside every ground sector)."""
    signs = {a: rng.choice((-1, 1)) for a in AXES}
    t = tail_axis
    if mode == "u":
        # walked backwards, the neg letters (t, up) hang towards -up; the pos
        # letters (t, -up) head the same way
        up = signs[t]
        neg = [(t, up)] * rng.randint(1, 3)
        pos = [(t, -up)] * rng.randint(1, 3)
        core = _one_bad_axis_core(
            rng, length, t, signs, zigzag, first_not=(t, -up), last_not=(t, up)
        )
        return neg, core, pos
    if mode == "monotone":
        core = _monotone_core(rng, length, signs, zigzag)
        axes = list(AXES)
    else:
        bad = rng.choice([a for a in AXES if a != t])
        core = _one_bad_axis_core(rng, length, bad, signs, zigzag)
        axes = [a for a in AXES if a != bad]  # tails stay off the oscillating axis
    if not multi_tails:
        axes = [t]
    return _tail(rng, t, signs, axes), core, _tail(rng, t, signs, axes)


def _loop(rng, box):
    a1, a2 = sorted(rng.sample(AXES, 2))
    w, h = rng.randint(1, 3), rng.randint(1, 3)
    start = [rng.randint(box[0][a], box[1][a]) for a in AXES]
    steps = [(a1, 1)] * w + [(a2, 1)] * h + [(a1, -1)] * w + [(a2, -1)] * h
    return {"start": start, "steps": word(steps)}, _walk(start, steps)


def decide_config(rng, kind, size, variant):
    """A configuration op whose verdict ``kind`` is known by construction."""
    n_strings = 1 + variant % 3
    zigzag = variant < 2
    if kind == GS:
        modes = ["monotone"] * n_strings
    elif kind == GSNGS:
        modes = ["monotone" if variant == 3 else "bad"] * n_strings
    elif variant in (1, 2):  # overlapping direction sets of sector-valid strings
        modes = [rng.choice(("monotone", "bad")) for _ in range(n_strings)]
    else:
        modes = ["u"] + ["monotone"] * (n_strings - 1)
    tail_axes = rng.sample(AXES, n_strings)
    if kind == NGS and variant in (1, 2):
        tail_axes[1] = tail_axes[0]
    strings, boxes = [], []
    for i, mode in enumerate(modes):
        neg, core, pos = _decide_string(rng, size, mode, tail_axes[i], zigzag, n_strings == 1)
        rel = _bbox(_walk((0, 0, 0), core))
        # each core box lies beyond the previous one on every axis, so the
        # single-axis tails of different strings never meet
        corner = boxes[-1][1] if boxes else [rng.randint(-4, 4) - 4 for _ in AXES]
        base = [corner[a] + 4 - rel[0][a] for a in AXES]
        doc = _string_doc(neg, core, pos, base)
        box = [[base[a] + corner_rel[a] for a in AXES] for corner_rel in rel]
        doc["region"] = _inflate(box, 2)
        strings.append(doc)
        boxes.append(box)
    box = _union(boxes)
    n_loops = 0
    if kind == GSNGS and variant == 3:
        n_loops = rng.randint(1, 2)
    elif kind != GS:
        n_loops = rng.randint(0, 2)
    loops = []
    for _ in range(n_loops):
        loop, verts = _loop(rng, box)
        loops.append(loop)
        boxes.append(_bbox(verts))
    charges = [[rng.randint(box[0][a], box[1][a]) for a in AXES] for _ in range(rng.randint(0, 3))]
    region = _inflate(_union(boxes), 1)
    return {
        "op": "config",
        "size": size,
        "expect": kind,
        "strings": strings,
        "charges": charges,
        "loops": loops,
        "region": region,
    }


def surgery_doc(rng, k, h):
    """Two parallel lines spliced through a k x h membrane into a double U."""
    line_axis, gap_axis, normal = rng.sample(AXES, 3)
    origin = [rng.randint(-20, 20) for _ in AXES]
    lines = []
    for offset in (0, k):
        base = list(origin)
        base[gap_axis] += offset
        sign = rng.choice((-1, 1))
        period = [(line_axis, sign)] * rng.randint(1, 3)
        lines.append(_string_doc(period, [], period, base))
    faces = []
    for i in range(k):
        for j in range(h):
            b = list(origin)
            b[gap_axis] += i
            b[line_axis] += j
            faces.append({"base": b, "normal": "xyz"[normal]})
    return {"op": "surgery", "k": k, "h": h, "lines": lines, "faces": faces}


def decide_docs(seed, sizes=DECIDE_SIZES, passes=DECIDE_PASSES, surgery=DECIDE_SURGERY):
    """Passes of equal composition: every (kind, size) pair DECIDE_VARIANTS
    times, plus the surgery ops."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        ops = [
            decide_config(rng, kind, size, v)
            for kind in KINDS
            for size in sizes
            for v in range(DECIDE_VARIANTS)
        ]
        ops += [surgery_doc(rng, k, h) for k, h in surgery]
        rng.shuffle(ops)
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _self_avoiding(neg, core, pos, base, margin):
    """Vertex-distinctness of a truncation reaching ``margin`` steps past the
    core on both straight tails (straight rays cannot meet farther out)."""
    v = list(base)
    back = []
    for _ in range(margin):
        a, s = neg[0]
        v[a] -= s
        back.append(tuple(v))
    verts = list(reversed(back)) + _walk(base, core)
    v = list(verts[-1])
    for _ in range(margin):
        a, s = pos[0]
        v[a] += s
        verts.append(tuple(v))
    return len(set(verts)) == len(verts)


def verify_config(rng, n_strings, region=VERIFY_REGION, max_core=VERIFY_MAX_CORE):
    lo, hi = region
    strings = []
    for _ in range(n_strings):
        while True:
            base = [rng.randint(lo[a] + 1, hi[a] - 1) for a in AXES]
            neg = [(rng.choice(AXES), rng.choice((-1, 1)))]
            pos = [(rng.choice(AXES), rng.choice((-1, 1)))]
            core, v = [], list(base)
            for _ in range(rng.randint(0, max_core)):
                a, s = rng.choice(AXES), rng.choice((-1, 1))
                if lo[a] <= v[a] + s <= hi[a]:
                    core.append((a, s))
                    v[a] += s
            if _self_avoiding(neg, core, pos, base, margin=2 * max(hi) + 8):
                strings.append(_string_doc(neg, core, pos, base))
                break
    loops = []
    for _ in range(rng.randint(0, 2)):
        a1, a2 = sorted(rng.sample(AXES, 2))
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        start = [rng.randint(lo[a], hi[a] - 3) for a in AXES]
        steps = [(a1, 1)] * w + [(a2, 1)] * h + [(a1, -1)] * w + [(a2, -1)] * h
        loops.append({"start": start, "steps": word(steps)})
    charges = [[rng.randint(lo[a], hi[a]) for a in AXES] for _ in range(rng.randint(0, 3))]
    return {"op": "verify", "strings": strings, "charges": charges, "loops": loops}


def verify_docs(seed, per_pass=VERIFY_PASS, passes=VERIFY_PASSES, **kw):
    """Passes of equal composition: 1 in 5 configurations without strings,
    2 in 5 with one string and 2 in 5 with two."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        ops = [verify_config(rng, (0, 1, 1, 2, 2)[i % 5], **kw) for i in range(per_pass)]
        rng.shuffle(ops)
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------


def exhaustive_docs(seed, cycle=EXHAUSTIVE_CYCLE, passes=12):
    """The fixed cycle of one-shot checks, in a seeded order per pass."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        ops = [dict(op) for op in cycle]
        rng.shuffle(ops)
        out.append(ops)
    return out


def kernel_cases(seed, cases=KERNEL_CASES):
    rng = random.Random(seed)
    return [dict(c, seed=rng.randrange(2**32)) for c in cases]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _cli_config(rng, kind, max_core):
    cfg = decide_config(rng, kind, max_core, rng.randrange(DECIDE_VARIANTS))
    doc = {key: cfg[key] for key in ("charges", "loops")}
    doc["strings"] = [{k: v for k, v in s.items() if k != "region"} for s in cfg["strings"]]
    return doc, cfg


def _region_arg(region):
    return "--region=" + ":".join(",".join(str(c) for c in corner) for corner in region)


def cli_docs(seed, passes=CLI_PASSES, max_core=CLI_MAX_CORE):
    """Each op: one ``toric3d`` command on small documents written in set-up;
    one op per command in a pass."""
    rng = random.Random(seed)
    out = []
    n = 0
    for _ in range(passes):
        ops = []
        for command in CLI_COMMANDS:
            n += 1
            files = {}
            if command == "surgery":
                sdoc = surgery_doc(rng, rng.randint(1, 4), rng.randint(1, 6))
                files[f"cfg{n}.json"] = {"strings": sdoc["lines"]}
                files[f"faces{n}.json"] = sdoc["faces"]
                argv = [command, "--config", f"cfg{n}.json", "--surface", f"faces{n}.json"]
            else:
                doc, cfg = _cli_config(rng, rng.choice(KINDS), max_core)
                files[f"cfg{n}.json"] = doc
                argv = [command, "--config", f"cfg{n}.json"]
                if command == "classify":
                    argv.append("--expect-ground")
                elif command == "energy":
                    argv.append(_region_arg(cfg["region"]))
                elif command == "straighten":
                    argv.append(_region_arg(cfg["strings"][0]["region"]))
            ops.append({"op": "cli", "argv": argv, "files": files})
        rng.shuffle(ops)
        out.append(ops)
    return out


GENERATORS = {
    "decide": decide_docs,
    "verify": verify_docs,
    "exhaustive": exhaustive_docs,
    "cli": cli_docs,
}

TINY = {
    "decide": dict(sizes=(8, 16, 32), passes=1, surgery=((1, 1), (2, 3), (3, 2))),
    "verify": dict(per_pass=4, passes=1, region=((0, 0, 0), (4, 4, 4)), max_core=6),
    "exhaustive": dict(
        cycle=(
            {"op": "gauge_rank", "n": 3},
            {"op": "surface_net_checks", "n": 2},
            {"op": "enumerate", "strings": 3},
        ),
        passes=1,
    ),
    "cli": dict(passes=1, max_core=8),
}


def generate(workload, seed, tiny=False):
    """All inputs of a run: a list of passes, each a list of op documents."""
    return GENERATORS[workload](seed, **(TINY[workload] if tiny else {}))
