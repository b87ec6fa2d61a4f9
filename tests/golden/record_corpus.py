"""Record ``tests/golden/corpus.json``: the byte-exact stdout and exit code of
``validate``/``classify``/``energy``/``straighten`` on seeded configurations.

Run from the repository root against the tree whose reports are to be pinned::

    PYTHONPATH=src:. python tests/golden/record_corpus.py > tests/golden/corpus.json

Each command runs in a fresh ``python -m toric3d.cli`` with the document on
stdin.  The documents are stored in the corpus, so the test replays them
without this generator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from tests._gen import (
    _random_word,
    random_core,
    random_loop,
    random_monotone_spec,
    random_nonmonotone_spec,
    random_spec,
    zigzag_core,
)
from toric3d.errors import SelfIntersecting
from toric3d.lattice import format_steps
from toric3d.paths import InfinitePathSpec


def _string(spec) -> dict:
    return {
        "neg_period": format_steps(spec.neg_period),
        "core": format_steps(spec.core),
        "pos_period": format_steps(spec.pos_period),
        "base": list(spec.base),
    }


def _line(neg, core, pos, base=(0, 0, 0)) -> dict:
    return {"neg_period": neg, "core": core, "pos_period": pos, "base": list(base)}


def _loop(path) -> dict:
    return {"start": list(path.start), "steps": format_steps(path.steps)}


def _spec_with_core(rng, core):
    """A spec around ``core`` with random tail words of 1 to 3 letters."""
    for _ in range(200):
        base = tuple(int(x) for x in rng.integers(-2, 3, 3))
        try:
            return InfinitePathSpec(_random_word(rng, 3), core, _random_word(rng, 3), base)
        except SelfIntersecting:
            continue
    raise RuntimeError("could not frame the core with tails")


def _shifted(spec, shift):
    base = tuple(b + s for b, s in zip(spec.base, shift))
    return InfinitePathSpec(spec.neg_period, spec.core, spec.pos_period, base)


def documents() -> list[tuple[str, dict]]:
    rng = np.random.default_rng(20261018)
    docs: list[tuple[str, dict]] = []

    def add(name, strings=(), charges=(), loops=()):
        doc = {"strings": list(strings), "charges": [list(c) for c in charges]}
        if loops:
            doc["loops"] = list(loops)
        docs.append((name, doc))

    def charges(k, lo=-3, hi=4):
        return [tuple(int(x) for x in rng.integers(lo, hi, 3)) for _ in range(k)]

    for i in range(6):
        add(f"short{i}", [_string(random_spec(rng, max_period=3))], charges(i % 3))
    for i in range(3):
        add(f"nonmonotone{i}", [_string(random_nonmonotone_spec(rng))])
    for n in (20, 40, 80, 160, 320):
        add(f"zigzag{n}", [_string(_spec_with_core(rng, zigzag_core(rng, n)))])
    for i, n in enumerate((40, 120, 320, 320)):
        core = ()
        while len(core) < n:
            core = random_core(rng, max_len=8 * n, lo=-8, hi=8, self_avoiding=True)
        add(f"selfavoiding{n}_{i}", [_string(_spec_with_core(rng, core[:n]))])
    for i in range(4):
        a = random_monotone_spec(rng)
        b = _shifted(random_spec(rng, max_period=3), (6, 0, 0))
        add(f"two{i}", [_string(a), _string(b)], charges(i % 2))
    for i in range(3):
        specs = [_shifted(random_spec(rng, max_period=2), (6 * k, 0, 0)) for k in range(3)]
        add(f"three{i}", [_string(s) for s in specs])
    for i in range(3):
        loops = [_loop(random_loop(rng, lo=-2, hi=2)) for _ in range(1 + i)]
        add(f"loops{i}", [], charges(2 * i), loops)
    add("charges_only", [], charges(5))
    add("loop_and_string", [_string(random_monotone_spec(rng))], [], [_loop(random_loop(rng, lo=4, hi=8))])
    add("empty")
    add("line", [_line("Z+", "", "Z+")])
    add("u", [_line("Z+", "X+", "Z-")])
    add("wide_u", [_line("Z+", "X+X+X+", "Z-")], [(0, 0, 0)])
    add("parallel_lines", [_line("Z+", "", "Z+"), _line("Z+", "", "Z+", (2, 0, 0))])
    add("double_u", [_line("Z+", "X+", "Z-"), _line("Z-", "X-", "Z+", (4, 0, 0))])
    add(
        "four_strings",
        [
            _line("X+", "", "X+"),
            _line("Y+", "", "Y+", (0, 3, 0)),
            _line("Z+", "", "Z+", (3, 0, 0)),
            _line("X+Y+", "", "X+Y+", (5, 5, 5)),
        ],
    )
    add("staircase", [_line("X+Y+Z+", "X+Y+Z+X+", "Y+Z+X+")])
    add("oscillating", [_line("Z+", "X+Z+X-Z+Y+Z+Y-Z+" * 8, "Z+")])
    add("self_intersecting", [_line("Z+", "X+Y+X-Y-", "Z+")])
    add("open_loop", [], [], [{"start": [0, 0, 0], "steps": "X+Y+"}])
    # one shape error and one semantic error in different fields: the shape
    # error is reported, wherever it sits
    knot = _line("Z+", "X+Y+X-Y-", "Z+")
    add("reject_string_then_charge", [knot], [(0, 0, 0), (True, 0, 0)])
    add(
        "reject_loop_then_string_atom",
        [_line("Z+", "", "Z+"), _line("Z+", "", "Z+Q+", (3, 0, 0))],
        [],
        [{"start": [0, 0, 0], "steps": "X+Y+"}],
    )
    add("reject_string_then_loop_atom", [knot], [], [{"start": [5, 0, 0], "steps": "X+Y+X-W-"}])
    add("reject_period_then_base", [_line("X+X-", "", "Z+"), _line("Z+", "", "Z+", (3, 0, 1.5))])
    add(
        "reject_loop_then_start",
        [],
        [],
        [{"start": [0, 0, 0], "steps": "X+Y+X-Y-X+"}, {"start": [0, 0], "steps": "X+Y+X-Y-"}],
    )
    add("reject_string_then_word_type", [knot, {**_line("Z+", "", "Z+", (3, 0, 0)), "pos_period": 5}])
    add("reject_core_atom", [_line("Z+", "Z+Q+", "Z+")])
    add("reject_short_base", [{**_line("Z+", "X+", "Z-"), "base": [0, 0]}])
    return docs


_ATOMS = {axis + sign for axis in "XYZ" for sign in "+-"}


def _box(doc, pad: int, half: bool = False) -> str:
    """``--region=`` over the cores' vertices and charges, padded by ``pad``;
    with ``half``, only its lower half along x, which long cores cross often."""
    points = [tuple(c) for c in doc["charges"]]
    for s in doc["strings"]:
        # a base that is not three numbers has no vertices to box, and a core
        # is walked up to its first atom that is not a step
        v = s["base"]
        if not (isinstance(v, list) and len(v) == 3 and all(type(c) in (int, float) for c in v)):
            continue
        v = list(v)
        points.append(tuple(v))
        core = s["core"]
        for i in range(0, len(core), 2):
            if core[i : i + 2] not in _ATOMS:
                break
            axis = "XYZ".index(core[i])
            v[axis] += 1 if core[i + 1] == "+" else -1
            points.append(tuple(v))
    points = points or [(0, 0, 0)]
    lo = [min(p[a] for p in points) - pad for a in range(3)]
    hi = [max(p[a] for p in points) + pad for a in range(3)]
    if half:
        hi[0] = (lo[0] + hi[0]) // 2
    return "--region=" + ",".join(map(str, lo)) + ":" + ",".join(map(str, hi))


def commands(doc) -> list[list[str]]:
    out = [["validate"], ["classify"], ["energy", _box(doc, 1)], ["straighten", _box(doc, 3)]]
    if len(doc["strings"]) >= 2:
        out.append(["classify", "--strict-gss"])
    out.append(["classify", "--expect-ground"])
    out.append(["energy", _box(doc, 0)])
    out.append(["straighten", _box(doc, 1, half=True)])
    return out


def main() -> None:
    env = dict(os.environ, PYTHONPATH="src")
    cases = []
    for name, doc in documents():
        text = json.dumps(doc, sort_keys=True)
        runs = []
        for argv in commands(doc):
            proc = subprocess.run(
                [sys.executable, "-m", "toric3d.cli", *argv],
                input=text.encode(),
                capture_output=True,
                env=env,
                check=False,
            )
            runs.append({"argv": argv, "code": proc.returncode, "stdout": proc.stdout.decode()})
        cases.append({"name": name, "config": text, "runs": runs})
    json.dump({"cases": cases}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
