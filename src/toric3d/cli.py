"""Command line interface: configuration ingestion, command dispatch, and
machine-readable reports.

Configurations and reports are JSON.  A configuration document looks like::

    {
      "strings": [{"neg_period": "Z+", "core": "", "pos_period": "Z+",
                   "base": [0, 0, 0]}],
      "charges": [[0, 0, 0], [2, 2, 2]],
      "loops":   [{"start": [0, 0, 0], "steps": "X+Y+X-Y-"}]
    }

Step words are two-character atoms over X+ X- Y+ Y- Z+ Z-.  Regions are
given as inclusive corner pairs ``x0,y0,z0:x1,y1,z1``; the same corners are
read in dual coordinates for flux energy and in primal coordinates for
charge counting, and both readings are echoed in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import transforms
from .errors import (
    ConfigSemanticError,
    ConfigSyntaxError,
    Toric3dError,
    TooLarge,
    UsageError,
)
from .lattice import (
    AXES,
    AXIS_NAMES,
    Face,
    Region,
    add,
    direction_name,
    direction_vector,
    format_steps,
    parse_steps,
    region_of,
)
from .paths import (
    MAX_TAIL_LETTERS,
    InfinitePathSpec,
    SelfIntersecting,
    StepWord,
    path_from_steps,
    validate_surface,
)
from .sectors import (
    SectorVerdict,
    charge_parity,
    classify,
    enumerate_gsc_solutions,
    sector_label,
)
from .transforms import Configuration, energy, make_configuration, surgery

SCHEMA_VERSION = 1

# the letters of one core, period or loop word: validating, classifying or
# taking the energy of a 10**5-letter core takes about 0.3 s each
# (2-vCPU VM, Python 3.11)
MAX_WORD_LETTERS = 10**5


# ---------------------------------------------------------------------------
# document parsing and serialization
# ---------------------------------------------------------------------------


def _objects(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise ConfigSyntaxError(f"{key} must be a list of objects")
    return items


def _triple(value, where: str) -> tuple:
    if not (
        isinstance(value, list)
        and len(value) == 3
        and all(isinstance(c, int) and not isinstance(c, bool) for c in value)
    ):
        raise ConfigSyntaxError(f"{where} must be 3 integers")
    return tuple(value)


def _word(entry: dict, key: str, where: str) -> StepWord:
    word = entry.get(key, "")
    if not isinstance(word, str):
        raise ConfigSyntaxError(f"{where}: step word must be a string")
    if len(word.strip()) // 2 > MAX_WORD_LETTERS:
        raise TooLarge(f"{where}: a step word has at most {MAX_WORD_LETTERS} letters")
    try:
        return parse_steps(word)
    except ValueError as ex:
        raise ConfigSyntaxError(f"{where}: {ex}") from ex


def _read_text(path: str) -> str:
    """The text of the file ``path`` (``-``: stdin); input that is not UTF-8
    is a syntax error."""
    try:
        if path == "-":
            # the bytes, so the locale's error handler cannot mask bad input
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as ex:
        where = "stdin" if path == "-" else path
        raise ConfigSyntaxError(f"{where} is not UTF-8: {ex.reason} at byte {ex.start}") from ex


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise ConfigSyntaxError(str(ex), line=ex.lineno, column=ex.colno) from ex
    except RecursionError as ex:
        raise ConfigSyntaxError("document nested too deeply") from ex
    except ValueError as ex:  # an integer literal past Python's digit limit
        raise ConfigSyntaxError(str(ex)) from ex


def parse_config(text: str) -> Configuration:
    """Parse a configuration document.  Every shape error (strings, then
    charges, then loops; a step word past ``MAX_WORD_LETTERS`` is
    TooLarge) is raised before the first semantic one (the string specs,
    then the loops)."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ConfigSyntaxError("top level must be an object")
    strings = []
    for i, s in enumerate(_objects(doc, "strings")):
        words = [
            _word(s, key, f"strings[{i}].{key}") for key in ("neg_period", "core", "pos_period")
        ]
        strings.append((*words, _triple(s.get("base", [0, 0, 0]), f"strings[{i}].base")))
    charges = doc.get("charges", [])
    if not isinstance(charges, list):
        raise ConfigSyntaxError("charges must be a list")
    charges = [_triple(c, f"charges[{i}]") for i, c in enumerate(charges)]
    loops = []
    for i, l in enumerate(_objects(doc, "loops")):
        steps = _word(l, "steps", f"loops[{i}].steps")
        loops.append((_triple(l.get("start", [0, 0, 0]), f"loops[{i}].start"), steps))

    specs = []
    for i, fields in enumerate(strings):
        try:
            specs.append(InfinitePathSpec(*fields))
        except Toric3dError as ex:
            raise ConfigSemanticError(f"strings[{i}]: {ex}", index=i) from ex
    paths = []
    for i, (start, steps) in enumerate(loops):
        try:
            loop = path_from_steps(start, steps)
        except Toric3dError as ex:
            raise ConfigSemanticError(f"loops[{i}]: {ex}", index=i) from ex
        if not loop.closed:
            raise ConfigSemanticError(f"loops[{i}] is not closed", index=i)
        paths.append(loop)
    return make_configuration(charges, specs, paths)


def configuration_to_document(cfg: Configuration) -> dict:
    return {
        "strings": [
            {
                "neg_period": format_steps(s.neg_period),
                "core": format_steps(s.core),
                "pos_period": format_steps(s.pos_period),
                "base": list(s.base),
            }
            for s in cfg.strings
        ],
        "charges": [list(c) for c in cfg.charges],
        "loops": [
            {"start": list(l.start), "steps": format_steps(l.steps)}
            for l in cfg.loops
        ],
    }


def parse_region(text: str) -> Region:
    try:
        lo_s, hi_s = text.split(":")
        lo = tuple(int(x) for x in lo_s.split(","))
        hi = tuple(int(x) for x in hi_s.split(","))
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("corners need three coordinates")
        return region_of(lo, hi)
    except (ValueError, TypeError) as ex:
        raise ConfigSyntaxError(f"bad region {text!r}: {ex}") from ex


def parse_surface_file(path: str):
    data = _load_json(_read_text(path))
    if not isinstance(data, list) or not all(isinstance(f, dict) for f in data):
        raise ConfigSyntaxError("a surface file must be a list of face objects")
    faces = []
    for i, f in enumerate(data):
        base = _triple(f.get("base"), f"faces[{i}].base")
        normal = f.get("normal")
        if not (isinstance(normal, str) and len(normal) == 1 and normal.lower() in AXIS_NAMES):
            raise ConfigSyntaxError(f"faces[{i}].normal must be one of x, y, z")
        faces.append(Face(base, AXIS_NAMES.index(normal.lower())))
    return validate_surface(faces)


def _verdict_json(v: SectorVerdict) -> dict:
    out = {"kind": v.kind.value, "frustration_free": v.frustration_free}
    if v.witness is not None:
        w = {"direction": direction_name(v.witness.direction)}
        if v.witness.string_index is not None:
            w["string_index"] = v.witness.string_index
        if v.witness.pair is not None:
            w["pair"] = list(v.witness.pair)
        out["witness"] = w
    if v.script:
        out["script"] = [
            {
                "kind": s.kind,
                "index": s.index,
                **(
                    {"region": [list(s.region.lo), list(s.region.hi)]}
                    if s.region is not None
                    else {}
                ),
            }
            for s in v.script
        ]
    return out


def _label_json(label) -> dict:
    return {
        "g": label.g,
        "tags": [
            {
                "kind": t.kind,
                "directions": sorted(direction_name(d) for d in t.directions),
                "anchors": sorted(
                    [direction_name(d), list(tau)] for d, tau in t.anchors
                ),
            }
            for t in label.tags
        ],
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(cfg: Configuration, args) -> tuple[dict, int]:
    return {"ok": True, "config": configuration_to_document(cfg)}, 0


def _cmd_classify(cfg: Configuration, args) -> tuple[dict, int]:
    verdict = classify(cfg, strict_gss=args.strict_gss)
    report = {"verdict": _verdict_json(verdict), "charge_parity": charge_parity(cfg)}
    if verdict.is_ground_sector:
        report["label"] = _label_json(sector_label(cfg, strict_gss=args.strict_gss))
    code = 0
    if args.expect_ground and not verdict.is_ground_sector:
        code = 1
    return report, code


def _cmd_energy(cfg: Configuration, args) -> tuple[dict, int]:
    region = parse_region(args.region)
    rep = energy(cfg, region)
    return {
        "region_dual_flux": [list(region.lo), list(region.hi)],
        "region_primal_charge": [list(region.lo), list(region.hi)],
        "flux_energy": rep.flux_energy,
        "charge_energy": rep.charge_energy,
        "total": rep.total,
    }, 0


def _cmd_straighten(cfg: Configuration, args) -> tuple[dict, int]:
    region = parse_region(args.region)
    results = []
    strings = list(cfg.strings)
    for i, spec in enumerate(strings):
        try:
            fixed, steps = transforms.straighten_fixpoint(spec, region)
            strings[i] = fixed
            results.append({"string": i, "steps": steps})
        except Toric3dError as ex:
            results.append({"string": i, "skipped": type(ex).__name__})
    out = Configuration(cfg.charges, tuple(strings), cfg.loops)
    return {"results": results, "config": configuration_to_document(out)}, 0


def _cmd_surgery(cfg: Configuration, args) -> tuple[dict, int]:
    surface = parse_surface_file(args.surface)
    out = surgery(cfg, surface)
    return {"config": configuration_to_document(out)}, 0


def _cmd_enumerate(args) -> tuple[dict, int]:
    rep = enumerate_gsc_solutions(args.strings)
    return {
        "n_strings": rep.n_strings,
        "raw_count": rep.raw_count,
        "raw_count_alt": rep.raw_count_alt,
        "case_inventory": rep.case_inventory,
        "orbit_count": len(rep.orbits),
        "reductions": {k: sorted(v) for k, v in rep.reduction_targets.items()},
    }, 0


# ---------------------------------------------------------------------------
# verify: cross-validate the combinatorial layer against the F2 verifier
# ---------------------------------------------------------------------------


def _random_verify_configuration(rng: random.Random) -> Configuration:
    lo, hi = 0, 4
    strings = []
    for _ in range(rng.randrange(3)):
        for _attempt in range(20):
            base = tuple(rng.randrange(lo + 1, hi) for _ in range(3))
            neg = ((rng.randrange(3), rng.choice((-1, 1))),)
            pos = ((rng.randrange(3), rng.choice((-1, 1))),)
            core = []
            v = base
            for _ in range(rng.randrange(6)):
                d = (rng.randrange(3), rng.choice((-1, 1)))
                w = add(v, direction_vector(d))
                if all(lo <= w[a] <= hi for a in AXES):
                    core.append(d)
                    v = w
            try:
                strings.append(InfinitePathSpec(neg, tuple(core), pos, base))
                break
            except SelfIntersecting:
                continue
    loops = []
    for _ in range(rng.randrange(3)):
        a1, a2 = sorted(rng.sample(AXES, 2))
        w, h = rng.randrange(1, 3), rng.randrange(1, 3)
        base = tuple(rng.randrange(lo, hi - 2) for _ in range(3))
        steps = [(a1, 1)] * w + [(a2, 1)] * h + [(a1, -1)] * w + [(a2, -1)] * h
        loops.append(path_from_steps(base, steps))
    charges = [tuple(rng.randrange(lo, hi + 1) for _ in range(3)) for _ in range(rng.randrange(4))]
    return make_configuration(charges, strings, loops)


def _check_commutation(n: int) -> dict:
    from . import stabilizer

    lat = stabilizer.FiniteLattice(n)
    plaquettes = [stabilizer.plaquette(lat, f) for f in lat.faces]
    bad = 0
    checked = 0
    for v in lat.vertices:
        sv = stabilizer.star(lat, v)
        for pf in plaquettes:
            checked += 1
            if not stabilizer.commutes(sv, pf):
                bad += 1
    return {"name": "commutation", "pairs": checked, "violations": bad, "pass": bad == 0}


def _check_energy(samples: int, seed: int) -> dict:
    from . import stabilizer

    rng = random.Random(seed)
    lat = stabilizer.FiniteLattice(13)
    region = region_of((0, 0, 0), (4, 4, 4))
    clip = region.inflate(2)
    mismatches = 0
    for _ in range(samples):
        cfg = _random_verify_configuration(rng)
        combinatorial = energy(cfg, region).total
        flip = stabilizer.configuration_flip(lat, cfg, region, clip)
        exact = stabilizer.syndrome_energy(lat, flip, region)
        if combinatorial != exact:
            mismatches += 1
    return {
        "name": "energy",
        "samples": samples,
        "mismatches": mismatches,
        "pass": mismatches == 0,
    }


def _check_gauge() -> dict:
    from . import stabilizer

    ranks = {n: stabilizer.gauge_rank(n) for n in (1, 2, 3)}
    ok = all(r == n**3 for n, r in ranks.items())
    return {"name": "gauge", "ranks": {str(k): v for k, v in ranks.items()}, "pass": ok}


def _check_nets() -> dict:
    from . import stabilizer

    reports = [stabilizer.surface_net_checks(n) for n in (1, 2)]
    ok = all(
        r.gauge_supports_distinct
        and r.gauge_supports_are_nets
        and r.single_orbit
        and r.ground_space_dim == 1
        for r in reports
    )
    ok = ok and reports[0].fiber_sizes_equal and reports[0].bitflip_bijection
    return {
        "name": "nets",
        "dims": [r.ground_space_dim for r in reports],
        "boundary_conditions_n1": reports[0].boundary_conditions,
        "pass": bool(ok),
    }


def _check_truncation(seed: int) -> dict:
    from . import stabilizer

    rng = random.Random(seed)
    lat = stabilizer.FiniteLattice(11)
    failures = 0
    cases = 0
    for _ in range(40):
        m = rng.randrange(1, 3)
        v = tuple(rng.randrange(-(m // 2), m - m // 2) for _ in range(3))
        edges = stabilizer.FiniteLattice(m).interior_edges
        obs = stabilizer.pauli_from_keys(
            lat,
            x_keys=[k for k in edges if rng.random() < 0.4],
            z_keys=[k for k in edges if rng.random() < 0.4],
        )
        n1 = rng.randrange(m + 1, 4)
        n2 = rng.randrange(n1 + 1, 5)
        s1 = stabilizer.straight_string_pauli(lat, v, n1)
        s2 = stabilizer.straight_string_pauli(lat, v, n2)
        cases += 1
        if not stabilizer.truncation_stable(obs, s1, s2):
            failures += 1
        m1 = stabilizer.growing_membrane_pauli(lat, (0, 0, 2), n1)
        m2 = stabilizer.growing_membrane_pauli(lat, (0, 0, 2), n2)
        cases += 1
        if not stabilizer.truncation_stable(obs, m1, m2):
            failures += 1
    return {"name": "truncation", "cases": cases, "failures": failures, "pass": failures == 0}


# each check by name, run on the parsed arguments
_CHECKS = {
    "commutation": lambda args: _check_commutation(args.n),
    "energy": lambda args: _check_energy(samples=args.samples, seed=args.seed),
    "gauge": lambda args: _check_gauge(),
    "nets": lambda args: _check_nets(),
    "truncation": lambda args: _check_truncation(seed=args.seed),
}
# the commutation check pairs every star with every face: n = 3 is 3888 pairs
_MAX_COMMUTATION_N = 3
# an energy sample takes about 0.5 ms (2-vCPU VM, Python 3.11): 5-6 s at the cap
_MAX_SAMPLES = 10_000


def _cmd_verify(args) -> tuple[dict, int]:
    if args.n < 1:
        raise ConfigSyntaxError(f"--n must be >= 1, got {args.n}")
    if args.n > _MAX_COMMUTATION_N:
        raise TooLarge(f"--n must be <= {_MAX_COMMUTATION_N}, got {args.n}")
    if args.samples < 0:
        raise ConfigSyntaxError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > _MAX_SAMPLES:
        raise TooLarge(f"--samples must be <= {_MAX_SAMPLES}, got {args.samples}")
    wanted = _CHECKS if args.checks == "all" else (args.checks,)
    results = [_CHECKS[name](args) for name in wanted]
    ok = all(r["pass"] for r in results)
    return {"checks": results, "pass": ok}, 0 if ok else 1


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print usage and exit;
    subcommand parsers are built from the same class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toric3d",
        description="Ground-sector decisions for charges and infinite flux strings on Z^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_arg(p):
        p.add_argument("--config", default="-", help="configuration JSON file, or - for stdin;"
                       f" a step word of more than {MAX_WORD_LETTERS} letters is TooLarge")

    p = sub.add_parser("validate", help="parse and echo a configuration")
    add_config_arg(p)

    p = sub.add_parser("classify", help="sector verdict and label")
    add_config_arg(p)
    p.add_argument("--strict-gss", action="store_true", help="use the literal total-intersection reading")
    p.add_argument("--expect-ground", action="store_true", help="exit 1 unless in a ground sector")

    for name, what in (("energy", "excitation energy"), ("straighten", "straighten all strings")):
        p = sub.add_parser(name, help=f"{what} inside a region")
        add_config_arg(p)
        p.add_argument("--region", required=True, help="x0,y0,z0:x1,y1,z1; a string tail that"
                       f" needs more than {MAX_TAIL_LETTERS} steps to leave it is TooLarge")

    p = sub.add_parser("surgery", help="resplice strings along a membrane boundary")
    add_config_arg(p)
    p.add_argument("--surface", required=True, help="JSON file with a list of dual faces")

    p = sub.add_parser("enumerate", help="classify tail-direction assignments")
    p.add_argument("--strings", type=int, choices=(2, 3), required=True)

    p = sub.add_parser("verify", help="cross-validate against the F2 verifier")
    p.add_argument(
        "--n", type=int, default=3,
        help=f"block side for commutation checks, 1 to {_MAX_COMMUTATION_N} (default 3)",
    )
    p.add_argument("--checks", default="all", choices=(*_CHECKS, "all"))
    p.add_argument(
        "--samples", type=int, default=50,
        help=f"random samples for the energy check, 0 to {_MAX_SAMPLES} (default 50)",
    )
    p.add_argument("--seed", type=int, default=0)
    return parser


def run(argv=None) -> tuple[dict, int]:
    # argparse names the command here before it parses the command's flags
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, args)
        if args.command == "enumerate":
            report, code = _cmd_enumerate(args)
        elif args.command == "verify":
            report, code = _cmd_verify(args)
        else:
            cfg = parse_config(_read_text(args.config))
            handler = {
                "validate": _cmd_validate,
                "classify": _cmd_classify,
                "energy": _cmd_energy,
                "straighten": _cmd_straighten,
                "surgery": _cmd_surgery,
            }[args.command]
            report, code = handler(cfg, args)
    except (Toric3dError, OSError) as ex:
        error = "IOError" if isinstance(ex, OSError) else type(ex).__name__
        report, code = {"error": error, "message": str(ex)}, 2
    report["schema_version"] = SCHEMA_VERSION
    report["command"] = args.command
    return report, code


def main(argv=None) -> int:
    report, code = run(argv)
    try:
        print(json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
