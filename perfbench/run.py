"""toric3d benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The inputs are generated from ``--seed`` before any
program code loads.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gen
from reference import IMPORT_NOMINAL_S, time_import

WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOADS = ("decide", "verify", "exhaustive", "cli")
# a run's loop is split over this many fresh interpreters in turn, each
# starting at its own pass, so per-process effects (memory layout, hash seed)
# average out
WORKERS = 4
# set-up samples of an untraced run: each measuring worker's start, and before
# each of them this many starts of a worker that exits once ready
SETUP_EXTRA = 1
RUN_TIMEOUT = 170  # seconds for all workers of a run; a run must end within 180
# percentile reported as latency_tail_ms: one that leaves at least ten samples
# beyond it at the run length in BENCHMARK.json; below the highest such one
# where that one moved by more than a third of the bound between seeds
TAIL_PERCENTILE = {"decide": 95, "verify": 75, "exhaustive": 75, "cli": 80}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for size in (f"core{n}" for n in gen.DECIDE_SIZES):
        names += [
            f"paths.spec.{size}.time_ms",
            f"paths.spec.{size}.letters",
            f"paths.path_equivalent.{size}.time_ms",
            f"sectors.classify.{size}.time_ms",
            f"sectors.classify.{size}.script_steps",
            f"sectors.sector_label.{size}.time_ms",
            f"transforms.energy.{size}.time_ms",
            f"transforms.energy.{size}.flux_edges",
            f"transforms.straighten.{size}.time_ms",
            f"transforms.straighten.{size}.passes",
        ]
    names += [
        "paths.loop.time_ms",
        "transforms.make_configuration.time_ms",
        "paths.spec.line.time_ms",
        "paths.validate_surface.time_ms",
        "paths.validate_surface.faces",
        "transforms.surgery.time_ms",
        "sectors.classify.double_u.time_ms",
        # verify
        f"stabilizer.lattice_build.n{gen.VERIFY_BLOCK}.time_ms",
        f"stabilizer.lattice_build.n{gen.VERIFY_BLOCK}.qubits",
        "paths.spec.core20.time_ms",
        "transforms.energy.core20.time_ms",
        "transforms.energy.core20.flux_edges",
        "stabilizer.configuration_flip.time_ms",
        "stabilizer.configuration_flip.weight",
        "stabilizer.syndrome_energy.time_ms",
        "stabilizer.syndrome_energy.checks",
    ]
    # exhaustive
    for op in gen.EXHAUSTIVE_CYCLE:
        if op["op"] == "gauge_rank":
            n = op["n"]
            names += [
                f"stabilizer.lattice_build.n{n}.time_ms",
                f"stabilizer.lattice_build.n{n}.qubits",
                f"stabilizer.star_matrix.n{n}.time_ms",
                f"stabilizer.gauge_rank.n{n}.time_ms",
                f"stabilizer.gauge_rank.n{n}.rows",
                f"stabilizer.gauge_rank.n{n}.bits",
                f"stabilizer.gauge_rank.n{n}.computed_bytes",
            ]
        elif op["op"] == "surface_net_checks":
            names.append(f"stabilizer.surface_net_checks.n{op['n']}.time_ms")
        else:
            s = op["strings"]
            names += [f"sectors.enumerate.s{s}.time_ms", f"sectors.enumerate.s{s}.raw_count"]
    names += [f"kernels.{case['case']}.time_ms" for case in gen.KERNEL_CASES]
    names += [
        "cli.interpreter.time_ms",
        "cli.import.time_ms",
        "cli.run.time_ms",
        "cli.command.stdout_bytes",
        "cli.residual.time_ms",
    ]
    names += [
        f"{layer}.share"
        for layer in ("harness", "paths", "sectors", "transforms", "lattice", "stabilizer", "kernels", "cli")
    ]
    names += ["trace.overhead_frac", "trace.untraced_ops", "trace.traced_ops", "error_rate"]
    return names


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def commit_of(root):
    """The checked-out commit read from ``.git`` without running git, if any."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(root, args, deadline):
    """Launch a worker, wait for it to end and return its seconds from
    process start to READY; kill it at ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        waiting, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if waiting else ""
        ready = perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed with exit code {proc.returncode}")
    return ready


def sample_setup(root, args, deadline, setup, refs):
    """Time a worker's start-up, and a fresh ``import numpy`` just before it.

    Start-up is process creation, imports and file reads, whose speed on a
    shared host drifts apart from the in-process probe's; the import
    reference drifts with it, so ``setup_s`` is reported at that reference's
    nominal speed."""
    refs.append(time_import())
    setup.append(start_worker(root, args, deadline))


def merge(outs):
    """One result from the workers' results, in the order they ran."""
    out = dict(outs[0])
    for key in ("latencies", "pass_seconds", "errors"):
        out[key] = [x for o in outs for x in o[key]]
    out["failed"] = sum(o["failed"] for o in outs)
    out["peak_rss_mb"] = max(o["peak_rss_mb"] for o in outs)
    for key in ("raw_p50_ms", "reference_ms"):
        out[key] = statistics.median(o[key] for o in outs)
    return out


def end_to_end(workload, setup, setup_refs, out):
    lat_ms = [x * 1e3 for x in out["latencies"]]
    per_pass = len(lat_ms) / len(out["pass_seconds"])
    values = {
        # a ratio of medians: one reference start-up stalled for a moment
        # moves its median less than the sample it would scale alone
        "setup_s": statistics.median(setup) * IMPORT_NOMINAL_S / statistics.median(setup_refs),
        # median over passes, each of the same composition, so a slow spell
        # of the machine during a few passes does not move it
        "ops_per_s": statistics.median(per_pass / s for s in out["pass_seconds"]),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(out):
    m = dict(out["spans"])
    if "cli.interpreter.time_ms" in m:
        m["cli.import.time_ms"] = m.pop("cli.import_total.time_ms") - m["cli.interpreter.time_ms"]
        m["cli.residual.time_ms"] = (
            out["raw_p50_ms"]
            - m["cli.interpreter.time_ms"]
            - m["cli.import.time_ms"]
            - m["cli.run.time_ms"]
        )
    base, traced = out["untraced_latencies"], out["latencies"]
    m["trace.untraced_ops"] = len(base)
    m["trace.traced_ops"] = len(traced)
    m["trace.overhead_frac"] = 1.0 - sum(base) / sum(traced)
    m["error_rate"] = out["failed"] / (len(base) + len(traced))
    names = per_layer_names()
    return {k: {"value": m.get(k, 0.0), "unit": unit_of(k)} for k in names}


def unit_of(name):
    if name.endswith("time_ms"):
        return "ms"
    if name.endswith(("share", "frac", "rate")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "toric3d" / "__init__.py").is_file():
        print(f"no toric3d sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2

    inputs = {"root": str(root), "passes": gen.generate(args.workload, args.seed, tiny=args.tiny)}
    if args.workload == "verify":
        inputs["block"] = 13 if args.tiny else gen.VERIFY_BLOCK
        inputs["region"] = gen.TINY["verify"]["region"] if args.tiny else gen.VERIFY_REGION
    elif args.workload == "exhaustive" and args.trace:
        cases = gen.kernel_cases(args.seed)
        inputs["kernel_cases"] = cases[:1] if args.tiny else cases

    scratch = root / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        inputs_path = run_dir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        common = ["--workload", args.workload, "--inputs", str(inputs_path)]
        # compiles bytecode and warms the file cache, so the first timed
        # set-up is not an outlier
        deadline = perf_counter() + RUN_TIMEOUT
        start_worker(root, common, deadline)
        workers = 1 if args.trace else WORKERS
        setup, setup_refs, outs = [], [], []
        for k in range(workers):
            result_path = run_dir / f"result{k}.json"
            worker_args = common + [
                "--seconds", str(args.seconds / workers),
                "--first-pass", str(k * len(inputs["passes"]) // workers),
                "--trace", str(args.trace),
                "--result", str(result_path),
            ]
            if args.trace:
                start_worker(root, worker_args, deadline)
            else:
                for _ in range(SETUP_EXTRA):
                    sample_setup(root, common, deadline, setup, setup_refs)
                sample_setup(root, worker_args, deadline, setup, setup_refs)
            outs.append(json.loads(result_path.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    out = merge(outs)
    for error in out["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    env = dict(out["environment"], nproc=os.cpu_count(), commit=commit_of(root), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace,
               tail_percentile=TAIL_PERCENTILE[args.workload],
               raw_latency_p50_ms=out["raw_p50_ms"], reference_ms=out["reference_ms"])
    attempted = len(out["latencies"]) + len(out.get("untraced_latencies", []))
    if not args.trace:
        env.update(setup_raw_s=statistics.median(setup), setup_reference_s=statistics.median(setup_refs))
    metrics = per_layer(out) if args.trace else end_to_end(args.workload, setup, setup_refs, out)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": attempted,
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
