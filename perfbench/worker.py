"""One benchmark process: set up a workload, run its ops in a closed loop,
check every output, and write the measurements as JSON.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``; it prints ``READY`` once the first op can start, so
the parent can time set-up from process start.  Ops call toric3d only
through its public functions; every call into a layer sits in a span (see
``tracer.py``), which records only in a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import IMPORT_NOMINAL_S, PROBE_NOMINAL_S, time_import, time_probe
from tracer import Tracer, summarise

ERRORS_SHOWN = 5


class InProcess:
    """An in-process workload; its ops are timed next to the Python probe."""

    reference, nominal, stride = staticmethod(time_probe), PROBE_NOMINAL_S, 1
    scale_per_worker = False

    def __init__(self, tracer):
        import toric3d
        from toric3d import lattice, paths, stabilizer

        self.t, self.lattice, self.paths, self.st, self.tr = toric3d, lattice, paths, stabilizer, tracer

    def specs(self, docs, size):
        t, out = self.t, []
        for s in docs:
            with self.tr.span(f"paths.spec.{size}") as sp:
                out.append(
                    t.spec_from_strings(s["neg_period"], s["core"], s["pos_period"], tuple(s["base"]))
                )
            sp.count("letters", (len(s["neg_period"]) + len(s["core"]) + len(s["pos_period"])) // 2)
        return out

    def configuration(self, doc, size):
        """Specs, loops and the configuration built from a document."""
        tr = self.tr
        specs = self.specs(doc["strings"], size)
        loops = []
        for loop in doc["loops"]:
            with tr.span("paths.loop"):
                loops.append(
                    self.paths.path_from_steps(tuple(loop["start"]), self.lattice.parse_steps(loop["steps"]))
                )
        with tr.span("transforms.make_configuration"):
            cfg = self.t.make_configuration([tuple(c) for c in doc["charges"]], specs, loops)
        return specs, cfg

    def after_trace(self):
        pass


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


class Decide(InProcess):
    def __init__(self, inputs, tracer, run_dir):
        super().__init__(tracer)
        from toric3d.errors import AlreadyMonotonicInRegion

        self.monotone = AlreadyMonotonicInRegion

    def op(self, doc):
        if doc["op"] == "surgery":
            return self._surgery(doc)
        t, tr = self.t, self.tr
        size = f"core{doc['size']}"
        specs, cfg = self.configuration(doc, size)
        with tr.span(f"sectors.classify.{size}") as sp:
            verdict = t.classify(cfg)
        sp.count("script_steps", len(verdict.script))
        label = None
        if verdict.is_ground_sector:
            with tr.span(f"sectors.sector_label.{size}"):
                label = t.sector_label(cfg)
        region = t.region_of(*map(tuple, doc["region"]))
        with tr.span(f"transforms.energy.{size}") as sp:
            report = t.energy(cfg, region)
        sp.count("flux_edges", report.flux_energy // 2)
        straightened = []
        for spec, s in zip(specs, doc["strings"]):
            box = t.region_of(*map(tuple, s["region"]))
            with tr.span(f"transforms.straighten.{size}") as sp:
                fixed, passes = t.straighten_fixpoint(spec, box)
            sp.count("passes", passes)
            with tr.span(f"paths.path_equivalent.{size}"):
                same = t.path_equivalent(spec, fixed)
            straightened.append({"spec": fixed, "region": box, "equivalent": same})
        return {
            "kind": verdict.kind.value,
            "energy": report.total,
            "label": label,
            "straightened": straightened,
        }

    def _surgery(self, doc):
        t, tr = self.t, self.tr
        lines = self.specs(doc["lines"], "line")
        faces = [t.Face(tuple(f["base"]), "xyz".index(f["normal"])) for f in doc["faces"]]
        with tr.span("paths.validate_surface") as sp:
            surface = t.validate_surface(faces)
        sp.count("faces", len(faces))
        with tr.span("transforms.surgery"):
            out = t.surgery(t.make_configuration(strings=lines), surface)
        with tr.span("sectors.classify.double_u"):
            verdict = t.classify(out)
        return {"kind": verdict.kind.value, "strings": out.strings}

    def check(self, doc, res):
        t = self.t
        if doc["op"] == "surgery":
            if res["kind"] != "NotGroundSector" or len(res["strings"]) != 2:
                return f"surgery gave {res['kind']} with {len(res['strings'])} strings"
            for s in res["strings"]:
                ds = t.infinity_directions(s)
                if len(ds.all) != 1 or not ds.d_plus & ds.d_minus:
                    return "surgery output string is not a U"
                if t.classify(t.make_configuration(strings=[s])).is_ground_sector:
                    return "surgery U string classified inside a ground sector"
            return None
        if res["kind"] != doc["expect"]:
            return f"verdict {res['kind']}, expected {doc['expect']}"
        if res["energy"] < 0 or res["energy"] % 2:
            return f"energy {res['energy']} is not even and non-negative"
        label = res["label"]
        if (label is None) != (doc["expect"] == "NotGroundSector"):
            return "sector label present exactly when outside every sector"
        if label is not None and (label.g != len(doc["charges"]) % 2 or len(label.tags) != len(doc["strings"])):
            return f"sector label g={label.g} with {len(label.tags)} tags"
        for i, s in enumerate(res["straightened"]):
            if not s["equivalent"]:
                return f"straightened string {i} is not path-equivalent to its original"
            try:
                t.straighten_once(s["spec"], s["region"])
            except self.monotone:
                continue
            return f"straightened string {i} is not monotone in its region"
        return None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify(InProcess):
    def __init__(self, inputs, tracer, run_dir):
        super().__init__(tracer)
        n = inputs["block"]
        with tracer.span(f"stabilizer.lattice_build.n{n}") as sp:
            self.lat = self.st.FiniteLattice(n)
        sp.count("qubits", self.lat.n_qubits)
        self.region = self.t.region_of(*map(tuple, inputs["region"]))
        self.clip = self.region.inflate(2)
        spans = [self.region.span(a) for a in range(3)]
        stars = (spans[0] + 1) * (spans[1] + 1) * (spans[2] + 1)
        plaquettes = sum(
            spans[a] * (spans[(a + 1) % 3] + 1) * (spans[(a + 2) % 3] + 1) for a in range(3)
        )
        self.checks = stars + plaquettes

    def op(self, doc):
        t, tr, st = self.t, self.tr, self.st
        _specs, cfg = self.configuration(doc, "core20")
        with tr.span("transforms.energy.core20") as sp:
            combinatorial = t.energy(cfg, self.region)
        sp.count("flux_edges", combinatorial.flux_energy // 2)
        with tr.span("stabilizer.configuration_flip") as sp:
            flip = st.configuration_flip(self.lat, cfg, self.region, self.clip)
        sp.count("weight", flip.x_weight + flip.z_weight)
        with tr.span("stabilizer.syndrome_energy") as sp:
            exact = st.syndrome_energy(self.lat, flip, self.region)
        sp.count("checks", self.checks)
        return {"combinatorial": combinatorial.total, "syndrome": exact}

    def check(self, doc, res):
        if res["combinatorial"] != res["syndrome"]:
            return f"combinatorial energy {res['combinatorial']} != syndrome energy {res['syndrome']}"
        return None


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

RAW_COUNTS = {2: 3360, 3: 720}


class Exhaustive(InProcess):
    def __init__(self, inputs, tracer, run_dir):
        super().__init__(tracer)
        self.kernel_cases = inputs.get("kernel_cases", [])

    def op(self, doc):
        st, tr = self.st, self.tr
        if doc["op"] == "gauge_rank":
            n = doc["n"]
            with tr.span(f"stabilizer.lattice_build.n{n}") as sp:
                lat = st.FiniteLattice(n)
            sp.count("qubits", lat.n_qubits)
            with tr.span(f"stabilizer.star_matrix.n{n}"):
                lat.star_matrix
            with tr.span(f"stabilizer.gauge_rank.n{n}") as sp:
                rank = st.gauge_rank(lat)
            # the elimination's input, computed from the block's geometry
            rows, bits = n**3, lat.n_qubits
            sp.count("rows", rows)
            sp.count("bits", bits)
            sp.count("computed_bytes", rows * ((bits + 63) // 64) * 8)
            return {"rank": rank}
        if doc["op"] == "surface_net_checks":
            with tr.span(f"stabilizer.surface_net_checks.n{doc['n']}"):
                return {"report": st.surface_net_checks(doc["n"])}
        with tr.span(f"sectors.enumerate.s{doc['strings']}") as sp:
            report = self.t.enumerate_gsc_solutions(doc["strings"])
        sp.count("raw_count", report.raw_count)
        return {"raw_count": report.raw_count, "raw_count_alt": report.raw_count_alt}

    def check(self, doc, res):
        if doc["op"] == "gauge_rank":
            if res["rank"] != doc["n"] ** 3:
                return f"gauge rank {res['rank']} at n={doc['n']}, expected {doc['n'] ** 3}"
        elif doc["op"] == "surface_net_checks":
            r = res["report"]
            flags = [r.gauge_supports_distinct, r.gauge_supports_are_nets, r.single_orbit]
            if doc["n"] == 1:
                flags += [r.fiber_sizes_equal, r.bitflip_bijection]
            if not all(f is True for f in flags) or r.ground_space_dim != 1:
                return f"net checks at n={doc['n']} failed: {r}"
        else:
            want = RAW_COUNTS[doc["strings"]]
            if not res["raw_count"] == res["raw_count_alt"] == want:
                return f"raw counts {res['raw_count']}/{res['raw_count_alt']}, expected {want}"
        return None

    def after_trace(self):
        """The packed-kernel cases, timed as the median of three calls each.

        They call ``toric3d._kernels`` directly, so they are skipped (and
        reported as 0) once those kernels are gone.
        """
        try:
            import numpy as np
            from toric3d import _kernels as K

            fns = {name: getattr(K, name) for name in ("f2_rank", "anticommute_batch", "symplectic_parity")}
            pack = K.pack_bits
        except (ImportError, AttributeError):
            return
        for case in self.kernel_cases:
            rng = np.random.default_rng(case["seed"])
            rows, bits = case["rows"], case["bits"]
            if case["kernel"] == "f2_rank":
                args = (pack(rng.integers(0, 2, (rows, bits))),)
            elif case["kernel"] == "anticommute_batch":
                args = tuple(pack(rng.integers(0, 2, shape)) for shape in ((rows, bits),) * 2 + ((bits,),) * 2)
            else:
                args = tuple(pack(rng.integers(0, 2, bits)) for _ in range(4))
            fn = fns[case["kernel"]]
            for _ in range(3):
                with self.tr.span(f"kernels.{case['case']}"):
                    for _ in range(case["calls"]):
                        fn(*args)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli:
    PROBES = 10
    # one process start-up reference per three commands
    reference, nominal, stride = staticmethod(time_import), IMPORT_NOMINAL_S, 3
    # a pass holds two references, and one start-up stalled for a moment
    # would rescale its whole pass; the worker's median over a few seconds
    # still follows the host's drift (largest interquartile spread of the
    # three timings over ten seeds, in two batches each on a shared 2-vCPU
    # VM: 19% scaled per pass, 12% per worker)
    scale_per_worker = True

    def __init__(self, inputs, tracer, run_dir):
        from toric3d import cli

        self.cli = cli
        self.tr = tracer
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(Path(inputs["root"]) / "src"))
        for passes in inputs["passes"]:
            for doc in passes:
                for name, content in doc["files"].items():
                    (run_dir / name).write_text(json.dumps(content), encoding="utf-8")

    def expected(self, argv):
        """Exit code and stdout of ``cli.run(argv)`` run in-process.

        Computed at each check rather than in set-up: the reports of every
        pass took longer than the imports, and that pure-Python work, which
        no command-line user pays, made ``setup_s`` drift apart from its
        import reference."""
        cwd = os.getcwd()
        os.chdir(self.run_dir)
        try:
            with self.tr.span("cli.run"):
                report, code = self.cli.run(argv)
        finally:
            os.chdir(cwd)
        return code, (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()

    def _python(self, args):
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.run_dir,
            env=self.env,
            capture_output=True,
            timeout=60,
        )

    def op(self, doc):
        with self.tr.span("cli.command") as sp:
            proc = self._python(["-m", "toric3d.cli", *doc["argv"]])
        sp.count("stdout_bytes", len(proc.stdout))
        return {"code": proc.returncode, "stdout": proc.stdout}

    def check(self, doc, res):
        code, stdout = self.expected(doc["argv"])
        if res["code"] != code:
            return f"exit code {res['code']}, expected {code}"
        if res["stdout"] != stdout:
            return "stdout differs from the in-process report"
        return None

    def after_trace(self):
        """Controls: bare interpreter start, then start plus ``import toric3d.cli``."""
        for name, args in (("cli.interpreter", ["-c", "pass"]), ("cli.import_total", ["-c", "import toric3d.cli"])):
            for _ in range(self.PROBES):
                with self.tr.span(name):
                    proc = self._python(args)
                if proc.returncode != 0:
                    raise RuntimeError(f"probe {args} failed: {proc.stderr.decode()}")


WORKLOADS = {"decide": Decide, "verify": Verify, "exhaustive": Exhaustive, "cli": Cli}


# ---------------------------------------------------------------------------
# loop
# ---------------------------------------------------------------------------


def run_ops(workload, passes, seconds, tracer, n_passes=None, first=0):
    """Closed loop, one client: whole passes, from pass ``first`` on, until
    ``seconds`` have elapsed give or take half a pass, or exactly
    ``n_passes`` passes.

    An op that raises or whose output fails its check counts as failed.
    Latency covers the op only; the reference and the check run between ops.
    Latencies are scaled by the pass's median reference time (the worker's,
    for a workload with ``scale_per_worker``) to the reference's nominal
    speed (see ``reference.py``).
    """
    raw, refs, errors, pass_bounds = [], [], [], [0]
    failed = 0
    start = perf_counter()
    n = 0
    while True:
        pass_start = perf_counter()
        pass_refs = []
        for i, doc in enumerate(passes[(first + n) % len(passes)]):
            result, error = None, None
            if i % workload.stride == 0:
                pass_refs.append(workload.reference())
            t0 = perf_counter()
            with tracer.op(len(raw)):
                try:
                    result = workload.op(doc)
                except Exception:
                    error = traceback.format_exc(limit=3)
            raw.append(perf_counter() - t0)
            if error is None:
                try:
                    error = workload.check(doc, result)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failed += 1
                if len(errors) < ERRORS_SHOWN:
                    errors.append(f"{doc.get('op')}: {error}")
        refs.append(pass_refs)
        pass_bounds.append(len(raw))
        n += 1
        # stop where the next pass would end more than half a pass late, so
        # the run lasts ``seconds`` on average, not half a pass longer
        now = perf_counter()
        if n == n_passes or (n_passes is None and now - start + (now - pass_start) / 2 >= seconds):
            break
    if workload.scale_per_worker:
        ref_s = [statistics.median(r for pass_refs in refs for r in pass_refs)] * n
    else:
        ref_s = [statistics.median(pass_refs) for pass_refs in refs]
    latencies, pass_seconds = [], []
    for ref, lo, hi in zip(ref_s, pass_bounds, pass_bounds[1:]):
        scaled = [x * workload.nominal / ref for x in raw[lo:hi]]
        latencies += scaled
        pass_seconds.append(sum(scaled))
    return {
        "latencies": latencies,
        "pass_seconds": pass_seconds,
        "raw_p50_ms": statistics.median(raw) * 1e3,
        "reference_ms": statistics.median(ref_s) * 1e3,
        "failed": failed,
        "errors": errors,
    }


def _environment():
    import importlib.util

    import numpy
    import toric3d
    from toric3d import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": getattr(_kernels, "BACKEND", None),
        "toric3d": getattr(toric3d, "__version__", None),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)

    inputs = json.loads(args.inputs.read_text(encoding="utf-8"))
    root = Path(inputs["root"])
    import toric3d

    if root / "src" not in Path(toric3d.__file__).resolve().parents:
        sys.exit(f"toric3d imported from {toric3d.__file__}, not from {root / 'src'}")
    tracer = Tracer(enabled=bool(args.trace))
    workload = WORKLOADS[args.workload](inputs, tracer, args.inputs.parent)
    print("READY", flush=True)
    if args.result is None:
        return

    out = {"environment": _environment()}
    passes = inputs["passes"]
    if args.trace:
        tracer.enabled = False
        base = run_ops(workload, passes, args.seconds / 2, tracer)
        tracer.enabled = True
        # the traced half replays exactly the untraced half's ops
        loop = run_ops(workload, passes, 0, tracer, n_passes=len(base["pass_seconds"]))
        workload.after_trace()
        out["untraced_latencies"] = base["latencies"]
        out["spans"] = summarise(tracer.records)
        loop["failed"] += base["failed"]
        loop["errors"] += base["errors"]
    else:
        loop = run_ops(workload, passes, args.seconds, tracer, first=args.first_pass)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    out.update(loop)
    args.result.write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
