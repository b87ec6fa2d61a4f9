"""The benchmark's own tests: tiny smoke runs and planted failures.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.per_layer_names()
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_is_seeded():
    for workload in run.WORKLOADS:
        assert gen.generate(workload, 5, tiny=True) == gen.generate(workload, 5, tiny=True)
    assert gen.generate("decide", 5, tiny=True) != gen.generate("decide", 6, tiny=True)


def test_spans_self_time_and_shares():
    tr = Tracer(enabled=True)
    with tr.op(0):
        with tr.span("paths.spec") as sp:
            with tr.span("sectors.classify"):
                pass
        sp.count("letters", 4)
    m = summarise(tr.records)
    assert m["paths.spec.letters"] == 4
    assert sum(v for k, v in m.items() if k.endswith(".share")) == pytest.approx(1.0)
    assert tr.op_id is None


# ---------------------------------------------------------------------------
# planted failures: one wrong output in a pass must count as one failure
# ---------------------------------------------------------------------------


def _plant(workload, corrupt, tmp_path):
    inputs = {"root": str(ROOT), "passes": gen.generate(workload, 1, tiny=True)}
    if workload == "verify":
        inputs.update(block=13, region=gen.TINY["verify"]["region"])
    wl = worker.WORKLOADS[workload](inputs, Tracer(), tmp_path)
    planted = []
    real_op = wl.op

    def op(doc):
        res = real_op(doc)
        if not planted and corrupt(doc, res):
            planted.append(doc)
        return res

    wl.op = op
    out = worker.run_ops(wl, inputs["passes"], 0, Tracer(), n_passes=1)
    assert planted, "nothing to corrupt in the tiny pass"
    assert out["failed"] == 1, out["errors"]
    assert out["failed"] / len(out["latencies"]) == 1 / len(inputs["passes"][0])


def _wrong_verdict(doc, res):
    if doc["op"] != "config":
        return False
    res["kind"] = "GroundState" if res["kind"] != "GroundState" else "NotGroundSector"
    return True


def _odd_energy(doc, res):
    if doc["op"] != "config":
        return False
    res["energy"] += 1
    return True


def _wrong_syndrome(doc, res):
    res["syndrome"] += 2
    return True


def _wrong_rank(doc, res):
    if doc["op"] != "gauge_rank":
        return False
    res["rank"] -= 1
    return True


def _wrong_stdout(doc, res):
    res["stdout"] = res["stdout"].replace(b"schema_version", b"schema-version")
    return True


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("decide", _wrong_verdict),
        ("decide", _odd_energy),
        ("verify", _wrong_syndrome),
        ("exhaustive", _wrong_rank),
        ("cli", _wrong_stdout),
    ],
)
def test_planted_failure_is_counted(workload, corrupt, tmp_path):
    _plant(workload, corrupt, tmp_path)
