"""Tests of the benchmark itself: tracer coverage, traced versus untraced
outputs, the metric names promised in BENCHMARK.json, and the reference
comparison's tolerance."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import load_layers, per_layer_names  # noqa: E402

LAYERS = load_layers()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_benchmark_json_lists_the_layer_table():
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer_names(LAYERS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


# bounds runs at a held-out seed, so only the seed-free invariants apply
@pytest.mark.parametrize("workload,seed", [
    ("sampling", workloads.DEFAULT_SEED), ("bounds", 1),
    ("transport", workloads.DEFAULT_SEED)])
def test_traced_run_covers_every_layer_metric(workload, seed):
    info, res = run_bench(workload, seed, trace=1)
    assert info["failures"] == []
    # a traced pass whose outputs differ from the untraced pass is a failure
    assert info["traced_passes"] >= 1 and info["passes"] > info["traced_passes"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert info["reference_compared"] == (seed == workloads.DEFAULT_SEED)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == per_layer_names(LAYERS)
    for fn in LAYERS["functions"]:
        if fn["workload"] in (workload, "all"):
            assert metrics[f"{fn['name']}.calls"] > 0, fn["name"]
    for counter in LAYERS["counters"]:
        if counter["workload"] in (workload, "all"):
            if counter["role"] == "failure":
                assert metrics[counter["name"]] == 0, counter["name"]
            else:
                assert metrics[counter["name"]] > 0, counter["name"]
    for layer in LAYERS["layers"]:
        assert metrics[f"{layer}.errors"] == 0
    # self times account for the traced pass, with the remainder stated
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS["layers"])
    assert total + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["trace.unattributed_s"] < 0.05 * metrics["trace.wall_s"]


def test_untraced_run_reports_end_to_end_metrics():
    info, res = run_bench("bounds", workloads.DEFAULT_SEED, trace=0)
    assert res["correct"] and res["failed"] == 0, info["failures"]
    assert info["reference_compared"] and info["max_rel_deviation"] == 0.0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_reference_tolerance_admits_rounding_and_catches_errors():
    ref = {"x": [1.0, 2.5e-3], "regime": "iid_like", "count": 3}
    same = {"x": [1.0 + 1e-10, 2.5e-3 * (1 - 2e-15)], "regime": "iid_like", "count": 3}
    problems, dev = check.compare(same, ref)
    assert problems == [] and 0 < dev < check.RTOL
    for bad in ({"x": [1.0 + 1e-6, 2.5e-3], "regime": "iid_like", "count": 3},
                {"x": [1.0, 2.5e-3], "regime": "boundary", "count": 3},
                {"x": [1.0, 2.5e-3], "regime": "iid_like", "count": 4},
                {"x": [1.0], "regime": "iid_like", "count": 3}):
        assert check.compare(bad, ref)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_step(workload, tmp_path):
    ref = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    assert ref["seed"] == workloads.DEFAULT_SEED
    manifest = workloads.make_inputs(workload, workloads.DEFAULT_SEED, tmp_path)
    api = manifest["api"] and json.loads(Path(manifest["api"]).read_text())
    steps = workloads.build_steps(workload, manifest, api, tmp_path / "out")
    assert sorted(step.name for step in steps) == sorted(ref["steps"])
