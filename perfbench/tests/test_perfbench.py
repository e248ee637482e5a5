"""Tests of the benchmark itself.

They check the expected-verdict comparison, the plane spec, the layer
tracer's wrapping, cold caches per operation, exact counts that repeat,
verdicts at a second seed, and that the benchmark refuses to run without
the library's sources.  Run from the repository root (a few minutes: each
workload runs traced twice at seed 0 and once more at seed 1):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

EXPECTED = run.load_expected()


@functools.cache
def traced_ops(workload: str) -> tuple[dict, dict]:
    """Two traced operations of the workload at seed 0, in this process."""
    tracer = layertrace.LayerTracer()
    return tuple(worker.measure(workload, 0, tracer) for _ in range(2))


def exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith((".calls", ".rows", ".points", ".short"))
            or k.startswith("expr.witness_")}


def test_mismatches_are_counted_per_task():
    good = copy.deepcopy(EXPECTED["workloads"]["spec-homotopy"])
    for report in good:
        for task in report["tasks"]:
            task["max_residual"] = 0.0
    assert run.count_mismatches(EXPECTED, "spec-homotopy", good) == (0, 0)
    bad = copy.deepcopy(good)
    bad[0]["tasks"][1]["invariants"]["rank"] = 2
    bad[0]["tasks"][2]["max_residual"] = 2e-6          # above the witness tol
    bad[1]["exit_code"] = 1
    bad[1]["tasks"].append(dict(bad[1]["tasks"][0]))   # an extra task
    assert run.count_mismatches(EXPECTED, "spec-homotopy", bad) == (3, 1)
    missing = copy.deepcopy(good)
    del missing[0]["tasks"][0]["max_residual"]
    assert run.count_mismatches(EXPECTED, "spec-homotopy", missing) == (1, 0)
    assert run.count_mismatches(EXPECTED, "spec-homotopy", good[:1]) == (1, 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_plane_spec_matches_catalog(seed):
    assert workloads.check_plane_spec(seed) <= 1e-12


def test_plane_spec_check_catches_a_wrong_transition(tmp_path, monkeypatch):
    text = (workloads.SPECS / "scrambled_plane.json").read_text()
    (tmp_path / "scrambled_plane.json").write_text(
        text.replace("1 - 3/2*x0*x1", "1 - 3/2*x0*x1 + 1/1000000000"))
    monkeypatch.setattr(workloads, "SPECS", tmp_path)
    with pytest.raises(ValueError, match="differ"):
        workloads.check_plane_spec(0)


def test_tracer_wraps_every_binding_and_restores():
    import bundleforms
    from bundleforms import bundles, cli, forms, homotopy
    original = bundles.check_isomorphism
    tracer = layertrace.LayerTracer()
    with tracer.installed():
        bound = [ns.check_isomorphism for ns in (bundles, forms, homotopy)]
        bound += [cli.check_isomorphism, bundleforms.check_isomorphism]
        assert all(f is not original and f.__wrapped__ is original for f in bound)
    for ns in (bundles, forms, homotopy, cli, bundleforms):
        assert ns.check_isomorphism is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_are_cold_and_counts_repeat(workload):
    first, second = traced_ops(workload)
    for op in (first, second):
        assert "error" not in op, op.get("error")
        assert run.count_mismatches(EXPECTED, workload, op["reports"]) == (0, 0)
    assert first["layers"]["semialg.sample.calls"] > 0
    # each operation rebuilds its covers, so sampling is not served by a
    # cache the first operation filled
    assert (second["layers"]["semialg.sample.calls"]
            == first["layers"]["semialg.sample.calls"])
    assert exact_counts(second["layers"]) == exact_counts(first["layers"])
    for name in run.KNOWN_USED[workload]:
        assert first["layers"][f"{name}.calls"] > 0, name


def test_workload_splits():
    deep = traced_ops("deep-ladder")[0]
    assert deep["layers"]["semialg.sample.s"] < 0.02 * deep["wall_s"]
    assert deep["layers"]["expr.witness_dag_nodes"] > 0
    assert deep["layers"]["expr.witness_matrix_groups"] > 0
    circle = traced_ops("spec-circle")[0]["layers"]
    assert all(v == 0 for k, v in circle.items()
               if k.startswith("homotopy.") and k.endswith(".calls"))
    hom = traced_ops("spec-homotopy")[0]["layers"]
    assert hom["homotopy.trivialize_contractible.calls"] > 0
    assert hom["homotopy.homotopy_isometry.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_verdicts_at_a_second_seed(workload):
    op = worker.measure(workload, 1)
    assert "error" not in op, op.get("error")
    assert run.count_mismatches(EXPECTED, workload, op["reports"]) == (0, 0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_units())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "verdict_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec-circle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
