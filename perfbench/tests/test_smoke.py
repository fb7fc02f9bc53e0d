"""Short runs of every workload, checks on; and the no-program refusal."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import figures

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def bench(cwd, workload, trace="0", seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "4", "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["serve-http", "diagnose-stream",
                                      "voi-rank", "campaign"])
def test_workload_runs_and_checks(workload):
    proc = bench(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _, _ in figures.END_TO_END]
    assert list(result["metrics"]) == names
    for name in names:
        assert result["metrics"][name]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = bench(ROOT, "diagnose-stream", trace="1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [n for n, _, _ in figures.PER_LAYER]
    assert result["metrics"]["bayesnet.engine.query_hit_us"]["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for workload in ("diagnose-stream", "serve-http"):
        proc = bench(tmp_path, workload)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == figures.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == figures.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "serve-http", "diagnose-stream", "voi-rank", "campaign"]
