"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json agrees with the metric tables, that inputs are
a function of the seed, that one short run of every workload checks out
and prints the result line, that the traced run reports every per-layer
metric (and the CLI's double scan), and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {n: u for n, (u, *_) in PER_LAYER.items()}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and metric["better"] in ("lower", "higher")


def test_jensen_pairs_are_holding_pairs():
    from references import KNOWN_VERDICTS
    from workloads import JENSEN_PAIRS

    assert all(KNOWN_VERDICTS[pair] == "holds" for pair in JENSEN_PAIRS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs.generate(workload, 5) == inputs.generate(workload, 5)
    assert inputs.generate(workload, 5) != inputs.generate(workload, 6)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_short_run_is_correct_and_reports_end_to_end_metrics(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_the_double_scan():
    result = _result(_run("--workload", "convexity-scan", "--seed", "3", "--seconds", "1", "--trace", "1"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert metrics["convexity.cli_cells"] == 129 * 129
    assert metrics["convexity.cli_reduce_calls"] == 2 * 129 * 129
    trace = json.loads((HERE / "_out" / "convexity-scan-seed3-trace1" / "trace.json").read_text())
    assert trace["spans"] and trace["aggregated"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run("--workload", "heat-oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
