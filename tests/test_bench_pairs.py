"""The verdicts of ``tools/bench_pairs.py`` on synthetic parent/change runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"wall_s": {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}}


def run(wall_s, failed=0, attempted=100):
    return {"attempted": attempted, "failed": failed, "metrics": {"wall_s": wall_s}}


def runs(parent, change, parent_failed=0, change_failed=0):
    return [
        {"seed": i, "parent": run(p, parent_failed), "change": run(c, change_failed)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def verdicts(summary):
    m = summary["wall_s"]
    return m["gain_shown"], m["regressed"], m["unresolved"]


def test_a_clear_gain_is_shown():
    summary = bench_pairs._summary(runs(PARENT, [0.7 * p for p in PARENT]), SPEC)
    assert verdicts(summary) == (True, False, False)
    assert summary["wall_s"]["change_wins"] == 10
    assert summary["wall_s"]["relative_change"] == pytest.approx(-0.3)


def test_a_gain_inside_the_parent_spread_is_not_shown():
    # the change wins every pair, but by less than the parent's quartile spread
    summary = bench_pairs._summary(runs(PARENT, [p - 0.001 for p in PARENT]), SPEC)
    assert verdicts(summary) == (False, False, False)


def test_a_slowdown_beyond_the_bound_regresses():
    summary = bench_pairs._summary(runs(PARENT, [1.5 * p for p in PARENT]), SPEC)
    assert verdicts(summary) == (False, True, False)


def test_a_wide_parent_spread_is_unresolved():
    wide = [1.0, 2.0] * 5
    summary = bench_pairs._summary(runs(wide, [1.4, 1.6] * 5), SPEC)
    assert summary["wall_s"]["unresolved"]
    # unless every change run beats every parent run
    summary = bench_pairs._summary(runs(wide, [0.5, 0.6] * 5), SPEC)
    assert not summary["wall_s"]["unresolved"]


@pytest.mark.parametrize(
    "parent_failed,change_failed,worse",
    [(0, 0, False), (0, 1, True), (2, 2, False), (3, 1, False)],
)
def test_failed_share_worse(parent_failed, change_failed, worse):
    summary = bench_pairs._summary(runs(PARENT, PARENT, parent_failed, change_failed), SPEC)
    failed = summary["failed"]
    assert failed["parent"] == 10 * parent_failed and failed["change"] == 10 * change_failed
    assert failed["attempted_parent"] == failed["attempted_change"] == 1000
    assert failed["failed_share_worse"] is worse


def test_failed_share_compares_shares_not_counts():
    # more failures over more attempts can still be a smaller share
    pairs = runs(PARENT, PARENT)
    for pair in pairs:
        pair["parent"]["failed"], pair["parent"]["attempted"] = 1, 10
        pair["change"]["failed"], pair["change"]["attempted"] = 2, 40
    assert not bench_pairs._summary(pairs, SPEC)["failed"]["failed_share_worse"]


def test_errored_pairs_are_left_out():
    pairs = runs(PARENT, [0.7 * p for p in PARENT])
    pairs[0]["change"] = {"error": ["Traceback"]}
    summary = bench_pairs._summary(pairs, SPEC)
    assert (summary["pairs_complete"], summary["pairs_run"]) == (9, 10)
    assert summary["wall_s"]["change_wins"] == 9
    # with fewer than two complete pairs there are no quartiles, but the errored run still counts
    alone = bench_pairs._summary(pairs[:1], SPEC)
    assert (alone["pairs_complete"], alone["pairs_run"]) == (0, 1) and "wall_s" not in alone
    assert alone["failed"] == {
        "parent": 0, "change": 0, "attempted_parent": 100, "attempted_change": 0,
        "errored_parent": 0, "errored_change": 1, "failed_share_worse": True,
    }


def test_a_gain_needs_nine_tenths_of_all_pairs_run():
    # the change wins all 8 complete pairs, but 8 of 10 run is short of nine tenths
    pairs = runs(PARENT, [0.7 * p for p in PARENT])
    pairs[0]["change"] = pairs[1]["parent"] = {"error": ["Traceback"]}
    summary = bench_pairs._summary(pairs, SPEC)
    assert summary["wall_s"]["change_wins"] == 8
    assert not summary["wall_s"]["gain_shown"]


@pytest.mark.parametrize("errored,worse", [("change", True), ("parent", False)])
def test_errored_runs_count_in_failed(errored, worse):
    pairs = runs(PARENT, PARENT)
    pairs[3][errored] = {"error": ["exit 1"]}
    failed = bench_pairs._summary(pairs, SPEC)["failed"]
    assert failed[f"errored_{errored}"] == 1 and failed[f"attempted_{errored}"] == 900
    assert failed["parent"] == failed["change"] == 0
    assert failed["failed_share_worse"] is worse


def fake_perfbench(calls, fail_tree=None):
    """A stand-in for ``subprocess.run`` of perfbench.

    Each metric reads 1.0; a run in the tree named ``fail_tree`` exits 1.
    """

    def fake(command, cwd, capture_output, text):
        calls.append((Path(cwd).name, command[command.index("--trace") + 1], command[command.index("--seed") + 1]))
        if Path(cwd).name == fail_tree:
            stderr = "Traceback\nRuntimeError: worker exited with status 1\n"
            return subprocess.CompletedProcess(command, 1, "", stderr)
        trace = command[command.index("--trace") + 1]
        names = ["gheat.us_per_layer.nx201", "oracle.tree_s"] if trace == "1" else list(SPEC)
        metrics = {name: {"value": 1.0, "unit": "s"} for name in names}
        line = {"correct": True, "attempted": 7, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(command, 0, "perfbench header\n" + json.dumps(line) + "\n", "")

    return fake


def test_a_traced_run_per_side_keeps_its_layer_metrics_or_its_error(monkeypatch):
    # three traced runs per side, alternating which side runs first; each side keeps every run
    # and each metric's median, min and max over its completed runs
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_perfbench(calls, fail_tree="change"))
    trees = {"parent": Path("parent"), "change": Path("change")}
    traced = bench_pairs._traced(trees, "heat-oracle", 1751, 20)
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {c[1:] for c in calls} == {("1", "1751")}
    layers = {"gheat.us_per_layer.nx201": 1.0, "oracle.tree_s": 1.0}
    error = {"error": ["RuntimeError: worker exited with status 1"]}
    assert traced["seed"] == 1751
    assert [run["first"] for run in traced["runs"]] == ["parent", "change", "parent"]
    for run in traced["runs"]:
        assert run["parent"] == {"attempted": 7, "failed": 0, "metrics": layers}
        assert run["change"] == error
    spread = {"median": 1.0, "min": 1.0, "max": 1.0}
    assert traced["parent"] == {"completed": 3, "metrics": {name: spread for name in layers}}
    assert traced["change"] == {"completed": 0, "metrics": {}}


def test_the_spread_of_traced_runs_is_their_median_min_and_max():
    runs = [{"metrics": {"a": 3.0}}, {"error": ["exit 1"]}, {"metrics": {"a": 1.0}}, {"metrics": {"a": 2.0}}]
    assert bench_pairs._spread(runs) == {"completed": 3, "metrics": {"a": {"median": 2.0, "min": 1.0, "max": 3.0}}}


def test_main_stores_each_workloads_traced_runs(monkeypatch, tmp_path):
    # the pairs run --trace 0 on every seed, then three --trace 1 runs per side on the first seed
    calls = []
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, dest: rev)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_perfbench(calls, fail_tree="change"))
    out = tmp_path / "bench.json"
    argv = ["--parent", "p", "--change", "c", "--pairs", "2", "--first-seed", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    document = json.loads(out.read_text())
    workloads = [w["name"] for w in json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert list(document["workloads"]) == workloads
    spread = {"median": 1.0, "min": 1.0, "max": 1.0}
    for workload in workloads:
        traced = document["workloads"][workload]["traced"]
        assert traced["seed"] == 5 and len(traced["runs"]) == 3
        assert traced["parent"] == {"completed": 3, "metrics": {"gheat.us_per_layer.nx201": spread, "oracle.tree_s": spread}}
        assert traced["change"] == {"completed": 0, "metrics": {}}
        assert all(run["change"] == {"error": ["RuntimeError: worker exited with status 1"]} for run in traced["runs"])
    traced_order = [("parent", "1", "5"), ("change", "1", "5"), ("change", "1", "5"), ("parent", "1", "5")]
    traced_order += traced_order[:2]
    assert [c for c in calls if c[1] == "1"] == traced_order * len(workloads)
    assert len(calls) == len(workloads) * (2 * 2 + 2 * 3)
