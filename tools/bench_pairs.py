"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --first-seed 11 --out BENCH_8.json

Both commits are exported with ``git archive`` into fresh directories
and byte-compiled the same way, so the two sides run the same benchmark
code in the same environment: neither reuses the working tree's bytecode
cache or its ``perfbench/_out``.  Pair i runs
``perfbench/run.py --trace 0`` on seed ``first-seed + i`` for every
workload in ``BENCHMARK.json`` for its ``run_seconds``, parent first in
even pairs and change first in odd ones.  The output holds both
commits, ``nproc``, the Python and numpy versions, every run, and for
each workload and end-to-end metric each side's median and quartiles,
the change's pair wins and ties, and whether a gain is shown: the
change wins at least nine tenths of all pairs run, errored ones
included, and the medians differ by more than the parent's quartile
spread.  After a workload's pairs, three ``--trace 1`` runs per side on
the first seed, alternating which side runs first, give its per-layer
metrics: the workload's ``traced`` keeps that seed, every run (an
errored one as its error) and, for each side, each metric's median, min
and max over its completed runs.
``regressed`` marks a change median worse than the parent's by more than
the metric's bound in ``BENCHMARK.json`` (relative to the parent
median).  ``unresolved`` marks a metric whose parent quartile spread is
wider than that bound, so that a median inside it says nothing, unless
every change run beats every parent run.  Each workload's ``failed``
block sums the failed and attempted checks of each side's completed
runs and counts its errored runs, and ``failed_share_worse`` marks a
change that errors more often or whose failed/attempted exceeds the
parent's.  Temporary exports go under ``$TMPDIR``.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
_TRACED_RUNS = 3  # traced runs per side and workload


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(rev: str, dest: Path) -> str:
    """Committed files of ``rev`` under ``dest``, byte-compiled; returns the full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as archive:
        archive.extractall(dest, filter="data")
    for sub in ("src", "perfbench"):
        compileall.compile_dir(dest / sub, quiet=1)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One perfbench run: its check counts and metric values, or the last line of its error."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
    }


def _traced(trees: dict, workload: str, seed: int, seconds: int) -> dict:
    """``_TRACED_RUNS`` ``--trace 1`` runs per side on ``seed``, parent first in even ones.

    One traced run carries the host's whole run-to-run noise, so each side
    keeps every run and, per metric, the median, min and max of its
    completed runs.
    """
    runs = []
    for i in range(_TRACED_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({"first": order[0], **{side: _run(trees[side], workload, seed, seconds, trace=1) for side in order}})
    return {"seed": seed, "runs": runs, **{side: _spread([run[side] for run in runs]) for side in trees}}


def _spread(runs: list[dict]) -> dict:
    """Each metric's median, min and max over the completed runs, and the count of those runs."""
    done = [run["metrics"] for run in runs if "metrics" in run]
    spread = {}
    for name in done[0] if done else ():
        values = [metrics[name] for metrics in done if name in metrics]
        spread[name] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    return {"completed": len(done), "metrics": spread}


def _side(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _summary(runs: list[dict], spec: dict) -> dict:
    """Per-metric medians, quartiles, pair wins and verdicts of one workload."""
    pairs = [(r["parent"], r["change"]) for r in runs if "metrics" in r["parent"] and "metrics" in r["change"]]
    out = {"pairs_complete": len(pairs), "pairs_run": len(runs), "failed": _failed(runs)}
    if len(pairs) < 2:  # no quartiles to compare; the failed block still counts every run
        return out
    for name, metric in spec.items():
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        before, after = _side(parent), _side(change)
        worse = sign * (after["median"] - before["median"])
        bound = metric["bound"] * abs(before["median"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "ties": ties,
            "relative_change": (after["median"] - before["median"]) / before["median"]
            if before["median"] else None,
            "gain_shown": wins >= 0.9 * len(runs) and -worse > before["iqr"],
            "regressed": worse > bound,
            "unresolved": before["iqr"] > bound
            and not max(sign * c for c in change) < min(sign * p for p in parent),
        }
    return out


def _failed(runs: list[dict]) -> dict:
    """Failed and attempted checks of each side's completed runs, and its errored runs."""
    failed = {}
    for side in ("parent", "change"):
        done = [r[side] for r in runs if "metrics" in r[side]]
        failed[side] = sum(r["failed"] for r in done)
        failed[f"attempted_{side}"] = sum(r["attempted"] for r in done)
        failed[f"errored_{side}"] = len(runs) - len(done)
    failed["failed_share_worse"] = failed["errored_change"] > failed["errored_parent"] or _share(
        failed["change"], failed["attempted_change"]
    ) > _share(failed["parent"], failed["attempted_parent"])
    return failed


def _share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change perfbench pairs")
    parser.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: scratch / side for side in ("parent", "change")}
        commits = {side: _export(getattr(args, side), tree) for side, tree in trees.items()}
        document = {
            "parent": commits["parent"],
            "change": commits["change"],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seconds": seconds,
            "seeds": [args.first_seed + i for i in range(args.pairs)],
            "order": "parent first in even pairs, change first in odd ones",
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(trees[side], workload, seed, seconds)
                runs.append(run)
                print(json.dumps({"workload": workload, **run}), flush=True)
            traced = _traced(trees, workload, args.first_seed, seconds)
            print(json.dumps({"workload": workload, "traced": traced}), flush=True)
            document["workloads"][workload] = {"summary": _summary(runs, spec), "runs": runs, "traced": traced}
            args.out.write_text(json.dumps(document, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
