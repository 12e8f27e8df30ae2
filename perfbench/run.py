"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload heat-oracle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
single-threaded worker process (BLAS and OpenMP pinned to one thread);
further fresh processes only set up, so ``setup_s`` is the median of
several cold set-ups.  Every result is checked against an independent
reference; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  Files go to ``perfbench/_out/`` only.  Exits 2 without
a result when the package sources are missing, and 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

SETUP_PROBES = 7  # set-up-only processes besides the worker: 8 set-up samples
PROBE_TIMEOUT_S = 20
WORKER_SLACK_S = 90  # a run may overshoot --seconds by one pass plus set-up

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, out: Path, extra: list[str], timeout: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
        *extra,
    ]
    proc = subprocess.run(command, env=_worker_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gexpect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gexpect benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gexpect" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src' / 'gexpect'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        probes = []
        if not args.trace:
            probes = [_worker(args, out, ["--setup-only"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
        result = _worker(args, out, [], args.seconds + WORKER_SLACK_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    probes.append(result)
    setups = [p["setup_s"] for p in probes]
    setups_raw = [p["setup_raw"] for p in probes]

    env = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **result["versions"],
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {inputs.WHY[args.workload]}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    failed_frac = result["failed"] / max(result["attempted"], 1)
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, (unit, *_) in PER_LAYER.items()
        }
        for name, (unit, moves, where) in PER_LAYER.items():
            print(f"{name:32s} {result['layers'][name]:>14.6g} {unit:6s} moves {moves} on {where}")
        print("gheat.field_mb and gheat.bytes_per_layer are computed from array sizes, not measured")
    else:
        values = {
            "wall_s": statistics.median(result["walls"]),
            "cli_s": statistics.median(result["cli"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "max_err": result["max_err"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print("times are at the speed probe's reference speed; raw wall-clock medians in brackets")
        print(f"wall_s      {values['wall_s']:.6f} s    per pass, checks included "
              f"[{statistics.median(result['walls_raw']):.6f}] ({_spread(result['walls'])})")
        print(f"cli_s       {values['cli_s']:.6f} s    cli.run time per pass "
              f"[{statistics.median(result['cli_raw']):.6f}] ({_spread(result['cli'])})")
        print(f"setup_s     {values['setup_s']:.6f} s    fresh-process set-up "
              f"[{statistics.median(setups_raw):.6f}] ({_spread(setups)})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.3f} MB   worker ru_maxrss")
        print(f"max_err     {values['max_err']:.6e} abs  worst |result - reference|")
    print(f"failed_frac {failed_frac:.6g} ratio ({result['failed']} of {result['attempted']} checks failed)")

    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setups": setups, "setups_raw": setups_raw,
        **{k: v for k, v in result.items() if k != "versions"},
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
