"""One benchmark process: set up a workload, then run timed passes of it.

Started by ``run.py`` in a fresh interpreter so that its set-up time and
peak memory are its own.  Prints one JSON object on its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py ... --setup-only

Untraced (``--trace 0``) it repeats passes until ``S`` seconds have gone.
Traced, it runs untraced passes for half the time and traced passes for
the other half; the difference of their median pass times is the tracing
overhead, and the per-layer figures come from the traced passes.  Every
time is reported raw and at the speed probe's reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs

SETUP_SPEED_CHUNKS = 50


def _passes(run, state, ctx, probe, seconds: float, first: int) -> dict:
    """Repeat passes for ``seconds``; raw and reference-speed pass and CLI times."""
    times = {"walls_raw": [], "walls": [], "cli_raw": [], "cli": []}
    deadline = time.perf_counter() + seconds
    while True:
        ctx.cli_windows = []
        start = time.perf_counter()
        run(state, ctx, f"p{first + len(times['walls'])}")
        end = time.perf_counter()
        times["walls_raw"].append(end - start)
        times["walls"].append(probe.at_reference(start, end))
        times["cli_raw"].append(sum(e - s for s, e in ctx.cli_windows))
        times["cli"].append(sum(probe.at_reference(s, e) for s, e in ctx.cli_windows))
        if end >= deadline:
            return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = inputs.generate(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    # Set-up: importing the package, parsing, GeneratorPair checks, grids.
    start = time.perf_counter()
    import gexpect

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    state = workloads.SETUP[args.workload](spec, args.out)
    setup_raw = time.perf_counter() - start

    # numpy is loaded now; the chunks right after set-up give its speed.
    import speed

    chunks = []
    for _ in range(SETUP_SPEED_CHUNKS):
        chunk_start = time.perf_counter()
        speed.chunk()
        chunks.append(time.perf_counter() - chunk_start)
    result = {
        "setup_raw": setup_raw,
        "setup_s": setup_raw * speed.REFERENCE_CHUNK_S / statistics.fmean(chunks),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ctx = workloads.Context()
    run = workloads.RUN[args.workload]
    with speed.SpeedProbe() as probe:
        if tracer is None:
            result.update(_passes(run, state, ctx, probe, args.seconds, 0))
        else:
            tracer.uninstall()
            untraced = _passes(run, state, ctx, probe, args.seconds / 2, 0)
            tracer.install()
            ctx.tracer = tracer
            traced = _passes(run, state, ctx, probe, args.seconds / 2, len(untraced["walls"]))
            tracer.uninstall()
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(traced["walls"]))
        layers["trace.untraced_wall_s"] = statistics.median(untraced["walls"])
        layers["trace.traced_wall_s"] = statistics.median(traced["walls"])
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        result.update({key: untraced[key] + traced[key] for key in untraced})
        result["layers"] = layers
        tracer.dump(args.out / "trace.json")

    from gexpect.oracle import RNG_ALGORITHM
    import numpy

    result.update(
        attempted=ctx.attempted,
        failed=ctx.failed,
        failures=ctx.failures,
        max_err=ctx.max_err,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        speed_samples=len(probe.durations),
        versions={
            "gexpect": gexpect.__version__,
            "numpy": numpy.__version__,
            "rng": RNG_ALGORITHM,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
