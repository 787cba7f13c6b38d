"""Repository benchmark: two clocks, per layer, over three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload construct-web --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced reference and a traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run context (seed, host,
calibration loop).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: set-ups per run; ``setup_s`` is their median.  Each runs on a fresh
#: workload after the previous one is freed, so the process's peak memory
#: is one set-up's, not a pile of them.  The count is fixed, not set by a
#: time budget: the heap the passes start from, and so the peak memory,
#: then does not depend on the host's speed.
SETUP_REPEATS = 5
#: fewest untraced and traced passes each in a ``--trace 1`` run
TRACE_PASSES = 2

END_TO_END = [
    ("p50_wu", "wu"),
    ("p99_wu", "wu"),
    ("sim_clock", "sim"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, as ``ServiceReport`` computes it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def one_pass(workload, index: int, tracer=None, targets=()) -> tuple:
    """Pass ``index``: ``(wall, stats, failed)``.

    With a ``tracer``, ``prepare`` and ``run`` execute with ``targets``
    wrapped; the oracle check never does.
    """
    gc.collect()
    with tracer.wrapping(targets) if tracer else nullcontext():
        if tracer:
            tracer.phase, tracer.pass_index = "prepare", index
        job = workload.prepare(index)
        if tracer:
            tracer.phase = "pass"
        start = time.perf_counter()
        out = workload.run(job)
        wall = time.perf_counter() - start
    stats = workload.account(job, out)
    return wall, stats, workload.check(job, out)


def run_passes(workload, seconds: float, min_passes: int) -> tuple[list[tuple], float]:
    """Passes until ``seconds`` have gone and ``min_passes`` are done, and
    the peak memory when the first ``min_passes`` had ended, which does not
    depend on how many passes the host's speed lets the run make."""
    results: list[tuple] = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_passes or time.perf_counter() < deadline:
        results.append(one_pass(workload, len(results)))
        if len(results) == min_passes:
            peak = peak_rss_mb()
    return results, peak


def timed_setup(name: str, seed: int, small: bool) -> tuple:
    """``(workload, walls)``: the last of several timed set-ups, kept."""
    from workloads import make_workload

    walls: list[float] = []
    while True:
        workload = make_workload(name, seed, OUT, small)
        gc.collect()
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        walls.append(time.perf_counter() - start)
        if len(walls) == SETUP_REPEATS:
            return workload, walls
        workload.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float, small: bool = False) -> dict:
    """The untraced run: every end-to-end metric."""
    workload, setup_walls = timed_setup(name, seed, small)
    try:
        passes, peak = run_passes(workload, seconds, workload.FIXED_PASSES)
    finally:
        workload.close()
    walls = [wall for wall, _, _ in passes]
    fixed = [stats for _, stats, _ in passes[: workload.FIXED_PASSES]]
    latencies = [x for stats in fixed for x in stats.latencies]
    attempted = sum(stats.ops for _, stats, _ in passes)
    failed = sum(f for _, _, f in passes)
    values = {
        "p50_wu": percentile(latencies, 50),
        "p99_wu": percentile(latencies, 99),
        "sim_clock": statistics.mean(s.sim for s in fixed),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak,
        "ok_frac": (attempted - failed) / attempted,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END},
        "pass_walls": walls,
    }


def traced(name: str, seed: int, seconds: float, small: bool = False) -> dict:
    """Untraced reference passes and the same passes traced."""
    from layers import TARGETS, TraceData, per_layer_metrics
    from spans import Tracer
    from workloads import make_workload

    # untraced and traced passes alternate, so host speed drifts hit both
    tracer = Tracer()
    plain_wl = make_workload(name, seed, OUT, small)
    workload = make_workload(name, seed, OUT, small)
    plain: list[tuple] = []
    runs: list[tuple] = []
    try:
        plain_wl.setup()
        with tracer.wrapping(TARGETS):
            workload.setup()
        deadline = time.perf_counter() + seconds
        while len(runs) < TRACE_PASSES or time.perf_counter() < deadline:
            plain.append(one_pass(plain_wl, len(plain)))
            runs.append(one_pass(workload, len(runs), tracer, TARGETS))
        extra = workload.probes()
    finally:
        plain_wl.close()
        workload.close()

    # tracing must not move the simulated clock at all
    perturbed = [
        stats.ops for (_, a, _), (_, stats, _) in zip(plain, runs) if a.sim != stats.sim
    ]
    attempted = sum(s.ops for _, s, _ in plain) + sum(s.ops for _, s, _ in runs)
    failed = sum(f for _, _, f in plain) + sum(f for _, _, f in runs) + sum(perturbed)
    for key, calls in workload.oracle_seconds.items():
        extra[f"core.{key}_s"] = statistics.median(calls)
    extra["parallel.regions"] = statistics.median(s.regions for _, s, _ in plain)
    extra["parallel.work"] = statistics.median(s.work for _, s, _ in plain)
    extra["wall.edges_per_s"] = plain_wl.edges / statistics.median(w for w, _, _ in plain)
    extra["wall.ops_per_s"] = statistics.median(s.ops / w for w, s, _ in plain)
    data = TraceData(
        spans=tracer.spans,
        tallies=tracer.tallies,
        passes=len(runs),
        plain_walls=[w for w, _, _ in plain],
        traced_walls=[w for w, _, _ in runs],
        extra=extra,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer_metrics(data),
        "pass_walls": data.traced_walls,
        "sim_identical": not perturbed,
        "tracer": tracer,
    }


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: host context, never a divisor."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "calibration_loop_s": calibration_s(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["construct-web", "churn-social", "sharded-web"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: repro was imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_walls": result.pop("pass_walls"),
        "host": host_context(),
    }
    tracer = result.pop("tracer", None)
    if tracer is not None:
        context["sim_identical"] = result.pop("sim_identical")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, context)
        context["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
