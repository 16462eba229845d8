#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload station --seed 1 --seconds 20 --trace 0

Builds a fresh system from seeded inputs, runs it to the workload's
fixed simulated horizon, scores every listener, and repeats until
``--seconds`` of host time have passed.  Host-time metrics are medians
over those repetitions, rescaled to a reference host speed
(``hostspeed.py``); simulated-domain metrics must come out identical in
every repetition (that is one of the correctness checks).

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, ``trace_overhead_x`` and the layer table, which is
also written to ``perfbench/results/layers-<workload>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# one single-threaded process: keep numpy's BLAS from starting a thread
# pool that would compete with the simulation for the host's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
# the program is built from source: its package lives under src/ beside us
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from hostspeed import REF_S, reference_s  # noqa: E402
from layers import (  # noqa: E402
    layer_counts, layer_times, per_layer_metrics, print_layer_table,
    write_layer_table,
)
from layertrace import LayerTracer  # noqa: E402
from measure import score  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: sim-time windows per repetition; 120 leaves 12 beyond the p90
WINDOWS = 120
#: systems built per repetition; ``setup_s`` is the median of their times
SETUP_BUILDS = 4
#: simulated-domain results every repetition of one seed must reproduce
SIM_KEYS = (
    "listeners", "expected", "played", "forged", "played_ratio",
    "max_silence_s", "skew_ms.p50", "skew_ms.p99", "skew_positions",
    "wire_kB_per_sim_s", "events", "conservation_ok",
    "conservation_residual",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q):
    ordered = sorted(values)
    k = (len(ordered) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def run_once(workload: str, inputs: dict, traced: bool) -> dict:
    """Build, run and score one repetition."""
    build = WORKLOADS[workload][1]
    # untraced repetitions time the reference kernel before every build
    # and after every window, to rescale their host times (hostspeed.py)
    refs = []
    # set up several times, each from a collected heap, and run the last
    # system: a collection of the previous system inside the clock was
    # the largest noise in setup_s
    builds = []
    for _ in range(SETUP_BUILDS):
        job = None
        gc.collect()
        if not traced:
            refs.append(reference_s())
        start = perf_counter()
        job = build(inputs)
        builds.append(perf_counter() - start)
    setup = statistics.median(builds)
    tracer = LayerTracer(job.system).attach() if traced else None
    windows = []
    try:
        for k in range(1, WINDOWS + 1):
            until = job.horizon * k / WINDOWS
            if tracer is not None:
                windows.append(tracer.run(job.system, until))
            else:
                start = perf_counter()
                job.system.run(until=until)
                windows.append(perf_counter() - start)
                refs.append(reference_s())
    finally:
        if tracer is not None:
            tracer.detach()
    result = score(job)
    result["layers"] = layer_counts(job, result)
    result["problems"] += job.check()
    result.update(
        traced=traced, setup_s=setup, wall_s=sum(windows),
        window_s=job.horizon / WINDOWS, windows=windows,
        horizon=job.horizon,
        speed=REF_S / statistics.median(refs) if refs else None,
        setup_speed=(REF_S / statistics.median(refs[:SETUP_BUILDS])
                     if refs else None),
    )
    if tracer is not None:
        result["trace"] = layer_times(tracer, result["wall_s"])
    return result


#: end-to-end metric -> unit, in ``BENCHMARK.json`` order
E2E_UNITS = {
    "host_us_per_listener_s": "us",
    "host_ms_per_sim_s.p50": "ms",
    "host_ms_per_sim_s.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "played_ratio": "ratio",
    "wire_kB_per_sim_s": "kB/s",
}


def end_to_end(reps: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    first = plain[0]
    # Host times are rescaled to the reference host speed of their own
    # repetition, which cancels the drift of the shared machine.  Every
    # window does the same simulated work in every repetition (the checks
    # hold the simulated domain identical), so a window's host time is
    # the median of its rescaled times over the repetitions.
    window = [
        statistics.median(times) for times in zip(*(
            [w * r["speed"] for w in r["windows"]] for r in plain
        ))
    ]
    per_sim_s = [w * 1e3 / first["window_s"] for w in window]
    values = {
        "host_us_per_listener_s":
            sum(window) * 1e6 / (first["listeners"] * first["horizon"]),
        "host_ms_per_sim_s.p50": _percentile(per_sim_s, 50),
        "host_ms_per_sim_s.p90": _percentile(per_sim_s, 90),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"]
                                     for r in plain),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "played_ratio": first["played_ratio"],
        "wire_kB_per_sim_s": first["wire_kB_per_sim_s"],
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    inputs = WORKLOADS[args.workload][0](args.seed)
    began = perf_counter()
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        start = perf_counter()
        reps.append(run_once(args.workload, inputs, traced))
        took = perf_counter() - start
        enough = len(reps) >= (2 if args.trace else 1)
        # stop when another repetition would end past the time budget
        if enough and perf_counter() + took - began > args.seconds:
            break

    first = reps[0]
    problems = list(first["problems"])
    for rep in reps[1:]:
        problems += rep["problems"]
        for key in SIM_KEYS:
            if rep[key] != first[key]:
                problems.append(
                    f"{key} differs between repetitions "
                    f"({first[key]!r} vs {rep[key]!r}; traced={rep['traced']})"
                )
        if rep["layers"] != first["layers"]:
            problems.append("simulated-domain layer counters differ between "
                            f"repetitions (traced={rep['traced']})")
    problems = sorted(set(problems))

    print(f"workload={args.workload} seed={args.seed} reps={len(reps)} "
          f"windows={WINDOWS}/rep listeners={first['listeners']} "
          f"expected={first['expected']} played={first['played']} "
          f"missed={first['expected'] - first['played']} "
          f"forged={first['forged']} "
          f"conservation_ok={first['conservation_ok']} "
          f"(residual {first['conservation_residual']})")
    print("rep walls (s): " + " ".join(
        f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in reps))
    print("rep host speeds (x reference): " + " ".join(
        f"{r['speed']:.3f}" for r in reps if not r["traced"]))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        fastest = min((r for r in reps if r["traced"]),
                      key=lambda r: r["wall_s"])
        plain = min(r["wall_s"] for r in reps if not r["traced"])
        metrics = per_layer_metrics(fastest, fastest["wall_s"] / plain)
        table = print_layer_table(args.workload, fastest)
        write_layer_table(BENCH_DIR / "results", args.workload, args.seed,
                          table, metrics)
    else:
        metrics = end_to_end(reps)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": first["expected"],
        # a repetition whose checks fail fails every listener-block in it
        "failed": first["expected"] if problems else 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
