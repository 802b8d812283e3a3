#!/usr/bin/env python3
"""fs2 benchmark: build fs2_perfbench, run one workload, check and report it.

    python3 perfbench/run.py --workload stress_full --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the fs2 sources plus fs2_perfbench in perfbench/src)
into .bench_build/perfbench; later runs only re-check the build. fs2_perfbench
measures one workload for --seconds and prints raw samples; this script
reduces them to medians, prints every metric by name with its unit, median,
tail percentile and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the run's span log to .bench_build/spans/).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "fs2_perfbench"
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail("fs2 sources (src/) not found next to perfbench/; nothing to build")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "3"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def derive(series, facts, trace):
    """Add the series run.py computes from fs2_perfbench's raw samples."""
    def samples(name):
        return series.get(name, {}).get("samples", [])

    def put(name, unit, values):
        if values:
            series[name] = {"unit": unit, "samples": values}

    # The kernel probe of tune_sim and fleet_256 reports its worker count as
    # a probe fact.
    workers = int(facts.get("workers", facts.get("probe.workers", "0")))
    flops = float(facts.get("flops_per_iter", "0"))
    load = float(facts.get("load", "1"))
    def rates(prefix):
        return stats.window_rates(samples(prefix + "iterations"), samples(prefix + "worker_cpu_s"),
                                  samples(prefix + "wall_s"), workers, flops, load,
                                  samples(prefix + "host_speed"))

    traced = rates("traced.window.")  # traced stress rounds, or the kernel probe
    put("kernel.iters_per_core_s", "1/s", traced["iters_per_core_s"])
    put("kernel.busy_frac", "fraction", traced["busy_frac"])
    stress = bool(samples("window.iterations"))
    if stress:
        untraced = rates("window.")
        put("kernel_gflops_per_core", "GFLOP/s", untraced["gflops_per_core"])
        put("work_rate", "op/ref_s", untraced["work_rate"])
        put("host_speed", "ratio", samples("window.host_speed"))
        put("duty_error", "fraction", untraced["duty_error"])
    if not trace:
        return
    # Tracing overhead, from what the spans wrap. A stress round's spans
    # cover only its set-up (the kernel runs on worker threads the benchmark
    # does not instrument), so there it is read off set-up time. tune_sim
    # spans every evaluation and fleet_256 turns on the product tracer for
    # whole campaigns, so there it is read off work_rate.
    if stress and samples("traced.setup_s"):
        put("trace.overhead_pct", "%", [stats.time_overhead_pct(samples("setup_s"),
                                                                samples("traced.setup_s"))])
    elif samples("work_rate") and samples("traced.work_rate"):
        put("trace.overhead_pct", "%", [stats.overhead_pct(samples("work_rate"),
                                                           samples("traced.work_rate"))])


def print_report(args, raw, series):
    facts = raw["facts"]
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"fs2 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: {facts.get('cpu_model', 'unknown')}, {len(os.sched_getaffinity(0))} CPUs, "
          f"RAPL {facts.get('rapl')}, perf counters {facts.get('perf_counters')} "
          f"(host watts are not measured; sim watts are modelled, not validated on hardware)")
    for key in sorted(facts):
        if key not in ("cpu_model", "rapl", "perf_counters"):
            print(f"  {key}: {facts[key]}")
    print(f"checks: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted if attempted else 1.0:.6f}")
    for failure in raw["failures"]:
        print(f"  FAILED: {failure}")
    print(f"{'metric':<36} {'unit':<10} {'median':>14} {'tail':>22} {'n':>6}")
    for name in sorted(series):
        if ".window." in name or name.startswith("window."):
            continue
        s = stats.summarize(series[name]["samples"])
        tail = (f"p{s['percentile']:g}={s['percentile_value']:.6g}"
                if s["percentile"] is not None else "-")
        print(f"{name:<36} {series[name]['unit']:<10} {s['median']:>14.6g} {tail:>22} {s['n']:>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    command = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fs2_perfbench did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0 or not run.stdout.strip():
        fail(f"fs2_perfbench exited with code {run.returncode}")
    raw = json.loads(run.stdout.strip().splitlines()[-1])
    series = raw["series"]
    derive(series, raw["facts"], args.trace)
    print_report(args, raw, series)
    print(f"fs2_perfbench wall time {time.monotonic() - started:.1f} s")

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in series:
            fail(f"fs2_perfbench reported no samples for metric '{name}'")
        metrics[name] = {"value": stats.median(series[name]["samples"]), "unit": metric["unit"]}
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
