"""Statistics of the fs2 benchmark.

fs2_perfbench (perfbench/src) reports raw samples; these helpers reduce them:
medians, the highest percentile that still has enough samples beyond it,
the stress workloads' per-window rates and duty, and tracing overhead.
Rates called work_rate are per reference-second: CPU time scaled by the
host speed a benchmark-owned reference loop read next to the work
(perfbench/src/reference.hpp).
"""

import math
import statistics

# Candidate percentiles, highest first. A percentile is only reported when
# at least MIN_BEYOND samples lie beyond it, so a tail figure never rests on
# a handful of samples.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def high_percentile(values):
    """(percentile, value) of the highest candidate percentile with at least
    MIN_BEYOND samples above its nearest-rank position, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)  # nearest-rank definition, 1-based
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def summarize(values):
    """Median, tail percentile (or None) and sample count of one series."""
    tail = high_percentile(values)
    return {
        "median": median(values),
        "percentile": tail[0] if tail else None,
        "percentile_value": tail[1] if tail else None,
        "n": len(values),
    }


def duty(worker_cpu_s, workers, wall_s):
    """Achieved busy fraction: worker CPU time over the CPU time `workers`
    fully busy threads would have used in `wall_s`."""
    if workers <= 0 or wall_s <= 0:
        raise ValueError("duty needs workers > 0 and wall time > 0")
    return worker_cpu_s / (workers * wall_s)


def window_rates(iterations, worker_cpu_s, wall_s, workers, flops_per_iter, load, host_speed):
    """Per-window kernel figures from the raw counts of each window.

    Rates are normalised per worker CPU-second, so a duty-cycled run and a
    full-load run of the same kernel read the same FLOP rate. `work_rate`
    further divides by the host's speed in the reference slice that ended
    the window: GFLOP per reference-second."""
    out = {"gflops_per_core": [], "work_rate": [], "iters_per_core_s": [], "busy_frac": [],
           "duty_error": []}
    for iters, cpu, wall, speed in zip(iterations, worker_cpu_s, wall_s, host_speed):
        if cpu <= 0:
            continue
        busy = duty(cpu, workers, wall)
        gflops = iters * flops_per_iter / cpu / 1e9
        out["gflops_per_core"].append(gflops)
        out["work_rate"].append(gflops / speed)
        out["iters_per_core_s"].append(iters / cpu)
        out["busy_frac"].append(busy)
        out["duty_error"].append(abs(busy - load))
    return out


def overhead_pct(untraced, traced):
    """Percent by which the traced rate's median is below the untraced one."""
    base = median(untraced)
    return (base - median(traced)) / base * 100.0


def time_overhead_pct(untraced_s, traced_s):
    """Percent by which the traced time's median is above the untraced one."""
    base = median(untraced_s)
    return (median(traced_s) - base) / base * 100.0
