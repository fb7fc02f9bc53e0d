"""Metric names, units and the arithmetic shared by every workload.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; a test keeps
the two in step.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: name, unit, better
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("throughput", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = [
    ("serving.http.self_us", "us", "lower"),
    ("serving.http.connects_per_request", "count", "lower"),
    ("serving.http.connect_us", "us", "lower"),
    ("serving.http.response_bytes", "bytes", "lower"),
    ("serving.service.submit_us", "us", "lower"),
    ("serving.service.self_us", "us", "lower"),
    ("serving.service.attempts_per_request", "count", "lower"),
    ("serving.service.answers_exact", "share", "higher"),
    ("serving.service.answers_cache", "share", "higher"),
    ("serving.service.answers_approximate", "share", "lower"),
    ("serving.service.answers_stale", "share", "lower"),
    ("serving.pool.checkout_us", "us", "lower"),
    ("serving.pool.handoff_us", "us", "lower"),
    ("telemetry.observe.record_us", "us", "lower"),
    ("telemetry.metrics.updates_per_request", "count", "lower"),
    ("bayesnet.engine.query_hit_us", "us", "lower"),
    ("bayesnet.engine.query_miss_ms", "ms", "lower"),
    ("bayesnet.engine.cache_hit_ratio", "ratio", "higher"),
    ("bayesnet.engine.compile_ms", "ms", "lower"),
    ("bayesnet.engine.plan_misses", "count", "lower"),
    ("bayesnet.engine.marginals_ms", "ms", "lower"),
    ("bayesnet.engine.query_batch_row_us", "us", "lower"),
    ("bayesnet.engine.batch_signatures_per_call", "count", "lower"),
    ("bayesnet.inference.variable_elimination.calls", "count", "lower"),
    ("bayesnet.inference.variable_elimination.ms", "ms", "lower"),
    ("bayesnet.inference.variable_elimination.table_mb", "MB", "lower"),
    ("bayesnet.inference.junction_tree.calibrate_batch_calls", "count",
     "lower"),
    ("bayesnet.inference.junction_tree.calibrate_batch_rows", "count",
     "lower"),
    ("bayesnet.inference.junction_tree.calibrate_batch_row_us", "us",
     "lower"),
    ("bayesnet.inference.junction_tree.calibrate_ms", "ms", "lower"),
    ("bayesnet.inference.junction_tree.messages_reused_ratio", "ratio",
     "higher"),
    ("bayesnet.inference.kernels.lw_calls", "count", "lower"),
    ("bayesnet.inference.kernels.lw_samples", "count", "lower"),
    ("bayesnet.inference.kernels.lw_ms", "ms", "lower"),
    ("information.value_of_information.rows_per_rank", "count", "lower"),
    ("information.value_of_information.scalar_queries_per_rank", "count",
     "lower"),
    ("parallel.executor.map_ms", "ms", "lower"),
    ("parallel.executor.chunks", "count", "lower"),
    ("parallel.executor.worker_cpu_ms", "ms", "lower"),
    ("parallel.executor.efficiency", "ratio", "higher"),
    ("parallel.arena.bytes", "bytes", "lower"),
    ("robustness.campaign.outside_map_ms", "ms", "lower"),
    ("robustness.campaign.reference_ms", "ms", "lower"),
    ("robustness.campaign.trials_per_worker_cpu_s", "1/s", "higher"),
    ("trace.p50_ms", "ms", "lower"),
    ("trace.throughput", "1/s", "higher"),
]

UNITS: Dict[str, str] = {n: u for n, u, _ in END_TO_END + PER_LAYER}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def block_rates(marks: Sequence[Tuple[float, float, int]]
                ) -> Tuple[float, float]:
    """Median ops/s and median CPU ms per op over consecutive blocks.

    ``marks`` are ``(wall_s, cpu_s, ops_done)`` readings at block
    boundaries, the first one taken when the timed phase starts.
    """
    rates, cpus = [], []
    for (w0, c0, n0), (w1, c1, n1) in zip(marks, marks[1:]):
        if n1 > n0 and w1 > w0:
            rates.append((n1 - n0) / (w1 - w0))
            cpus.append(1000.0 * (c1 - c0) / (n1 - n0))
    if not rates:
        raise ValueError("no completed block")
    return float(statistics.median(rates)), float(statistics.median(cpus))


def run_figures(latencies_s: Sequence[float],
                marks: Sequence[Tuple[float, float, int]],
                peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end figure of the timed phase (set-up is the
    parent's)."""
    throughput, cpu_ms = block_rates(marks)
    return {
        "throughput": throughput,
        "p50_ms": 1000.0 * percentile(latencies_s, 50),
        "p90_ms": 1000.0 * percentile(latencies_s, 90),
        "peak_rss_mb": float(peak_rss_mb),
        "cpu_ms_per_op": cpu_ms,
    }


def render(values: Dict[str, float], names: Sequence[str]
           ) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line, in declared order."""
    return {n: {"value": float(values.get(n, 0.0)), "unit": UNITS[n]}
            for n in names}
