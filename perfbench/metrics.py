"""Metric definitions shared by the workloads, plus the small statistics
they need.  ``BENCHMARK.json`` lists the same names; ``selftest.py`` checks
that the two agree."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, List, Sequence, Tuple

#: End-to-end metrics (untraced runs): name -> unit.  An *operation* is one
#: explanation on the corpus workloads and one answered request on
#: serve-mixed (each request explains one block, so there expl/s = req/s).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "expl_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_frac": "frac",
    "model_queries_per_expl": "count",
    "precision_mean": "frac",
    "certified_frac": "frac",
    "heldout_precision_mean": "frac",
    "coverage_mean": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  Counts and times are per
#: operation so that they do not scale with how many operations fit in the
#: measuring window.  Layers a workload does not exercise report 0.
PER_LAYER: Dict[str, str] = {
    "perturb.self_ms_per_op": "ms",
    "perturb.rows_per_op": "count",
    "perturb.us_per_row": "us",
    "perturb.fallback_frac": "frac",
    "model.kernel_ms_per_op": "ms",
    "model.kernel_calls_per_op": "count",
    "model.kernel_rows_per_op": "count",
    "model.us_per_row": "us",
    "model.cache_ms_per_op": "ms",
    "model.cache_hit_rate": "frac",
    "precision.self_ms_per_op": "ms",
    "precision.rounds_per_op": "count",
    "precision.samples_per_op": "count",
    "coverage.self_ms_per_op": "ms",
    "coverage.calls_per_op": "count",
    "anchors.self_ms_per_op": "ms",
    "result_cache.hit_rate": "frac",
    "result_cache.get_ms": "ms",
    "result_cache.put_ms": "ms",
    "batching.mean_rounds_per_tick": "count",
    "batching.ticks_per_op": "count",
    "batching.calls_saved_per_op": "count",
    "scheduler.stolen_frac": "frac",
    "scheduler.exec_balance": "frac",
    "service.exec_ms_p50": "ms",
    "service.exec_ms_p99": "ms",
    "service.wait_ms_p50": "ms",
    "service.wait_ms_p99": "ms",
    "transport.codec_ms_per_op": "ms",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
    "tput.predicted_per_s": "1/s",
    "tput.measured_per_s": "1/s",
}

#: Traced layers and the count their unit cost is taken per: Γ and the
#: model kernel cost per row, the others per call (span).  The
#: first-principles throughput model is 1 / Σ(count per op × unit cost).
LAYER_COUNTS: Dict[str, str] = {
    "perturb": "rows",
    "model.kernel": "rows",
    "model.cache": "spans",
    "precision": "spans",
    "coverage": "spans",
    "anchors": "spans",
    "result_cache.get": "spans",
    "result_cache.put": "spans",
    "transport.codec": "spans",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else math.nan


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


def layer_metrics(
    summary: dict, ops: int, fallback_frac: float, overhead_frac: float, measured_per_s: float
) -> Tuple[Dict[str, float], List[Tuple[str, float, float, float]]]:
    """Per-layer metrics of one traced pass, and its cost-model table.

    Returns ``(metrics, table)`` where ``table`` rows are ``(layer, count per
    op, unit cost in µs, ms per op)`` — the first-principles model's terms.
    """
    layers = summary["layers"]

    def get(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0))

    def ms_per_op(layer: str) -> float:
        return 1000.0 * get(layer, "self_s") / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    table = []
    for layer, count_key in LAYER_COUNTS.items():
        count = get(layer, count_key)
        unit_us = 1e6 * ratio(get(layer, "self_s"), count)
        table.append((layer, count / ops, unit_us, count / ops * unit_us / 1000.0))
    predicted_ms = sum(row[3] for row in table)
    metrics = {
        "perturb.self_ms_per_op": ms_per_op("perturb"),
        "perturb.rows_per_op": get("perturb", "rows") / ops,
        "perturb.us_per_row": 1e6 * ratio(get("perturb", "self_s"), get("perturb", "rows")),
        "perturb.fallback_frac": fallback_frac,
        "model.kernel_ms_per_op": ms_per_op("model.kernel"),
        "model.kernel_calls_per_op": get("model.kernel", "spans") / ops,
        "model.kernel_rows_per_op": get("model.kernel", "rows") / ops,
        "model.us_per_row": 1e6
        * ratio(get("model.kernel", "self_s"), get("model.kernel", "rows")),
        "model.cache_ms_per_op": ms_per_op("model.cache"),
        "model.cache_hit_rate": ratio(get("model.cache", "aux"), get("model.cache", "rows")),
        "precision.self_ms_per_op": ms_per_op("precision"),
        "precision.rounds_per_op": get("precision", "aux") / ops,
        "precision.samples_per_op": get("precision", "rows") / ops,
        "coverage.self_ms_per_op": ms_per_op("coverage"),
        "coverage.calls_per_op": get("coverage", "spans") / ops,
        "anchors.self_ms_per_op": ms_per_op("anchors"),
        "result_cache.hit_rate": ratio(
            get("result_cache.get", "aux"), get("result_cache.get", "spans")
        ),
        "result_cache.get_ms": 1000.0
        * ratio(get("result_cache.get", "self_s"), get("result_cache.get", "spans")),
        "result_cache.put_ms": 1000.0
        * ratio(get("result_cache.put", "self_s"), get("result_cache.put", "spans")),
        "transport.codec_ms_per_op": ms_per_op("transport.codec"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": 1.0
        - ratio(summary["attributed_s"], summary["top_level_s"]),
        "tput.predicted_per_s": ratio(1000.0, predicted_ms),
        "tput.measured_per_s": measured_per_s,
    }
    return metrics, table


def describe_cost_model(table, metrics: Dict[str, float]) -> List[str]:
    """Human-readable lines for the first-principles throughput model."""
    total_ms = sum(row[3] for row in table) or 1.0
    lines = ["layer cost model: per-op count x unit cost (self time, traced pass)"]
    for layer, count, unit_us, ms in sorted(table, key=lambda row: -row[3]):
        if count:
            lines.append(
                f"  {layer:<18} {count:>10.1f} x {unit_us:>9.2f} us = "
                f"{ms:>8.2f} ms/op  ({ms / total_ms:6.1%})"
            )
    lines.append(
        f"  predicted {metrics['tput.predicted_per_s']:.3f} ops/s vs measured "
        f"{metrics['tput.measured_per_s']:.3f} ops/s (untraced); "
        f"unattributed {metrics['trace.unattributed_frac']:.1%}, "
        f"tracing overhead {metrics['trace.overhead_frac']:.1%}"
    )
    return lines
