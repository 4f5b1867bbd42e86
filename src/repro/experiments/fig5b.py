"""Figure 5(b): throughput vs memory across aggregation periods.

Fixes the CPU delay just past KG's saturation point (0.4 ms in the
paper's cluster, 0.5 ms in our calibration -- robust to hash-seed
variation in the hot worker's share) and enables the aggregation stage
with periods T; for each T, PKG and SG trade worker memory (live
partial counters) against flush overhead.  KG, which needs no partial
aggregation, is the horizontal reference line.

Expected shape: at every T, PKG delivers more throughput than SG with
roughly half the memory; very short periods depress PKG below KG's
saturated line, and PKG overtakes KG as the period grows (the paper
places the crossover around T = 30 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.parallel import parallel_map
from repro.queueing.cluster import ClusterConfig, run_wordcount
from repro.experiments.config import ExperimentConfig, format_table
from repro.streams.datasets import get_dataset

DEFAULT_PERIODS = (1.0, 3.0, 6.0, 15.0, 30.0)


@dataclass
class Fig5bRow:
    scheme: str
    aggregation_period: float  # seconds; 0 = no aggregation (KG line)
    throughput: float
    mean_latency: float
    p99_latency: float
    #: p99 sojourn minus the per-message CPU delay (pure queueing tail),
    #: so throughput and tail latency live in the same record.
    excess_p99_latency: float
    average_memory_counters: float
    peak_memory_counters: int
    aggregation_messages: int


def _fig5b_cell(cell) -> Fig5bRow:
    """One cluster simulation: (scheme, T); T=0 is the KG reference."""
    dataset, scheme, period, cpu_delay, duration, warmup, seed = cell
    distribution = get_dataset(dataset).distribution()
    metrics = run_wordcount(
        scheme,
        distribution,
        ClusterConfig(
            cpu_delay=cpu_delay,
            duration=duration,
            warmup=warmup,
            aggregation_period=period,
            seed=seed,
        ),
    )
    p99 = metrics.latency.percentile(99)
    return Fig5bRow(
        scheme=scheme.upper(),
        aggregation_period=period,
        throughput=metrics.throughput,
        mean_latency=metrics.latency.mean,
        p99_latency=p99,
        excess_p99_latency=p99 - cpu_delay,
        average_memory_counters=metrics.average_memory_counters,
        peak_memory_counters=metrics.peak_memory_counters,
        aggregation_messages=0 if scheme == "kg" else metrics.aggregation_messages,
    )


def run_fig5b(
    config: Optional[ExperimentConfig] = None,
    periods: Sequence[float] = DEFAULT_PERIODS,
    dataset: str = "WP",
    cpu_delay: float = 0.5e-3,
) -> List[Fig5bRow]:
    config = config or ExperimentConfig()
    # Aggregation needs several periods of steady state to measure.
    duration = max(config.cluster_duration, 3.0 * max(periods) + 10.0)
    warmup = max(config.cluster_warmup, max(periods))
    cells = [
        (dataset, scheme, period, cpu_delay, duration, warmup, config.seed)
        for scheme in ("pkg", "sg")
        for period in periods
    ]
    # KG reference: no aggregation stage, same delay.
    cells.append((dataset, "kg", 0.0, cpu_delay, duration, warmup, config.seed))
    return parallel_map(_fig5b_cell, cells, jobs=config.jobs)


def summarize_fig5b(rows: List[Fig5bRow]) -> dict:
    """Headline stats for EXPERIMENTS.md.

    Per aggregation period T: PKG/SG throughput and memory ratios (the
    paper: PKG beats SG with roughly half the memory), plus the smallest
    T at which PKG overtakes the saturated KG reference line.
    """
    by_key = {(r.scheme, r.aggregation_period): r for r in rows}
    periods = sorted({r.aggregation_period for r in rows if r.aggregation_period > 0})
    out = {}
    for t in periods:
        pkg, sg = by_key.get(("PKG", t)), by_key.get(("SG", t))
        if pkg and sg and sg.throughput > 0:
            out[f"pkg_over_sg_throughput[T={t:g}s]"] = pkg.throughput / sg.throughput
        if pkg and sg and sg.average_memory_counters > 0:
            out[f"pkg_over_sg_memory[T={t:g}s]"] = (
                pkg.average_memory_counters / sg.average_memory_counters
            )
    kg = by_key.get(("KG", 0.0))
    if kg and kg.throughput > 0:
        crossover = next(
            (
                t
                for t in periods
                if ("PKG", t) in by_key
                and by_key[("PKG", t)].throughput > kg.throughput
            ),
            None,
        )
        if crossover is not None:
            out["pkg_over_kg_crossover_period_s"] = crossover
    return out


def format_fig5b(rows: List[Fig5bRow]) -> str:
    table_rows = [
        [
            r.scheme,
            "none" if r.aggregation_period == 0 else f"{r.aggregation_period:.0f}s",
            f"{r.throughput:.0f}",
            f"{r.excess_p99_latency * 1e3:.2f}",
            f"{r.average_memory_counters:.0f}",
            f"{r.aggregation_messages}",
        ]
        for r in rows
    ]
    return format_table(
        ["scheme", "T", "keys/s", "xs p99 ms", "avg counters", "agg msgs"],
        table_rows,
        title="Figure 5(b): throughput vs memory across aggregation periods",
    )
