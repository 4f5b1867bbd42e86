"""Figure 5(a): cluster throughput and latency vs per-key CPU delay.

Runs the simulated word-count cluster (1 spout + 9 counters, no
aggregation) for PKG, SG and KG across the paper's CPU-delay sweep
(0.1 ms to 1 ms).

Expected shape: PKG and SG indistinguishable and above KG everywhere;
KG saturates around 0.4 ms and loses ~60% of its throughput over the
tenfold delay increase while PKG/SG lose ~37%; KG's average latency is
substantially higher once saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.parallel import parallel_map
from repro.queueing.cluster import ClusterConfig, run_wordcount
from repro.experiments.config import ExperimentConfig, format_table
from repro.streams.datasets import get_dataset

DEFAULT_DELAYS = (0.1e-3, 0.2e-3, 0.4e-3, 0.6e-3, 0.8e-3, 1.0e-3)
SCHEMES = ("pkg", "sg", "kg")


@dataclass
class Fig5aRow:
    scheme: str
    cpu_delay: float
    throughput: float
    mean_latency: float
    p99_latency: float
    #: p99 sojourn minus the per-message CPU delay: pure queueing tail,
    #: comparable across delay settings (and with the sharded runtime's
    #: p99 sojourn entries in BENCH_partitioners.json).
    excess_p99_latency: float
    load_imbalance: float


def _fig5a_cell(cell) -> Fig5aRow:
    """One cluster simulation: (delay, scheme)."""
    dataset, delay, scheme, duration, warmup, seed = cell
    distribution = get_dataset(dataset).distribution()
    metrics = run_wordcount(
        scheme,
        distribution,
        ClusterConfig(cpu_delay=delay, duration=duration, warmup=warmup, seed=seed),
    )
    p99 = metrics.latency.percentile(99)
    return Fig5aRow(
        scheme=scheme.upper(),
        cpu_delay=delay,
        throughput=metrics.throughput,
        mean_latency=metrics.latency.mean,
        p99_latency=p99,
        excess_p99_latency=p99 - delay,
        load_imbalance=metrics.load_imbalance,
    )


def run_fig5a(
    config: Optional[ExperimentConfig] = None,
    delays: Sequence[float] = DEFAULT_DELAYS,
    dataset: str = "WP",
) -> List[Fig5aRow]:
    config = config or ExperimentConfig()
    cells = [
        (dataset, delay, scheme, config.cluster_duration, config.cluster_warmup,
         config.seed)
        for delay in delays
        for scheme in SCHEMES
    ]
    return parallel_map(_fig5a_cell, cells, jobs=config.jobs)


def degradations(rows: List[Fig5aRow]) -> dict:
    """Relative throughput loss from the lowest to the highest delay.

    The paper's headline: ~60% for KG, ~37% for PKG and SG.
    """
    out = {}
    for scheme in {r.scheme for r in rows}:
        mine = sorted(
            (r for r in rows if r.scheme == scheme), key=lambda r: r.cpu_delay
        )
        first, last = mine[0].throughput, mine[-1].throughput
        out[scheme] = 1.0 - last / first if first > 0 else 0.0
    return out


def summarize_fig5a(rows: List[Fig5aRow]) -> dict:
    """Headline stats for EXPERIMENTS.md: throughput degradation per
    scheme over the delay sweep and PKG's edge over KG at the highest
    delay (the paper: KG loses ~60%, PKG/SG ~37%)."""
    out = {f"throughput_loss[{s}]": d for s, d in sorted(degradations(rows).items())}
    max_delay = max(r.cpu_delay for r in rows)
    at_max = {r.scheme: r for r in rows if r.cpu_delay == max_delay}
    kg = at_max.get("KG")
    if kg and kg.throughput > 0:
        for scheme in ("PKG", "SG"):
            r = at_max.get(scheme)
            if r:
                out[f"{scheme.lower()}_over_kg_throughput_at_max_delay"] = (
                    r.throughput / kg.throughput
                )
    return out


def format_fig5a(rows: List[Fig5aRow]) -> str:
    table_rows = [
        [
            r.scheme,
            f"{r.cpu_delay * 1e3:.1f}",
            f"{r.throughput:.0f}",
            f"{r.mean_latency * 1e3:.2f}",
            f"{r.p99_latency * 1e3:.2f}",
            f"{r.excess_p99_latency * 1e3:.2f}",
        ]
        for r in sorted(rows, key=lambda r: (r.cpu_delay, r.scheme))
    ]
    table = format_table(
        ["scheme", "delay ms", "keys/s", "mean lat ms", "p99 lat ms",
         "xs p99 ms"],
        table_rows,
        title="Figure 5(a): throughput and latency vs CPU delay",
    )
    degr = degradations(rows)
    footer = "  ".join(
        f"{s}: -{d * 100:.0f}%" for s, d in sorted(degr.items())
    )
    return f"{table}\nthroughput loss over sweep: {footer}"
