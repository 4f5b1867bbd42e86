"""Table II: average imbalance of PKG vs the key-grouping baselines.

Paper setup: single source, WP and TW, W in {5, 10, 50, 100}; schemes
PKG, Off-Greedy, On-Greedy, PoTC, Hashing.  The headline shape: hashing
is orders of magnitude worse; PoTC alone is not enough; PKG matches or
beats even the offline greedy assignment until W crosses the O(1/p1)
feasibility threshold, where every scheme degrades ("binary" behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api.registry import make_partitioner
from repro.core.engine import replay_stream, simulate_multisource_pkg
from repro.core.parallel import dataset_stream_cached, parallel_map
from repro.experiments.config import ExperimentConfig, format_table, sci
from repro.partitioning import OfflineGreedy
from repro.streams.datasets import get_dataset

SCHEME_ORDER = ("PKG", "Off-Greedy", "On-Greedy", "PoTC", "H")

#: Table II display label -> registry spec (PKG and Off-Greedy are
#: special-cased: PKG runs through the fast multi-source path, and
#: Off-Greedy must be fitted on the stream before routing it)
_REGISTRY_SPECS = {"On-Greedy": "on-greedy", "PoTC": "potc", "H": "kg"}


@dataclass
class Table2Row:
    dataset: str
    scheme: str
    num_workers: int
    average_imbalance: float
    final_imbalance: float
    num_messages: int

    @property
    def average_imbalance_fraction(self) -> float:
        return self.average_imbalance / self.num_messages


def _run_scheme(scheme: str, keys, num_workers: int, config: ExperimentConfig):
    if scheme == "PKG":
        return simulate_multisource_pkg(
            keys,
            num_workers=num_workers,
            num_sources=1,
            mode="local",
            seed=config.seed,
            num_checkpoints=config.num_checkpoints,
            scheme_name="PKG",
        )
    if scheme == "Off-Greedy":
        partitioner = OfflineGreedy.from_stream(keys, num_workers)
    elif scheme in _REGISTRY_SPECS:
        partitioner = make_partitioner(
            _REGISTRY_SPECS[scheme], num_workers, seed=config.seed
        )
    else:
        raise ValueError(f"unknown Table II scheme {scheme!r}")
    return replay_stream(
        keys, partitioner, num_checkpoints=config.num_checkpoints
    )


def _table2_cell(cell) -> Table2Row:
    """One grid cell: (dataset, W, scheme) on the shared stream."""
    symbol, messages, w, scheme, seed, num_checkpoints = cell
    keys = dataset_stream_cached(symbol, messages, seed)
    config = ExperimentConfig(seed=seed, num_checkpoints=num_checkpoints)
    result = _run_scheme(scheme, keys, w, config)
    return Table2Row(
        dataset=symbol,
        scheme=scheme,
        num_workers=w,
        average_imbalance=result.average_imbalance,
        final_imbalance=result.final_imbalance,
        num_messages=result.num_messages,
    )


def run_table2(
    config: Optional[ExperimentConfig] = None,
    datasets: Sequence[str] = ("WP", "TW"),
    schemes: Sequence[str] = SCHEME_ORDER,
) -> List[Table2Row]:
    """Average imbalance of every scheme on every dataset/W pair."""
    config = config or ExperimentConfig()
    cells, streams = [], []
    for symbol in datasets:
        messages = config.messages_for(get_dataset(symbol))
        streams.append(("dataset", symbol.upper(), messages, config.seed))
        for w in config.workers:
            for scheme in schemes:
                cells.append(
                    (symbol, messages, w, scheme, config.seed,
                     config.num_checkpoints)
                )
    return parallel_map(_table2_cell, cells, jobs=config.jobs, streams=streams)


def summarize_table2(rows: List[Table2Row]) -> dict:
    """Headline stats for EXPERIMENTS.md: how much PKG wins by.

    Geometric means over W of the hashing/PKG and PKG/Off-Greedy
    imbalance ratios per dataset (the paper's qualitative claims: H is
    orders of magnitude worse; PKG competes with offline greedy).
    """
    import math

    by_key = {(r.dataset, r.scheme, r.num_workers): r.average_imbalance for r in rows}
    datasets = sorted({r.dataset for r in rows})
    workers = sorted({r.num_workers for r in rows})
    out = {}
    for d in datasets:
        h_over_pkg, pkg_over_off = [], []
        for w in workers:
            pkg = by_key.get((d, "PKG", w))
            h = by_key.get((d, "H", w))
            off = by_key.get((d, "Off-Greedy", w))
            if pkg and h:
                h_over_pkg.append(h / pkg)
            if pkg and off:
                pkg_over_off.append(pkg / off)
        if h_over_pkg:
            out[f"hash_over_pkg_geomean[{d}]"] = math.exp(
                sum(math.log(x) for x in h_over_pkg) / len(h_over_pkg)
            )
        if pkg_over_off:
            out[f"pkg_over_offgreedy_geomean[{d}]"] = math.exp(
                sum(math.log(x) for x in pkg_over_off) / len(pkg_over_off)
            )
    return out


def format_table2(rows: List[Table2Row]) -> str:
    datasets = sorted({r.dataset for r in rows})
    workers = sorted({r.num_workers for r in rows})
    schemes = [s for s in SCHEME_ORDER if any(r.scheme == s for r in rows)]
    by_key: Dict = {
        (r.dataset, r.scheme, r.num_workers): r.average_imbalance for r in rows
    }
    headers = ["Scheme"] + [
        f"{d} W={w}" for d in datasets for w in workers
    ]
    table_rows = []
    for scheme in schemes:
        row = [scheme]
        for d in datasets:
            for w in workers:
                value = by_key.get((d, scheme, w))
                row.append("-" if value is None else sci(value))
        table_rows.append(row)
    return format_table(
        headers,
        table_rows,
        title="Table II: average imbalance (messages) per scheme",
    )
