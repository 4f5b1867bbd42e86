"""Additional measurements and ablations from the paper's text.

* **Jaccard(G, L)** -- Q2's observation that the global-oracle and
  local-estimation routings agree on only ~47% of message destinations
  while achieving equal balance (they reach different, equally good
  local minima).
* **d-choices ablation** -- Section III's justification for d = 2:
  "using more than two choices only brings constant factor
  improvements" while d = 1 (hashing) is exponentially worse.
* **Probing ablation** -- Q2's negative result: probing true loads,
  at any frequency, does not improve on purely local estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.engine import simulate_multisource_pkg
from repro.core.metrics import jaccard_overlap
from repro.core.parallel import dataset_stream_cached, parallel_map
from repro.experiments.config import ExperimentConfig, format_table
from repro.streams.datasets import get_dataset


@dataclass
class JaccardRow:
    dataset: str
    num_workers: int
    num_sources: int
    jaccard: float
    imbalance_fraction_global: float
    imbalance_fraction_local: float


def run_jaccard(
    config: Optional[ExperimentConfig] = None,
    dataset: str = "WP",
    num_workers: int = 10,
    num_sources: int = 5,
) -> JaccardRow:
    """Measure routing agreement between G and L on one dataset."""
    config = config or ExperimentConfig()
    spec = get_dataset(dataset)
    keys = dataset_stream_cached(dataset, config.messages_for(spec), config.seed)
    common = dict(
        num_workers=num_workers,
        num_sources=num_sources,
        seed=config.seed,
        keep_assignments=True,
        num_checkpoints=config.num_checkpoints,
    )
    g = simulate_multisource_pkg(keys, mode="global", **common)
    l = simulate_multisource_pkg(keys, mode="local", **common)
    return JaccardRow(
        dataset=dataset,
        num_workers=num_workers,
        num_sources=num_sources,
        jaccard=jaccard_overlap(g.assignments, l.assignments),
        imbalance_fraction_global=g.average_imbalance_fraction,
        imbalance_fraction_local=l.average_imbalance_fraction,
    )


def summarize_jaccard(row: JaccardRow) -> dict:
    """Headline stats for EXPERIMENTS.md (paper: ~47% agreement)."""
    return {
        "jaccard": row.jaccard,
        "imbalance_fraction_global": row.imbalance_fraction_global,
        "imbalance_fraction_local": row.imbalance_fraction_local,
    }


def format_jaccard(row: JaccardRow) -> str:
    return (
        f"Jaccard overlap of G vs L{row.num_sources} destinations on "
        f"{row.dataset} (W={row.num_workers}): {row.jaccard * 100:.0f}% "
        f"(paper: ~47%)\n"
        f"imbalance fraction: G={row.imbalance_fraction_global:.2e} "
        f"L={row.imbalance_fraction_local:.2e} (equally balanced)"
    )


@dataclass
class DChoicesRow:
    num_choices: int
    num_workers: int
    average_imbalance_fraction: float


def _dchoices_cell(cell) -> DChoicesRow:
    """One ablation point: Greedy-d on the shared stream."""
    symbol, messages, d, num_workers, seed, num_checkpoints = cell
    keys = dataset_stream_cached(symbol, messages, seed)
    result = simulate_multisource_pkg(
        keys,
        num_workers=num_workers,
        num_sources=1,
        mode="local",
        num_choices=d,
        seed=seed,
        num_checkpoints=num_checkpoints,
        scheme_name=f"Greedy-{d}",
    )
    return DChoicesRow(
        num_choices=d,
        num_workers=num_workers,
        average_imbalance_fraction=result.average_imbalance_fraction,
    )


def run_dchoices_ablation(
    config: Optional[ExperimentConfig] = None,
    dataset: str = "WP",
    choices: Sequence[int] = (1, 2, 3, 4),
    num_workers: int = 10,
) -> List[DChoicesRow]:
    """Greedy-d imbalance for d = 1..4 on one dataset."""
    config = config or ExperimentConfig()
    messages = config.messages_for(get_dataset(dataset))
    cells = [
        (dataset, messages, d, num_workers, config.seed, config.num_checkpoints)
        for d in choices
    ]
    streams = [("dataset", dataset.upper(), messages, config.seed)]
    return parallel_map(_dchoices_cell, cells, jobs=config.jobs, streams=streams)


def summarize_dchoices(rows: List[DChoicesRow]) -> dict:
    """Headline stats for EXPERIMENTS.md: the d=1 cliff and the
    marginal gain beyond d=2 (paper: only constant factors)."""
    by_d = {r.num_choices: r.average_imbalance_fraction for r in rows}
    out = {f"imbalance_fraction[d={d}]": v for d, v in sorted(by_d.items())}
    if by_d.get(2):
        if 1 in by_d:
            out["d1_over_d2"] = by_d[1] / by_d[2]
        best_beyond = min((v for d, v in by_d.items() if d > 2), default=None)
        if best_beyond is not None and best_beyond > 0:
            out["d2_over_best_beyond"] = by_d[2] / best_beyond
    return out


def format_dchoices(rows: List[DChoicesRow]) -> str:
    return format_table(
        ["d", "W", "avg imbalance fraction"],
        [
            [r.num_choices, r.num_workers, f"{r.average_imbalance_fraction:.2e}"]
            for r in rows
        ],
        title="Ablation: number of choices d (d=1 is hashing; d=2 is PKG)",
    )


@dataclass
class ProbingRow:
    label: str
    probe_period: float  # minutes; 0 = pure local
    average_imbalance_fraction: float


def _probing_cell(cell) -> ProbingRow:
    """One ablation point: probe period P on the shared stream."""
    import numpy as np

    (symbol, messages, period, num_workers, num_sources, stream_minutes,
     seed, num_checkpoints) = cell
    keys = dataset_stream_cached(symbol, messages, seed)
    timestamps = np.linspace(0.0, stream_minutes, messages)
    if period == 0.0:
        result = simulate_multisource_pkg(
            keys,
            num_workers=num_workers,
            num_sources=num_sources,
            mode="local",
            timestamps=timestamps,
            seed=seed,
            num_checkpoints=num_checkpoints,
        )
        label = f"L{num_sources}"
    else:
        result = simulate_multisource_pkg(
            keys,
            num_workers=num_workers,
            num_sources=num_sources,
            mode="probing",
            probe_period=period,
            timestamps=timestamps,
            seed=seed,
            num_checkpoints=num_checkpoints,
        )
        label = f"L{num_sources}P{period:g}"
    return ProbingRow(
        label=label,
        probe_period=period,
        average_imbalance_fraction=result.average_imbalance_fraction,
    )


def run_probing_ablation(
    config: Optional[ExperimentConfig] = None,
    dataset: str = "WP",
    periods_minutes: Sequence[float] = (0.0, 0.5, 1.0, 5.0, 15.0),
    num_workers: int = 10,
    num_sources: int = 5,
    stream_minutes: float = 40 * 60.0,
) -> List[ProbingRow]:
    """Local estimation vs probing at several probe frequencies."""
    config = config or ExperimentConfig()
    messages = config.messages_for(get_dataset(dataset))
    cells = [
        (dataset, messages, period, num_workers, num_sources, stream_minutes,
         config.seed, config.num_checkpoints)
        for period in periods_minutes
    ]
    streams = [("dataset", dataset.upper(), messages, config.seed)]
    return parallel_map(_probing_cell, cells, jobs=config.jobs, streams=streams)


def summarize_probing(rows: List[ProbingRow]) -> dict:
    """Headline stats for EXPERIMENTS.md: best probing improvement over
    pure local estimation (paper: probing does not help)."""
    local = next((r for r in rows if r.probe_period == 0.0), None)
    out = {
        f"imbalance_fraction[{r.label}]": r.average_imbalance_fraction for r in rows
    }
    if local and local.average_imbalance_fraction > 0:
        probed = [r for r in rows if r.probe_period > 0]
        if probed:
            out["best_probing_over_local"] = (
                min(r.average_imbalance_fraction for r in probed)
                / local.average_imbalance_fraction
            )
    return out


def format_probing(rows: List[ProbingRow]) -> str:
    return format_table(
        ["technique", "probe period (min)", "avg imbalance fraction"],
        [
            [
                r.label,
                "-" if r.probe_period == 0 else f"{r.probe_period:g}",
                f"{r.average_imbalance_fraction:.2e}",
            ]
            for r in rows
        ],
        title="Ablation: probing frequency (paper: probing does not help)",
    )
