"""Synthetic stand-ins for the paper's Table I datasets.

Table I of the paper:

======== ======== ======= ======
Dataset  Messages Keys    p1(%)
======== ======== ======= ======
WP       22M      2.9M    9.32
TW       1.2G     31M     2.67
CT       690k     2.9k    3.29
LN1      10M      16k     14.71
LN2      10M      1.1k    7.01
LJ       69M      4.9M    0.29
SL1      905k     77k     3.28
SL2      948k     82k     3.11
======== ======== ======= ======

The raw corpora are not redistributable, so each spec here generates a
synthetic stream whose *head probability p1* matches the paper exactly
(the statistic that locates every phase transition in the evaluation)
and whose message/key counts are scaled to laptop size.  WP/TW/CT/SL use
p1-calibrated Zipf laws, LN1/LN2 use the paper's own log-normal
parameters, and LJ/SL can alternatively be streamed from generated
scale-free graphs via :class:`repro.streams.graphs.EdgeStream`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from repro.core.chunks import DEFAULT_CHUNK_SIZE, ArrayChunkSource, ChunkSource
from repro.streams.distributions import (
    KeyDistribution,
    LogNormalKeyDistribution,
    ZipfKeyDistribution,
    calibrate_zipf_exponent,
)
from repro.streams.drift import DriftingKeyStream


#: Memoized stationary distributions, keyed by every spec field the
#: distribution depends on (see DatasetSpec.distribution).
_DISTRIBUTION_CACHE: Dict[tuple, "KeyDistribution"] = {}


@dataclass(frozen=True)
class DatasetSpec:
    """Specification of one Table I dataset and its synthetic equivalent.

    Attributes
    ----------
    symbol:
        The paper's short symbol (WP, TW, ...).
    paper_messages / paper_keys / paper_p1_percent:
        The values reported in Table I; the ``table1`` harness compares
        them against the generated streams in EXPERIMENTS.md
        (regenerated from ``results/`` by ``python -m repro.reports``).
    num_keys / default_messages:
        The scaled key-universe and default stream length used here.
    kind:
        ``"zipf"`` (p1-calibrated), ``"lognormal"`` (paper parameters),
        or ``"drift"`` (CT: Zipf + epochal popularity drift).
    params:
        Extra parameters for the generator (mu/sigma, drift settings).
    """

    symbol: str
    description: str
    paper_messages: float
    paper_keys: float
    paper_p1_percent: float
    num_keys: int
    default_messages: int
    kind: str = "zipf"
    params: Dict[str, float] = field(default_factory=dict)

    def distribution(self) -> KeyDistribution:
        """The stationary key distribution of this dataset.

        For drift datasets the *stationary* head probability is boosted
        by ``params["p1_boost"]``: drift rotates which key is hottest,
        so the whole-stream (Table I) head probability is diluted by
        roughly the number of distinct heads; the boost compensates so
        the measured global p1 matches the paper.

        Memoized on the fields it reads: distributions are stateless
        parameter objects (sampling takes an external rng), and the
        Zipf-exponent calibration is iterative -- sweep cells calling
        this per cell must not each pay for it.
        """
        key = (
            self.kind,
            self.paper_p1_percent,
            self.num_keys,
            tuple(sorted(self.params.items())),
        )
        cached = _DISTRIBUTION_CACHE.get(key)
        if cached is not None:
            return cached
        dist = self._build_distribution()
        _DISTRIBUTION_CACHE[key] = dist
        return dist

    def _build_distribution(self) -> KeyDistribution:
        target_p1 = self.paper_p1_percent / 100.0
        if self.kind == "drift":
            target_p1 = min(0.99, target_p1 * float(self.params.get("p1_boost", 1.0)))
        if self.kind in ("zipf", "drift"):
            exponent = calibrate_zipf_exponent(self.num_keys, target_p1)
            return ZipfKeyDistribution(exponent, self.num_keys)
        if self.kind == "lognormal":
            return LogNormalKeyDistribution(
                mu=self.params["mu"],
                sigma=self.params["sigma"],
                num_keys=self.num_keys,
            )
        raise ValueError(f"unknown dataset kind: {self.kind!r}")

    def stream(self, num_messages: Optional[int] = None, seed: int = 0) -> np.ndarray:
        """Generate a key stream (int64 key ids) for this dataset."""
        m = self.default_messages if num_messages is None else int(num_messages)
        if m < 0:
            raise ValueError(f"num_messages must be >= 0, got {m}")
        dist = self.distribution()
        if self.kind == "drift":
            # Epochs scale with the stream so a scaled-down run drifts
            # as many times as the full-size one.
            num_epochs = int(self.params.get("num_epochs", 5))
            drifter = DriftingKeyStream(
                dist,
                epoch_messages=max(1, m // num_epochs),
                drift_fraction=float(self.params.get("drift_fraction", 0.2)),
                seed=seed,
            )
            return drifter.generate(m)
        return dist.sample(m, np.random.default_rng(seed))

    def chunk_source(
        self,
        num_messages: Optional[int] = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "cdf",
    ) -> ChunkSource:
        """A bounded-memory chunk source for this dataset's stream.

        For stationary datasets (zipf/lognormal) this samples chunk by
        chunk, and with ``method="cdf"`` the concatenated chunks are
        **byte-identical** to :meth:`stream` under the same seed (the
        generator's uniforms concatenate exactly; the test suite
        asserts it).  Drift datasets (CT) consume randomness in
        whole-stream order -- all epoch ranks first, then per-epoch
        victims -- so chunk-wise generation cannot reproduce
        :meth:`stream` byte for byte; they fall back to a materialised
        :class:`~repro.core.chunks.ArrayChunkSource` over the exact
        :meth:`stream` output instead.
        """
        m = self.default_messages if num_messages is None else int(num_messages)
        if m < 0:
            raise ValueError(f"num_messages must be >= 0, got {m}")
        if self.kind == "drift":
            return ArrayChunkSource(
                self.stream(m, seed=seed), seed=seed, chunk_size=chunk_size
            )
        return self.distribution().chunk_source(
            m, seed=seed, chunk_size=chunk_size, method=method
        )

    def iter_stream(
        self,
        num_messages: Optional[int] = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[np.ndarray]:
        """Stream this dataset chunk by chunk in bounded memory.

        ``np.concatenate(list(iter_stream(m, seed)))`` equals
        ``stream(m, seed)`` byte for byte, for every dataset kind.
        """
        return self.chunk_source(num_messages, seed=seed, chunk_size=chunk_size).chunks()

    @property
    def scale_factor(self) -> float:
        """How much the default stream is shrunk vs. the paper's."""
        return self.default_messages / self.paper_messages

    def measured_p1(self, keys: np.ndarray) -> float:
        """Empirical head probability of a generated stream."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return 0.0
        counts = np.bincount(keys)
        return float(counts.max() / keys.size)


DATASETS: Dict[str, DatasetSpec] = {
    "WP": DatasetSpec(
        symbol="WP",
        description="Wikipedia page-visit log (synthetic, p1-calibrated Zipf)",
        paper_messages=22e6,
        paper_keys=2.9e6,
        paper_p1_percent=9.32,
        num_keys=50_000,
        default_messages=1_000_000,
    ),
    "TW": DatasetSpec(
        symbol="TW",
        description="Twitter word stream (synthetic, p1-calibrated Zipf)",
        paper_messages=1.2e9,
        paper_keys=31e6,
        paper_p1_percent=2.67,
        num_keys=100_000,
        default_messages=1_000_000,
    ),
    "CT": DatasetSpec(
        symbol="CT",
        description="Twitter cashtags with popularity drift (synthetic)",
        paper_messages=690e3,
        paper_keys=2.9e3,
        paper_p1_percent=3.29,
        num_keys=2_900,
        default_messages=690_000,
        kind="drift",
        # The paper's CT span is ~600 hours (~3.5 weeks) and "popular
        # cash tags change from week to week": 5 drift epochs.  The
        # boost compensates the dilution of the whole-stream p1 caused
        # by the head keys rotating (see DatasetSpec.distribution).
        params={"num_epochs": 5, "drift_fraction": 0.2, "p1_boost": 5.0},
    ),
    "LN1": DatasetSpec(
        symbol="LN1",
        description="Log-normal synthetic 1 (Orkut-calibrated, paper params)",
        paper_messages=10e6,
        paper_keys=16e3,
        paper_p1_percent=14.71,
        num_keys=16_000,
        default_messages=1_000_000,
        kind="lognormal",
        params={"mu": 1.789, "sigma": 2.366},
    ),
    "LN2": DatasetSpec(
        symbol="LN2",
        description="Log-normal synthetic 2 (Orkut-calibrated, paper params)",
        paper_messages=10e6,
        paper_keys=1.1e3,
        paper_p1_percent=7.01,
        num_keys=1_100,
        default_messages=1_000_000,
        kind="lognormal",
        params={"mu": 2.245, "sigma": 1.133},
    ),
    "LJ": DatasetSpec(
        symbol="LJ",
        description="LiveJournal-like edge stream (synthetic scale-free digraph)",
        paper_messages=69e6,
        paper_keys=4.9e6,
        paper_p1_percent=0.29,
        num_keys=200_000,
        default_messages=1_000_000,
    ),
    "SL1": DatasetSpec(
        symbol="SL1",
        description="Slashdot0811-like edge stream (synthetic scale-free digraph)",
        paper_messages=905e3,
        paper_keys=77e3,
        paper_p1_percent=3.28,
        num_keys=77_000,
        default_messages=905_000,
    ),
    "SL2": DatasetSpec(
        symbol="SL2",
        description="Slashdot0902-like edge stream (synthetic scale-free digraph)",
        paper_messages=948e3,
        paper_keys=82e3,
        paper_p1_percent=3.11,
        num_keys=82_000,
        default_messages=948_000,
    ),
}


def get_dataset(symbol: str) -> DatasetSpec:
    """Look up a dataset spec by its Table I symbol (case-insensitive)."""
    try:
        return DATASETS[symbol.upper()]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {symbol!r}; known: {known}") from None


def list_datasets() -> list:
    """All registered dataset symbols in Table I order."""
    return list(DATASETS)


def dataset_stream(
    symbol: str, num_messages: Optional[int] = None, seed: int = 0
) -> np.ndarray:
    """Shorthand for ``get_dataset(symbol).stream(...)``."""
    return get_dataset(symbol).stream(num_messages, seed=seed)
