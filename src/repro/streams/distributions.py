"""Key distributions: the discrete distribution D of Section IV.

Keys are identified with their ranks ``0 .. K-1`` ordered by decreasing
probability (``p1 >= p2 >= ...``), as in the paper.  Every distribution
exposes the probability vector, the head probability ``p1`` (the single
quantity that drives the paper's feasibility threshold ``W = O(1/p1)``),
and fast sampling through a cached inverse-CDF.  With the native
kernels built, the inverse CDF starts each search from a guide table of
``K`` entries, so a draw costs O(1) expected instead of a binary
search's O(log K), and returns the very key ``np.searchsorted`` would.

Two streaming extras feed the runtime's bounded-memory mode:

* :meth:`KeyDistribution.chunk_source` wraps sampling in a
  :class:`~repro.core.chunks.ChunkSource`.  Because ``Generator.random``
  consumes the underlying bit stream sequentially, chunked inverse-CDF
  draws concatenate **byte-identically** to one materialised
  ``sample(m)`` under the same seed -- the property the runtime's
  streaming ``--verify`` rests on.
* :class:`AliasSampler` (Vose's alias method) is the other O(1)-per-draw
  sampler, and the one that stays O(1) without the native kernels: O(K)
  build, one uniform and two table reads per key.  Same rng consumption
  (one ``random()`` per draw) but a *different* mapping from uniforms to
  keys, so it is deterministic under a seed yet not byte-identical to
  the inverse-CDF stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro._native import get_kernels
from repro.core.chunks import DEFAULT_CHUNK_SIZE, ChunkSource


class KeyDistribution(ABC):
    """A discrete distribution over the key universe ``[0, K)``.

    Subclasses implement :meth:`_build_probabilities`; the base class
    caches the probability vector (sorted by decreasing probability),
    its CDF and the CDF's guide table for O(1) expected sampling per
    message (O(log K) on the pure-Python path).
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._cdf: Optional[np.ndarray] = None
        self._guide: Optional[np.ndarray] = None
        self._alias: Optional["AliasSampler"] = None

    @abstractmethod
    def _build_probabilities(self) -> np.ndarray:
        """Return the (unnormalised is fine) probability weights."""

    @property
    def probabilities(self) -> np.ndarray:
        """Probability of each key, sorted in decreasing order."""
        if self._probs is None:
            weights = np.asarray(self._build_probabilities(), dtype=np.float64)
            if weights.ndim != 1 or weights.size == 0:
                raise ValueError("distribution must have at least one key")
            if np.any(weights < 0):
                raise ValueError("key weights must be non-negative")
            total = weights.sum()
            if total <= 0:
                raise ValueError("key weights must have positive total mass")
            probs = weights / total
            # Sort in decreasing order so rank 0 is the hottest key.
            self._probs = np.sort(probs)[::-1].copy()
        return self._probs

    @property
    def num_keys(self) -> int:
        """Size of the key universe, ``K``."""
        return int(self.probabilities.size)

    @property
    def p1(self) -> float:
        """Probability of the most frequent key (the paper's ``p1``)."""
        return float(self.probabilities[0])

    def head_mass(self, top: int) -> float:
        """Total probability of the ``top`` most frequent keys."""
        return float(self.probabilities[:top].sum())

    def entropy(self) -> float:
        """Shannon entropy of the key distribution in nats."""
        p = self.probabilities
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())

    def feasible_workers(self) -> int:
        """The ``O(1/p1)`` upper bound on usefully balanceable workers.

        Section IV: once the number of workers exceeds ``2/p1`` the two
        bins holding the hottest key must become overloaded, so good
        balance with two choices is only possible for ``n <= 2/p1``.
        """
        return int(np.floor(2.0 / self.p1))

    def sample(
        self,
        size: int,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Draw ``size`` i.i.d. keys (as int64 ranks) from D.

        Randomness must be explicit: pass a ``Generator`` via ``rng``
        or an integer ``seed`` (REPRO001 -- an entropy-seeded default
        would break byte-identical artifact replays).
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if rng is None:
            if seed is None:
                raise ValueError(
                    "sample() needs explicit randomness: pass rng=<Generator> "
                    "or seed=<int> (unseeded draws are non-reproducible)"
                )
            rng = np.random.default_rng(seed)
        elif seed is not None:
            raise ValueError("pass either rng or seed, not both")
        return self.invert(rng.random(size))

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The keys at uniforms ``u``: the least ``k`` with
        ``u < cdf[k]``, i.e. ``np.searchsorted(cdf, u, side="right")``.

        The native kernel walks from the guide table ``guide[j] =
        searchsorted(cdf, j / K)``, a lower bound on the answer for every
        ``u`` in bucket ``j``; it returns the same int64 keys as the
        binary search, which runs when the kernels are off.
        """
        if self._cdf is None:
            self._cdf = np.cumsum(self.probabilities)
            self._cdf[-1] = 1.0
        cdf = self._cdf
        u = np.ascontiguousarray(u, dtype=np.float64)
        kernels = get_kernels()
        if kernels is None:
            return np.searchsorted(cdf, u, side="right").astype(np.int64)
        if self._guide is None:
            edges = np.arange(cdf.size, dtype=np.float64) / cdf.size
            self._guide = np.searchsorted(cdf, edges, side="right").astype(np.int64)
        out = np.empty(u.shape, dtype=np.int64)
        kernels.cdf_sample(u, cdf, self._guide, out)
        return out

    def expected_counts(self, num_messages: int) -> np.ndarray:
        """Expected number of occurrences per key in a stream of length m."""
        return self.probabilities * float(num_messages)

    def alias_sampler(self) -> "AliasSampler":
        """The cached Vose alias sampler for this distribution."""
        if self._alias is None:
            self._alias = AliasSampler(self.probabilities)
        return self._alias

    def chunk_source(
        self,
        num_messages: int,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "cdf",
    ) -> "DistributionChunkSource":
        """A bounded-memory :class:`~repro.core.chunks.ChunkSource` of D.

        ``method="cdf"`` draws through the inverse CDF -- byte-identical
        to ``sample(num_messages, seed=seed)`` chunk boundaries or not,
        because sequential ``Generator.random`` calls concatenate
        exactly.  ``method="alias"`` draws through the alias table --
        O(1) per key with or without the native kernels, still
        deterministic under the seed, but a different stream.
        """
        return DistributionChunkSource(
            self, num_messages, seed=seed, chunk_size=chunk_size, method=method
        )


class AliasSampler:
    """Vose's alias method: O(K) build, O(1) per draw.

    The key universe is split into ``K`` equal-mass columns; column
    ``i`` keeps probability ``prob[i]`` of returning key ``i`` and
    hands the rest to ``alias[i]``.  One uniform per draw selects the
    column (integer part) and the branch (fractional part) -- no
    binary search, so sampling cost is independent of ``K``.
    """

    def __init__(self, probabilities: Sequence[float]) -> None:
        p = np.ascontiguousarray(probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        total = float(p.sum())
        if total <= 0 or np.any(p < 0):
            raise ValueError("probabilities must be non-negative with positive mass")
        num_keys = int(p.size)
        scaled = (p / total * num_keys).tolist()
        prob = np.ones(num_keys, dtype=np.float64)
        alias = np.arange(num_keys, dtype=np.int64)
        small = [i for i in range(num_keys) if scaled[i] < 1.0]
        large = [i for i in range(num_keys) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            big = large.pop()
            prob[s] = scaled[s]
            alias[s] = big
            scaled[big] -= 1.0 - scaled[s]
            (small if scaled[big] < 1.0 else large).append(big)
        # Leftovers are exactly-1 columns up to float round-off.
        self._prob = prob
        self._alias = alias
        self.num_keys = num_keys

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. keys (one uniform per draw)."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        u = rng.random(size) * self.num_keys
        idx = u.astype(np.int64)
        # u * K can round up to exactly K in float64; clamp to the
        # last column instead of indexing out of bounds.
        np.minimum(idx, self.num_keys - 1, out=idx)
        frac = u - idx
        return np.where(frac < self._prob[idx], idx, self._alias[idx])


class DistributionChunkSource(ChunkSource):
    """Chunk-wise i.i.d. sampling from a :class:`KeyDistribution`."""

    METHODS = ("cdf", "alias")

    def __init__(
        self,
        distribution: KeyDistribution,
        num_messages: int,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "cdf",
    ) -> None:
        if method not in self.METHODS:
            raise ValueError(
                f"method must be one of {self.METHODS}, got {method!r}"
            )
        super().__init__(num_messages, seed=seed, chunk_size=chunk_size)
        self.distribution = distribution
        self.method = method

    def sample_chunk(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.method == "alias":
            return self.distribution.alias_sampler().sample(size, rng)
        return self.distribution.sample(size, rng)


class ZipfKeyDistribution(KeyDistribution):
    """Zipf (power-law) distribution: ``p_i proportional to i^-s``.

    The canonical model for word frequencies ("the distribution of word
    frequencies follows a Zipf law", Section II-A).
    """

    def __init__(self, exponent: float, num_keys: int):
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        super().__init__()
        self.exponent = float(exponent)
        self._num_keys = int(num_keys)

    def _build_probabilities(self) -> np.ndarray:
        ranks = np.arange(1, self._num_keys + 1, dtype=np.float64)
        return ranks ** (-self.exponent)

    def __repr__(self) -> str:
        return f"ZipfKeyDistribution(exponent={self.exponent}, num_keys={self._num_keys})"


class UniformKeyDistribution(KeyDistribution):
    """Uniform distribution over ``K`` keys.

    The worst case of Theorem 4.2 is the uniform distribution over
    ``5n`` keys; used by the analysis benchmarks.
    """

    def __init__(self, num_keys: int):
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        super().__init__()
        self._num_keys = int(num_keys)

    def _build_probabilities(self) -> np.ndarray:
        return np.full(self._num_keys, 1.0 / self._num_keys)

    def __repr__(self) -> str:
        return f"UniformKeyDistribution(num_keys={self._num_keys})"


class LogNormalKeyDistribution(KeyDistribution):
    """Keys as integer-rounded samples of a log-normal variable.

    The paper's synthetic datasets LN1 (mu=1.789, sigma=2.366) and LN2
    (mu=2.245, sigma=1.133) emulate Orkut workloads [22]: each message's
    key is a log-normal draw rounded to the nearest integer.  The
    probability of key ``k`` is therefore the log-normal mass of the
    interval ``(k - 1/2, k + 1/2]``; this discretisation reproduces the
    head probabilities Table I reports (14.71% for LN1, 7.01% for LN2),
    which a weights-per-key construction cannot.

    ``num_keys`` truncates the (infinite) integer support; the tail mass
    beyond it is renormalised away, which perturbs ``p1`` only in the
    4th decimal for the paper's parameter choices.
    """

    def __init__(self, mu: float, sigma: float, num_keys: int):
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        super().__init__()
        self.mu = float(mu)
        self.sigma = float(sigma)
        self._num_keys = int(num_keys)

    def _build_probabilities(self) -> np.ndarray:
        # P(round(X) = k) = Phi((ln(k+.5)-mu)/sigma) - Phi((ln(k-.5)-mu)/sigma)
        # with the k = 0 bin collecting all mass below 0.5.
        from math import erf, sqrt

        edges = np.arange(self._num_keys, dtype=np.float64) + 0.5
        z = (np.log(edges) - self.mu) / self.sigma
        cdf = 0.5 * (1.0 + np.vectorize(erf)(z / sqrt(2.0)))
        probs = np.empty(self._num_keys, dtype=np.float64)
        probs[0] = cdf[0]
        probs[1:] = np.diff(cdf)
        return probs

    def __repr__(self) -> str:
        return (
            f"LogNormalKeyDistribution(mu={self.mu}, sigma={self.sigma}, "
            f"num_keys={self._num_keys})"
        )


class EmpiricalKeyDistribution(KeyDistribution):
    """A distribution given directly by observed counts or weights."""

    def __init__(self, weights: Sequence[float]):
        super().__init__()
        self._weights = np.asarray(weights, dtype=np.float64)

    def _build_probabilities(self) -> np.ndarray:
        return self._weights

    @classmethod
    def from_stream(cls, keys: np.ndarray) -> "EmpiricalKeyDistribution":
        """Fit the empirical distribution of an observed key stream."""
        counts = np.bincount(np.asarray(keys, dtype=np.int64))
        return cls(counts[counts > 0])

    def __repr__(self) -> str:
        return f"EmpiricalKeyDistribution(num_keys={self._weights.size})"


def zipf_p1(exponent: float, num_keys: int) -> float:
    """Head probability of a Zipf(``exponent``) law over ``num_keys`` keys."""
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    return float(1.0 / (ranks ** (-float(exponent))).sum())


def calibrate_zipf_exponent(
    num_keys: int,
    target_p1: float,
    tolerance: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """Find the Zipf exponent whose head probability matches ``target_p1``.

    This is how the synthetic stand-ins for the paper's datasets are
    built: Table I reports ``p1`` for each dataset, and ``p1`` is the
    statistic that locates the imbalance phase transition (Section IV),
    so we solve for the exponent that reproduces it exactly.

    Uses bisection; ``p1`` is strictly increasing in the exponent, from
    ``1/K`` at 0 towards 1 as the exponent grows.
    """
    if num_keys < 1:
        raise ValueError(f"num_keys must be >= 1, got {num_keys}")
    if not (0.0 < target_p1 < 1.0):
        raise ValueError(f"target_p1 must be in (0, 1), got {target_p1}")
    floor_p1 = 1.0 / num_keys
    if target_p1 < floor_p1:
        raise ValueError(
            f"target p1 {target_p1} is below the uniform floor 1/K = {floor_p1}; "
            f"reduce num_keys or raise target_p1"
        )

    lo, hi = 0.0, 1.0
    while zipf_p1(hi, num_keys) < target_p1:
        hi *= 2.0
        if hi > 64:
            raise RuntimeError("failed to bracket the Zipf exponent")
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        if zipf_p1(mid, num_keys) < target_p1:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            break
    return 0.5 * (lo + hi)
