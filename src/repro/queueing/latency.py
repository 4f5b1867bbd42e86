"""A compact, mergeable percentile store for per-message latencies.

The queueing simulator observes one sojourn time per completed message;
a latency evaluation sweeping offered load for every scheme cannot
afford to keep them all.  :class:`LatencyStore` is a log-bucketed
histogram in the DDSketch family (Masson et al., VLDB 2019): values are
counted in geometrically-spaced buckets ``(gamma^(i-1), gamma^i]`` with
``gamma = (1 + e) / (1 - e)``, which guarantees every quantile estimate
is within **relative error** ``e`` of an actual sample at that rank.

Properties the evaluation layer relies on (and the test suite proves):

* **bounded relative error** -- ``quantile(q)`` returns a value ``v``
  with ``|v - x| <= e * x`` for the sample ``x`` at rank ``q``;
* **mergeable** -- bucket counts are keyed by index, so
  ``a.merge(b)`` holds exactly the buckets of the concatenated stream:
  merge-then-query equals query-of-concat, and merging is associative
  and commutative (per-worker stores combine into one cluster store in
  any order);
* **compact** -- memory is one contiguous int64 lane per bucket index
  between the smallest and largest observed sample: spanning
  nanoseconds to hours at 1% error needs < 2100 lanes.  (The dense
  span is what makes :meth:`record_many` one ``np.bincount`` add
  instead of a per-bucket Python loop; serialisation still emits only
  the occupied buckets.)
* **weighted** -- :meth:`record_runs` absorbs ``(value, count)`` runs at
  the cost of one sample per run, into exactly the buckets ``count``
  separate samples would fill (the runtime's workers record one run
  per flush stamp).

Counts, min, max and the total are exact; only quantiles and the mean's
bucket placement are approximate (the mean itself is tracked exactly).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = ["LatencyStore", "DEFAULT_RELATIVE_ERROR"]

#: 1% relative error: indistinguishable on a latency-vs-load curve.
DEFAULT_RELATIVE_ERROR = 0.01


class LatencyStore:
    """Bounded-relative-error quantile sketch over positive latencies."""

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_bucket_lo",
        "_bucket_counts",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.relative_error = float(relative_error)
        self._gamma = (1.0 + self.relative_error) / (1.0 - self.relative_error)
        self._log_gamma = math.log(self._gamma)
        #: dense count lanes: ``_bucket_counts[j]`` is the count of
        #: bucket ``_bucket_lo + j``; bucket i covers (gamma^(i-1),
        #: gamma^i].  Empty until the first positive sample.
        self._bucket_lo = 0
        self._bucket_counts: np.ndarray = np.zeros(0, dtype=np.int64)
        #: values <= 0 (a zero sojourn is representable, if unphysical).
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ----------------------------------------------------------

    def record(self, value: float) -> None:
        """Absorb one latency sample."""
        self.record_many(np.asarray([value], dtype=np.float64))

    def record_many(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Absorb a batch of samples (vectorised bucket placement).

        Scalar :meth:`record` delegates here, so both paths place every
        value in exactly the same bucket.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        if bool(np.isnan(arr).any()):
            raise ValueError("cannot record NaN latencies")
        if bool(np.isinf(arr).any()):
            raise ValueError("cannot record infinite latencies")
        positive = arr[arr > 0.0]
        self._zero_count += int(arr.size - positive.size)
        if positive.size:
            indices = np.ceil(np.log(positive) / self._log_gamma).astype(np.int64)
            self._ensure_span(int(indices.min()), int(indices.max()))
            self._bucket_counts += np.bincount(
                indices - self._bucket_lo, minlength=self._bucket_counts.size
            )
        self._count += int(arr.size)
        self._sum += float(arr.sum())
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))

    def record_run(self, value: float, count: int) -> None:
        """Absorb ``count`` samples that all equal ``value``.

        The same sketch as ``record_many`` over ``count`` copies of
        ``value``, at the cost of one sample.  The bucket index comes
        from ``np.log`` like the array path (``math.log`` can differ in
        the last ulp, which would move boundary values).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        if not math.isfinite(value):
            raise ValueError(f"cannot record non-finite latency {value}")
        value = float(value)
        if value > 0.0:
            index = math.ceil(float(np.log(value)) / self._log_gamma)
            self._ensure_span(index, index)
            self._bucket_counts[index - self._bucket_lo] += count
        else:
            self._zero_count += count
        self._count += count
        self._sum += value * count
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def record_runs(
        self,
        values: Union[Sequence[float], np.ndarray],
        counts: Union[Sequence[int], np.ndarray],
    ) -> None:
        """Absorb ``counts[i]`` samples equal to ``values[i]``, for each i.

        Buckets, counts, min and max equal ``record_many(np.repeat(
        values, counts))`` exactly; the sum agrees to float rounding.
        """
        vals = np.asarray(values, dtype=np.float64)
        reps = np.asarray(counts, dtype=np.int64)
        if vals.shape != reps.shape or vals.ndim != 1:
            raise ValueError("values and counts must be 1-d and of one length")
        if reps.size and int(reps.min()) < 0:
            raise ValueError("counts must be >= 0")
        if not bool(reps.all()):
            keep = reps > 0
            vals, reps = vals[keep], reps[keep]
        if vals.size == 0:
            return
        if not bool(np.isfinite(vals).all()):
            raise ValueError("cannot record NaN or infinite latencies")
        positive = vals > 0.0
        total = int(reps.sum())
        if bool(positive.any()):
            indices = np.ceil(np.log(vals[positive]) / self._log_gamma).astype(
                np.int64
            )
            self._ensure_span(int(indices.min()), int(indices.max()))
            self._bucket_counts += np.bincount(
                indices - self._bucket_lo,
                weights=reps[positive],
                minlength=self._bucket_counts.size,
            ).astype(np.int64)
        self._zero_count += total - int(reps[positive].sum())
        self._count += total
        self._sum += float(np.dot(vals, reps))
        self._min = min(self._min, float(vals.min()))
        self._max = max(self._max, float(vals.max()))

    def _ensure_span(self, lo: int, hi: int) -> None:
        """Grow the dense lanes to cover bucket indices ``[lo, hi]``."""
        if self._bucket_counts.size == 0:
            self._bucket_lo = lo
            self._bucket_counts = np.zeros(hi - lo + 1, dtype=np.int64)
            return
        cur_lo = self._bucket_lo
        cur_hi = cur_lo + self._bucket_counts.size - 1
        if lo >= cur_lo and hi <= cur_hi:
            return
        new_lo = min(lo, cur_lo)
        new_hi = max(hi, cur_hi)
        grown = np.zeros(new_hi - new_lo + 1, dtype=np.int64)
        offset = cur_lo - new_lo
        grown[offset : offset + self._bucket_counts.size] = self._bucket_counts
        self._bucket_lo = new_lo
        self._bucket_counts = grown

    # -- merging ------------------------------------------------------------

    def merge(self, other: "LatencyStore") -> "LatencyStore":
        """A new store equivalent to recording both input streams.

        Requires equal ``relative_error`` (bucket boundaries must line
        up).  Exact for counts/min/max; quantiles of the merge equal
        quantiles of the concatenated stream by construction.
        """
        if not isinstance(other, LatencyStore):
            raise TypeError(f"cannot merge LatencyStore with {type(other).__name__}")
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge stores with different relative errors "
                f"({self.relative_error} vs {other.relative_error})"
            )
        merged = LatencyStore(self.relative_error)
        merged._bucket_lo = self._bucket_lo
        merged._bucket_counts = self._bucket_counts.copy()
        if other._bucket_counts.size:
            other_lo = other._bucket_lo
            merged._ensure_span(
                other_lo, other_lo + other._bucket_counts.size - 1
            )
            offset = other_lo - merged._bucket_lo
            merged._bucket_counts[
                offset : offset + other._bucket_counts.size
            ] += other._bucket_counts
        merged._zero_count = self._zero_count + other._zero_count
        merged._count = self._count + other._count
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    @classmethod
    def merge_all(cls, stores: Iterable["LatencyStore"]) -> "LatencyStore":
        """Fold any number of stores (e.g. one per worker) into one."""
        result: Optional[LatencyStore] = None
        for store in stores:
            result = store if result is None else result.merge(store)
        if result is None:
            raise ValueError("merge_all needs at least one store")
        return result

    # -- queries ------------------------------------------------------------

    @property
    def count(self) -> int:
        """Exact number of samples recorded."""
        return self._count

    @property
    def min(self) -> float:
        """Exact minimum sample (inf when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum sample (-inf when empty)."""
        return self._max

    def mean(self) -> float:
        """Exact mean of the recorded samples (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The sample at rank ``q``, within ``relative_error``.

        ``q = 0`` targets the smallest sample, ``q = 1`` the largest;
        the target rank is ``max(1, ceil(q * count))``.  Raises
        :class:`ValueError` on an empty store.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            raise ValueError("cannot query quantiles of an empty LatencyStore")
        rank = max(1, math.ceil(q * self._count))
        if rank <= self._zero_count:
            return 0.0
        cumulative = self._zero_count + np.cumsum(self._bucket_counts)
        pos = int(np.searchsorted(cumulative, rank))
        if pos >= cumulative.size:
            return self._max  # unreachable; counts always sum to _count
        # mid-bucket estimate: gamma^i * (1 - e), within +-e of every
        # value in (gamma^(i-1), gamma^i].
        i = self._bucket_lo + pos
        return (self._gamma ** i) * (1.0 - self.relative_error)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Batch :meth:`quantile` (one bucket walk per query)."""
        return [self.quantile(q) for q in qs]

    def num_buckets(self) -> int:
        """Occupied buckets (what serialisation emits)."""
        return int(np.count_nonzero(self._bucket_counts)) + (
            1 if self._zero_count else 0
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (artifact-friendly)."""
        return {
            "relative_error": self.relative_error,
            "zero_count": self._zero_count,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": {
                str(self._bucket_lo + j): int(c)
                for j, c in enumerate(self._bucket_counts.tolist())
                if c
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyStore":
        store = cls(float(data["relative_error"]))
        occupied = {int(i): int(c) for i, c in data["buckets"].items()}
        if occupied:
            store._ensure_span(min(occupied), max(occupied))
            for i, c in occupied.items():
                store._bucket_counts[i - store._bucket_lo] = c
        store._zero_count = int(data["zero_count"])
        store._count = int(data["count"])
        store._sum = float(data["sum"])
        store._min = math.inf if data["min"] is None else float(data["min"])
        store._max = -math.inf if data["max"] is None else float(data["max"])
        return store

    def __repr__(self) -> str:
        return (
            f"LatencyStore(relative_error={self.relative_error}, "
            f"count={self._count}, buckets={self.num_buckets()})"
        )
