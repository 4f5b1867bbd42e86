"""Property-based tests for the log-bucketed latency sketch.

The :class:`~repro.queueing.latency.LatencyStore` carries every
percentile the latency evaluation reports, so its two contracts are
load-bearing and tested as *properties* over arbitrary inputs:

* **bounded relative error** -- any quantile estimate is within the
  configured relative error of the exact order-statistic value;
* **exact mergeability** -- merging stores and then querying gives
  byte-identical answers to querying a store fed the concatenated
  samples, in any merge order (associative + commutative), which is
  what lets per-worker sketches combine into cluster-wide curves and
  parallel sweep shards stay byte-identical with serial runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing import DEFAULT_RELATIVE_ERROR, LatencyStore

# Positive sojourn-like magnitudes spanning microseconds to kiloseconds.
samples_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)
quantile_strategy = st.floats(min_value=0.0, max_value=0.999)


def exact_quantile(values, q):
    """The order statistic the sketch's rank walk targets."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


class TestRelativeErrorBound:
    @given(samples_strategy, quantile_strategy)
    @settings(max_examples=200)
    def test_quantile_within_relative_error(self, values, q):
        store = LatencyStore()
        store.record_many(np.asarray(values))
        estimate = store.quantile(q)
        exact = exact_quantile(values, q)
        # tiny slack: estimates sit exactly on the bound at bucket edges.
        assert abs(estimate - exact) <= DEFAULT_RELATIVE_ERROR * exact * (1 + 1e-9)

    @given(samples_strategy)
    @settings(max_examples=100)
    def test_exact_aggregates(self, values):
        store = LatencyStore()
        store.record_many(np.asarray(values))
        assert store.count == len(values)
        assert store.min == pytest.approx(min(values))
        assert store.max == pytest.approx(max(values))
        assert store.mean() == pytest.approx(float(np.mean(values)))

    @given(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=100)
    def test_configurable_error_bound(self, value, relative_error):
        store = LatencyStore(relative_error)
        store.record(value)
        assert store.quantile(0.5) == pytest.approx(
            value, rel=relative_error * (1 + 1e-9)
        )


class TestMergeSemantics:
    @given(samples_strategy, samples_strategy, quantile_strategy)
    @settings(max_examples=200)
    def test_merge_equals_concat(self, a, b, q):
        """merge-then-query == query-of-concatenation, exactly."""
        sa, sb = LatencyStore(), LatencyStore()
        sa.record_many(np.asarray(a))
        sb.record_many(np.asarray(b))
        merged = sa.merge(sb)

        concat = LatencyStore()
        concat.record_many(np.asarray(a + b))
        assert merged.quantile(q) == concat.quantile(q)
        assert merged.count == concat.count
        assert merged.mean() == pytest.approx(concat.mean())

    @given(samples_strategy, samples_strategy, quantile_strategy)
    @settings(max_examples=100)
    def test_merge_commutes(self, a, b, q):
        sa, sb = LatencyStore(), LatencyStore()
        sa.record_many(np.asarray(a))
        sb.record_many(np.asarray(b))
        assert sa.merge(sb).quantile(q) == sb.merge(sa).quantile(q)

    @given(samples_strategy, samples_strategy, samples_strategy, quantile_strategy)
    @settings(max_examples=100)
    def test_merge_associates(self, a, b, c, q):
        stores = []
        for values in (a, b, c):
            s = LatencyStore()
            s.record_many(np.asarray(values))
            stores.append(s)
        sa, sb, sc = stores
        left = sa.merge(sb).merge(sc)
        right = sa.merge(sc.merge(sb))
        assert left.quantile(q) == right.quantile(q)
        assert left.count == right.count

    @given(samples_strategy)
    @settings(max_examples=50)
    def test_merge_all_equals_pairwise(self, values):
        # one store per sample vs one store with all samples.
        singles = []
        for v in values:
            s = LatencyStore()
            s.record(v)
            singles.append(s)
        combined = LatencyStore.merge_all(singles)
        direct = LatencyStore()
        direct.record_many(np.asarray(values))
        assert combined.quantile(0.99) == direct.quantile(0.99)
        assert combined.count == direct.count

    def test_merge_requires_matching_error(self):
        with pytest.raises(ValueError):
            LatencyStore(0.01).merge(LatencyStore(0.02))


class TestBulkEquivalence:
    """Vectorized record_many == a loop of scalar record calls.

    The bulk path accumulates bucket hits through one ``np.bincount``
    over the dense lanes; buckets, counts, min/max and every quantile
    must equal the scalar path exactly.  Only the running ``sum`` may
    differ in the last ulp (numpy's pairwise summation vs sequential
    adds), so it is compared under a tight relative tolerance instead.
    """

    @given(samples_strategy)
    @settings(max_examples=200)
    def test_bulk_equals_scalar_loop(self, values):
        bulk = LatencyStore()
        bulk.record_many(np.asarray(values))
        scalar = LatencyStore()
        for v in values:
            scalar.record(v)

        bulk_state = bulk.to_dict()
        scalar_state = scalar.to_dict()
        bulk_sum = bulk_state.pop("sum")
        scalar_sum = scalar_state.pop("sum")
        assert bulk_state == scalar_state  # buckets, counts, min, max
        assert math.isclose(bulk_sum, scalar_sum, rel_tol=1e-12)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert bulk.quantile(q) == scalar.quantile(q)

    @given(samples_strategy, samples_strategy)
    @settings(max_examples=100)
    def test_interleaved_bulk_and_scalar(self, a, b):
        # Bulk after scalar (and vice versa) lands in the same buckets.
        mixed = LatencyStore()
        for v in a:
            mixed.record(v)
        mixed.record_many(np.asarray(b))
        pure = LatencyStore()
        pure.record_many(np.asarray(a + b))
        ms, ps = mixed.to_dict(), pure.to_dict()
        ms.pop("sum"), ps.pop("sum")
        assert ms == ps

    def test_bulk_with_zero_and_negative(self):
        store = LatencyStore()
        store.record_many(np.asarray([-2.0, 0.0, 1e-6, 3.0]))
        scalar = LatencyStore()
        for v in (-2.0, 0.0, 1e-6, 3.0):
            scalar.record(v)
        assert store.num_buckets() == scalar.num_buckets()
        assert store.quantile(0.5) == scalar.quantile(0.5)

    def test_empty_bulk_is_a_noop(self):
        store = LatencyStore()
        store.record_many(np.empty(0))
        assert store.count == 0

    def test_wide_span_grows_dense_lanes_once(self):
        # Nanoseconds and kiloseconds in one call: the dense lane span
        # covers both extremes without disturbing either bucket.
        store = LatencyStore()
        store.record_many(np.asarray([1e-9, 1e3]))
        assert store.count == 2
        assert store.quantile(0.0) == pytest.approx(1e-9, rel=0.011)
        assert store.quantile(1.0) == pytest.approx(1e3, rel=0.011)

    def test_merge_into_empty_both_directions(self):
        filled = LatencyStore()
        filled.record_many(np.asarray([0.1, 0.2, 0.3]))
        empty = LatencyStore()
        left = empty.merge(filled)
        right = filled.merge(LatencyStore())
        assert left.to_dict() == right.to_dict() == filled.to_dict()


def _state(store):
    """``to_dict`` without the float sum (compared to rounding apart)."""
    state = store.to_dict()
    return state, state.pop("sum")


runs_strategy = st.lists(
    st.tuples(
        st.floats(
            min_value=-1.0, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=60,
)


class TestWeightedRuns:
    """``record_runs(values, counts)`` == ``record_many(np.repeat(...))``.

    The runtime's workers record one sojourn per run of equal stamps;
    the sketch they build must be the one a sample per message builds:
    buckets, counts, zero count, min and max exactly, the sum to float
    rounding.
    """

    @given(runs_strategy)
    @settings(max_examples=200)
    def test_runs_equal_repeated_samples(self, runs):
        values = np.array([v for v, _ in runs], dtype=np.float64)
        counts = np.array([c for _, c in runs], dtype=np.int64)
        weighted = LatencyStore()
        weighted.record_runs(values, counts)
        repeated = LatencyStore()
        repeated.record_many(np.repeat(values, counts))
        (w_state, w_sum), (r_state, r_sum) = _state(weighted), _state(repeated)
        assert w_state == r_state
        assert math.isclose(w_sum, r_sum, rel_tol=1e-9, abs_tol=1e-9)
        if repeated.count:
            for q in (0.0, 0.5, 0.99, 1.0):
                assert weighted.quantile(q) == repeated.quantile(q)

    @given(
        st.floats(min_value=-1.0, max_value=1e3, allow_nan=False),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=200)
    def test_single_run_scalar_path(self, value, count):
        scalar = LatencyStore()
        scalar.record_run(value, count)
        vector = LatencyStore()
        vector.record_runs([value], [count])
        repeated = LatencyStore()
        repeated.record_many(np.full(count, value))
        states = [_state(s) for s in (scalar, vector, repeated)]
        assert states[0][0] == states[1][0] == states[2][0]
        for _state_, total in states:
            assert math.isclose(total, states[2][1], rel_tol=1e-9, abs_tol=1e-9)

    def test_bucket_boundaries_place_like_record_many(self):
        # gamma^i and its float neighbours sit on bucket edges, where a
        # different log would move a value one bucket over.
        store = LatencyStore()
        edges = store._gamma ** np.arange(-400, 40, dtype=np.float64)
        values = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
        )
        scalar = LatencyStore()
        for v in values.tolist():
            scalar.record_run(v, 3)
        vector = LatencyStore()
        vector.record_runs(values, np.full(values.size, 3))
        repeated = LatencyStore()
        repeated.record_many(np.repeat(values, 3))
        assert _state(scalar)[0] == _state(vector)[0] == _state(repeated)[0]

    def test_many_runs_with_nonpositive_values(self):
        store = LatencyStore()
        store.record_runs([-2.0, 0.0, 1e-6, 3.0, 1e-6], [1, 4, 2, 5, 3])
        assert store.count == 15
        assert store.to_dict()["zero_count"] == 5
        assert store.min == -2.0 and store.max == 3.0
        assert store.quantile(0.0) == 0.0
        assert store.quantile(1.0) == pytest.approx(3.0, rel=0.011)
        assert store.mean() == pytest.approx((-2.0 + 2e-6 + 15.0 + 3e-6) / 15)

    def test_zero_counts_and_empty_runs_are_noops(self):
        store = LatencyStore()
        store.record_runs([], [])
        store.record_run(5.0, 0)
        # a zero-count value is absent from np.repeat: no min/max either.
        store.record_runs([1e6, 2.0], [0, 1])
        assert store.count == 1
        assert store.min == store.max == 2.0

    def test_rejects_nan_inf_and_bad_counts(self):
        store = LatencyStore()
        store.record_run(1.0, 2)
        before = store.to_dict()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                store.record_run(bad, 1)
            with pytest.raises(ValueError):
                store.record_runs([1.0, bad], [1, 1])
        with pytest.raises(ValueError):
            store.record_run(1.0, -1)
        with pytest.raises(ValueError):
            store.record_runs([1.0], [-1])
        with pytest.raises(ValueError):
            store.record_runs([1.0, 2.0], [1])
        assert store.to_dict() == before  # rejected calls change nothing

    @given(runs_strategy, samples_strategy)
    @settings(max_examples=100)
    def test_merge_after_runs_equals_concat(self, runs, samples):
        values = np.array([v for v, _ in runs], dtype=np.float64)
        counts = np.array([c for _, c in runs], dtype=np.int64)
        a = LatencyStore()
        a.record_runs(values, counts)
        b = LatencyStore()
        b.record_many(np.asarray(samples))
        concat = LatencyStore()
        concat.record_many(np.concatenate([np.repeat(values, counts), samples]))
        for merged in (a.merge(b), b.merge(a)):
            assert _state(merged)[0] == _state(concat)[0]
            for q in (0.0, 0.5, 0.9, 1.0):
                assert merged.quantile(q) == concat.quantile(q)


class TestEdgeCases:
    def test_empty_store_quantile_raises(self):
        store = LatencyStore()
        with pytest.raises(ValueError):
            store.quantile(0.5)
        assert store.count == 0
        assert store.mean() == 0.0

    def test_single_sample_all_quantiles(self):
        store = LatencyStore()
        store.record(0.125)
        for q in (0.0, 0.5, 0.99, 0.999):
            assert store.quantile(q) == pytest.approx(0.125, rel=0.01)

    def test_nonpositive_values_land_in_zero_bucket(self):
        store = LatencyStore()
        store.record_many(np.asarray([0.0, -1.0, 5.0]))
        assert store.count == 3
        assert store.quantile(0.0) == 0.0
        assert store.quantile(0.9) == pytest.approx(5.0, rel=0.01)

    def test_rejects_nan_and_inf(self):
        store = LatencyStore()
        with pytest.raises(ValueError):
            store.record(float("nan"))
        with pytest.raises(ValueError):
            store.record_many(np.asarray([1.0, float("inf")]))

    def test_invalid_quantile_rejected(self):
        store = LatencyStore()
        store.record(1.0)
        # q = 1.0 is valid (the maximum); outside [0, 1] is not.
        assert store.quantile(1.0) == pytest.approx(1.0, rel=0.011)
        with pytest.raises(ValueError):
            store.quantile(1.1)
        with pytest.raises(ValueError):
            store.quantile(-0.1)

    def test_round_trip_dict(self):
        store = LatencyStore()
        store.record_many(np.asarray([0.001, 0.5, 2.0, 2.0]))
        clone = LatencyStore.from_dict(store.to_dict())
        assert clone.count == store.count
        assert clone.quantile(0.99) == store.quantile(0.99)
        assert clone.mean() == pytest.approx(store.mean())
