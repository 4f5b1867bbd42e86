"""Transport-path invariants: coalescing never changes *where*.

The coalesced staging buffers and the counting-sort scatter are pure
throughput work -- they may change *when* a message reaches its ring,
never *which* worker it reaches or the order two messages for the same
worker arrive in.  These tests pin that contract as a property over
flush sizes, chunk sizes, schemes, and both backends:

* per-worker **counts** equal :func:`repro.core.engine.replay_stream`'s
  final loads for every registered scheme;
* per-worker **FIFO order** equals the replay's assignment order
  (captured via ``RuntimeConfig(capture_indices=True)``);
* :func:`repro.core.chunks.counting_scatter` is byte-identical to the
  stable ``np.argsort`` it replaced, native kernel and pure-Python
  fallback alike;
* a streaming :class:`~repro.core.chunks.ChunkSource` input routes
  identically to its materialised array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import available_schemes, make_partitioner
from repro.core.chunks import ArrayChunkSource, counting_scatter
from repro.core.engine import replay_stream
from repro.runtime import (
    FaultPlan,
    RuntimeConfig,
    run_runtime,
    runtime_available,
)
from repro.streams.datasets import get_dataset

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

STREAM = get_dataset("WP").stream(6_000, seed=7)

FLUSH_SIZES = (1, 7, 256, 4096)

needs_processes = pytest.mark.skipif(
    not runtime_available(), reason="process spawning or /dev/shm unavailable"
)


def _per_worker_order(result, replay, workers):
    """Assert captured per-worker index sequences equal replay order."""
    for report in result.worker_reports:
        w = report["worker_id"]
        expected = np.flatnonzero(replay.assignments == w)
        np.testing.assert_array_equal(report["indices"], expected)
    assert workers == len(result.worker_reports)


class TestFlushInvariance:
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    @pytest.mark.parametrize("flush_size", FLUSH_SIZES)
    def test_counts_and_fifo_order_all_schemes(self, scheme, flush_size):
        workers = 4
        partitioner = make_partitioner(scheme, workers, seed=42)
        result = run_runtime(
            STREAM,
            partitioner,
            RuntimeConfig(
                mode="simulated", flush_size=flush_size, capture_indices=True
            ),
        )
        replay = replay_stream(
            STREAM,
            make_partitioner(scheme, workers, seed=42),
            keep_assignments=True,
        )
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        _per_worker_order(result, replay, workers)

    @given(
        flush_size=st.sampled_from(FLUSH_SIZES),
        chunk_size=st.sampled_from((64, 1_000, 4_096, 65_536)),
        scheme=st.sampled_from(("pkg", "kg", "sg", "jbsq")),
        workers=st.sampled_from((2, 4)),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_flush_by_chunk_grid(
        self, flush_size, chunk_size, scheme, workers
    ):
        """Counts + FIFO order hold on every flush x chunk grid."""
        keys = STREAM[:3_000]
        partitioner = make_partitioner(scheme, workers, seed=1)
        result = run_runtime(
            keys,
            partitioner,
            RuntimeConfig(
                mode="simulated",
                flush_size=flush_size,
                chunk_size=chunk_size,
                capture_indices=True,
            ),
        )
        replay = replay_stream(
            keys,
            make_partitioner(scheme, workers, seed=1),
            chunk_size=chunk_size,
            keep_assignments=True,
        )
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        _per_worker_order(result, replay, workers)

    @pytest.mark.parametrize("flush_size", [1, 256, 8192])
    @needs_processes
    def test_process_backend_fifo_order(self, flush_size):
        workers = 2
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", workers, seed=42),
            RuntimeConfig(
                mode="process", flush_size=flush_size, capture_indices=True
            ),
        )
        replay = replay_stream(
            STREAM,
            make_partitioner("pkg", workers, seed=42),
            keep_assignments=True,
        )
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        _per_worker_order(result, replay, workers)

    def test_flush_smaller_than_capacity_still_sheds_on_drop(self):
        # "drop" relies on full rings: a flush larger than capacity is
        # clamped by the push path, so shedding still happens and the
        # accounting identity holds at any flush size.
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 2, seed=42),
            RuntimeConfig(
                mode="simulated", policy="drop", capacity=128, flush_size=4096
            ),
        )
        assert result.dropped > 0
        np.testing.assert_array_equal(
            result.worker_loads + result.dropped_per_worker,
            result.routed_loads,
        )


class TestStageBreakdown:
    def test_stage_seconds_present_and_positive(self):
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            RuntimeConfig(mode="simulated"),
        )
        assert set(result.stage_seconds) == {
            "route", "scatter", "flush_stall", "drain", "recovery"
        }
        for stage, seconds in result.stage_seconds.items():
            assert seconds >= 0.0, stage
        assert abs(
            result.wall_seconds - sum(result.stage_seconds.values())
        ) <= 1e-3
        assert result.transport_overhead_ratio >= 1.0
        assert result.flushes >= 4  # at least one flush per worker

    @pytest.mark.parametrize(
        "mode", [pytest.param("process", marks=needs_processes), "simulated"]
    )
    @pytest.mark.parametrize("streaming", [False, True])
    @pytest.mark.parametrize("fault", [None, "kill:w=1@n=2000"])
    def test_stages_partition_the_wall_clock(self, mode, streaming, fault):
        # Every wall second lands in exactly one stage -- including the
        # time a ChunkSource spends generating its next chunk (route)
        # and a kill's assessment, respawn and replay (recovery).
        n = 200_000
        spec = get_dataset("WP")
        keys = spec.chunk_source(n, seed=3) if streaming else spec.stream(n, seed=3)
        config = RuntimeConfig(
            mode=mode,
            liveness_deadline=2.0,
            recovery="restart",
            faults=None if fault is None else FaultPlan.parse([fault], seed=3),
        )
        result = run_runtime(keys, make_partitioner("pkg", 4, seed=3), config)
        assert result.status == "ok", result.failures
        assert result.restarts == (0 if fault is None else 1)
        stages = result.stage_seconds
        assert abs(result.wall_seconds - sum(stages.values())) <= 1e-3, stages

    def test_flush_count_scales_with_flush_size(self):
        small = run_runtime(
            STREAM,
            make_partitioner("sg", 2, seed=42),
            RuntimeConfig(mode="simulated", flush_size=64),
        )
        large = run_runtime(
            STREAM,
            make_partitioner("sg", 2, seed=42),
            RuntimeConfig(mode="simulated", flush_size=8192),
        )
        assert small.flushes > large.flushes
        np.testing.assert_array_equal(small.worker_loads, large.worker_loads)

    def test_flush_size_validated(self):
        with pytest.raises(ValueError, match="flush_size"):
            RuntimeConfig(flush_size=0)


class TestCountingScatter:
    def _reference(self, dest, num_buckets, base):
        counts = np.bincount(dest, minlength=num_buckets)
        boundaries = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        order = np.argsort(dest, kind="stable").astype(np.int64) + base
        return counts, boundaries, order

    @pytest.mark.parametrize("base", [0, 5, 131_072])
    def test_matches_stable_argsort(self, base):
        rng = np.random.default_rng(3)
        dest = rng.integers(0, 8, size=50_000).astype(np.int64)
        counts, boundaries, grouped = counting_scatter(dest, 8, base=base)
        ref_counts, ref_bounds, ref_order = self._reference(dest, 8, base)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(boundaries, ref_bounds)
        np.testing.assert_array_equal(grouped, ref_order)

    def test_python_fallback_identical(self, monkeypatch):
        rng = np.random.default_rng(9)
        dest = rng.integers(0, 5, size=20_000).astype(np.int64)
        native = counting_scatter(dest, 5, base=17)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        fallback = counting_scatter(dest, 5, base=17)
        for a, b in zip(native, fallback):
            np.testing.assert_array_equal(a, b)

    def test_empty_chunk(self):
        counts, boundaries, grouped = counting_scatter(
            np.empty(0, dtype=np.int64), 3
        )
        assert counts.tolist() == [0, 0, 0]
        assert boundaries.tolist() == [0, 0, 0, 0]
        assert grouped.size == 0

    def test_single_bucket_preserves_order(self):
        dest = np.zeros(100, dtype=np.int64)
        _, _, grouped = counting_scatter(dest, 1, base=40)
        np.testing.assert_array_equal(grouped, np.arange(40, 140))

    def test_out_of_range_destination_raises(self):
        with pytest.raises(ValueError):
            counting_scatter(np.array([0, 3], dtype=np.int64), 2)

    @given(
        st.lists(st.integers(min_value=0, max_value=6), max_size=500),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_grouped_is_stable_permutation(self, dests, base):
        dest = np.asarray(dests, dtype=np.int64)
        counts, boundaries, grouped = counting_scatter(dest, 7, base=base)
        assert int(counts.sum()) == dest.size
        ref = np.argsort(dest, kind="stable") + base
        np.testing.assert_array_equal(grouped, ref)
        # Boundary slices really do partition by destination.
        for w in range(7):
            lo, hi = boundaries[w], boundaries[w + 1]
            assert np.all(dest[grouped[lo:hi] - base] == w)


class TestChunkSourceInput:
    @pytest.mark.parametrize("mode", ["simulated"])
    def test_streaming_counts_equal_materialized(self, mode):
        spec = get_dataset("WP")
        source = spec.chunk_source(6_000, seed=7, chunk_size=1_000)
        result = run_runtime(
            source,
            make_partitioner("pkg", 4, seed=42),
            RuntimeConfig(mode=mode, chunk_size=1_000),
        )
        keys = source.materialize()
        replay = replay_stream(
            keys, make_partitioner("pkg", 4, seed=42), chunk_size=1_000
        )
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        assert result.processed == 6_000

    @needs_processes
    def test_streaming_process_backend(self):
        source = ArrayChunkSource(STREAM, chunk_size=2_048)
        result = run_runtime(
            source,
            make_partitioner("jbsq", 2, seed=42),
            RuntimeConfig(mode="process", chunk_size=2_048),
        )
        replay = replay_stream(
            STREAM, make_partitioner("jbsq", 2, seed=42), chunk_size=2_048
        )
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)

    def test_replay_stream_accepts_source_directly(self):
        source = ArrayChunkSource(STREAM[:4_000], chunk_size=512)
        from_source = replay_stream(
            source, make_partitioner("kg", 3, seed=5), chunk_size=512
        )
        from_array = replay_stream(
            STREAM[:4_000], make_partitioner("kg", 3, seed=5), chunk_size=512
        )
        np.testing.assert_array_equal(
            from_source.final_loads, from_array.final_loads
        )
        np.testing.assert_array_equal(
            from_source.imbalance_series, from_array.imbalance_series
        )
