"""repro.core.engine: the unified chunked replay engine."""

import numpy as np
import pytest

from repro.api import make_partitioner
from repro.core.engine import (
    EventLoop,
    InterleavedRouter,
    replay_interleaved,
    replay_per_source,
    replay_stream,
    route_chunked,
)
from repro.hashing import HashFamily
from repro.core.metrics import load_series
from repro.streams.distributions import ZipfKeyDistribution


def zipf_keys(n=15_000, seed=2):
    return ZipfKeyDistribution(1.5, 2_000).sample(n, np.random.default_rng(seed))


class TestReplayStream:
    def test_chunk_size_invariance(self):
        keys = zipf_keys()
        results = [
            replay_stream(
                keys,
                make_partitioner("pkg", 8, seed=1),
                chunk_size=size,
                keep_assignments=True,
            )
            for size in (64, 4_096, 1_000_000)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].assignments, other.assignments)
            assert np.array_equal(results[0].final_loads, other.final_loads)
            assert np.array_equal(
                results[0].imbalance_series, other.imbalance_series
            )

    def test_metrics_match_batch_definition(self):
        keys = zipf_keys(5_000)
        result = replay_stream(
            keys, make_partitioner("kg", 5, seed=3), keep_assignments=True
        )
        positions, series = load_series(result.assignments, 5)
        assert np.array_equal(result.checkpoint_positions, positions)
        assert np.array_equal(result.imbalance_series, series)
        assert np.array_equal(
            result.final_loads, np.bincount(result.assignments, minlength=5)
        )

    def test_assignments_dropped_by_default(self):
        result = replay_stream(zipf_keys(1_000), make_partitioner("sg", 4))
        assert result.assignments is None
        assert result.final_loads.sum() == 1_000

    def test_timestamp_length_validated(self):
        with pytest.raises(ValueError):
            replay_stream(
                zipf_keys(10),
                make_partitioner("kg", 3),
                timestamps=np.zeros(5),
            )


class TestReplayPerSource:
    def test_merges_in_arrival_order(self):
        keys = zipf_keys(4_000)
        built = []

        def factory(s):
            p = make_partitioner("sg", 4)
            built.append(p)
            return p

        result, partitioners = replay_per_source(
            keys, factory, 4, num_sources=3, keep_assignments=True
        )
        assert partitioners == built
        assert len(partitioners) == 3
        assert result.final_loads.sum() == keys.size
        # Round-robin split: source s handles messages s, s+3, s+6, ...
        source_ids = np.arange(keys.size) % 3
        for s in range(3):
            sub = result.assignments[source_ids == s]
            # each SG source cycles independently from worker 0
            assert np.array_equal(sub[:8] % 4, np.arange(8) % 4)

    def test_source_ids_validated(self):
        with pytest.raises(ValueError):
            replay_per_source(
                zipf_keys(10),
                lambda s: make_partitioner("kg", 3),
                3,
                num_sources=2,
                source_ids=np.zeros(4, dtype=np.int64),
            )


class TestInterleavedRouter:
    @pytest.mark.parametrize("mode", ["local", "global", "probing"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_per_message_reference(self, mode, d):
        keys = zipf_keys(6_000)
        family = HashFamily(size=d, seed=8)
        choices = family.choice_matrix(keys, 5)
        num_sources = 4
        sources = np.arange(keys.size, dtype=np.int64) % num_sources
        times = np.arange(keys.size, dtype=np.float64)
        probe_period = 750.0 if mode == "probing" else 0.0

        # Straight-line reference: per-message dict-of-lists replay.
        true_loads = [0] * 5
        views = (
            [true_loads] * num_sources
            if mode == "global"
            else [[0] * 5 for _ in range(num_sources)]
        )
        next_probe = [probe_period] * num_sources
        expected = np.empty(keys.size, dtype=np.int64)
        for i in range(keys.size):
            s = int(sources[i])
            view = views[s]
            if mode == "probing" and times[i] >= next_probe[s]:
                view = views[s] = true_loads.copy()
                while next_probe[s] <= times[i]:
                    next_probe[s] += probe_period
            cands = choices[i]
            best = int(cands[0])
            for c in cands[1:]:
                if view[c] < view[best]:
                    best = int(c)
            view[best] += 1
            if view is not true_loads:
                true_loads[best] += 1
            expected[i] = best

        result = replay_interleaved(
            choices,
            sources,
            num_sources,
            5,
            mode=mode,
            probe_period=probe_period,
            timestamps=times if mode == "probing" else None,
            chunk_size=1_111,
            keep_assignments=True,
        )
        assert np.array_equal(result.assignments, expected)
        assert np.array_equal(
            result.final_loads, np.bincount(expected, minlength=5)
        )

    def test_probing_requires_period(self):
        with pytest.raises(ValueError):
            InterleavedRouter(2, 4, mode="probing", probe_period=0.0)

    @pytest.mark.parametrize("bad_source", [-1, 2])
    def test_out_of_range_source_ids_rejected(self, bad_source):
        # Out-of-range ids would be out-of-bounds writes in the C
        # kernel's views matrix; they must be rejected before dispatch.
        router = InterleavedRouter(2, 4)
        choices = np.zeros((3, 2), dtype=np.int64)
        sources = np.array([0, bad_source, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="source ids"):
            router.route(choices, sources)

    def test_out_of_range_choices_rejected(self):
        keys = np.zeros((5, 2), dtype=np.int64)
        bad = keys.copy()
        bad[3, 1] = 7
        with pytest.raises(ValueError, match="choice_matrix"):
            replay_interleaved(bad, np.zeros(5, dtype=np.int64), 1, 4)

    def test_negative_source_ids_rejected_by_adapter(self):
        from repro.core.engine import simulate_multisource_pkg

        with pytest.raises(ValueError, match="source"):
            simulate_multisource_pkg(
                np.arange(6, dtype=np.int64),
                num_workers=3,
                num_sources=2,
                source_ids=np.array([0, -1, 0, 1, 0, 1], dtype=np.int64),
            )

    def test_zero_sources_rejected(self):
        with pytest.raises(ValueError, match="num_sources"):
            replay_per_source(
                np.arange(1000),
                lambda s: make_partitioner("kg", 4),
                4,
                num_sources=0,
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            InterleavedRouter(2, 4, mode="telepathy")


class TestEventLoop:
    def test_deterministic_tie_break_by_schedule_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(1.0, lambda: order.append("b"))
        loop.schedule(0.5, lambda: order.append("c"))
        loop.run_until(2.0)
        assert order == ["c", "a", "b"]
        assert loop.now == 2.0
        assert loop.total_events_processed == 3

    def test_rejects_past_scheduling(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_max_events_zero_processes_nothing(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        assert loop.run_until(5.0, max_events=0) == 0
        assert fired == []
        assert loop.total_events_processed == 0
        # the skipped event must still be pending, not silently lost.
        assert loop.run_until(5.0) == 1
        assert fired == [1]

    def test_max_events_early_stop_keeps_clock_and_pending_events(self):
        loop = EventLoop()
        order = []
        for label, delay in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            loop.schedule(delay, lambda label=label: order.append(label))
        assert loop.run_until(10.0, max_events=2) == 2
        assert order == ["a", "b"]
        # stopping on the budget must NOT fast-forward the clock past
        # the still-pending event at t=3.0.
        assert loop.now == 2.0
        assert loop.run_until(10.0) == 1
        assert order == ["a", "b", "c"]
        assert loop.now == 10.0
        assert loop.total_events_processed == 3

    def test_max_events_exact_budget_still_advances_clock(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        # budget not exhausted by the heap: clock reaches end_time.
        assert loop.run_until(5.0, max_events=3) == 1
        assert loop.now == 5.0

    def test_negative_max_events_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.run_until(1.0, max_events=-1)
        with pytest.raises(ValueError):
            loop.run(max_events=-1)

    def test_run_drains_heap_including_chained_events(self):
        loop = EventLoop()
        order = []

        def first():
            order.append("first")
            loop.schedule(1.0, lambda: order.append("chained"))

        loop.schedule(1.0, first)
        assert loop.run() == 2
        assert order == ["first", "chained"]
        assert loop.now == 2.0

    def test_run_with_max_events_leaves_remainder(self):
        loop = EventLoop()
        order = []
        for label, delay in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            loop.schedule(delay, lambda label=label: order.append(label))
        assert loop.run(max_events=1) == 1
        assert order == ["a"]
        assert loop.now == 1.0
        assert loop.run() == 2
        assert order == ["a", "b", "c"]
        assert loop.total_events_processed == 3


class TestRouteChunked:
    def test_equals_single_chunk_route(self):
        keys = zipf_keys(3_000)
        a = route_chunked(keys, make_partitioner("pkg", 6, seed=5), chunk_size=250)
        b = make_partitioner("pkg", 6, seed=5).route_chunk(keys)
        assert np.array_equal(a, b)
