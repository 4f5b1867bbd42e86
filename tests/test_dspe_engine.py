"""Tests for the event-loop clock and the word-count cluster's mechanics.

``TestSimulator`` pins the :class:`EventLoop` behaviour the cluster
relies on; ``TestExecutors`` checks the spout, worker and aggregator
mechanics through the cluster API on hand-sized configurations.
"""

import numpy as np
import pytest

from repro.core.engine import EventLoop
from repro.queueing.cluster import ClusterConfig, LatencyStats, WordCountCluster
from repro.streams.distributions import UniformKeyDistribution


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = EventLoop()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = EventLoop()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run_until(5.0)
        assert order == [1, 2]

    def test_clock_advances_to_end(self):
        sim = EventLoop()
        sim.run_until(7.5)
        assert sim.now == 7.5

    def test_events_beyond_horizon_not_run(self):
        sim = EventLoop()
        ran = []
        sim.schedule(5.0, lambda: ran.append(1))
        sim.run_until(4.0)
        assert not ran
        sim.run_until(5.0)
        assert ran

    def test_cascading_events(self):
        sim = EventLoop()
        hits = []

        def recurse():
            hits.append(sim.now)
            if len(hits) < 5:
                sim.schedule(1.0, recurse)

        sim.schedule(0.0, recurse)
        sim.run_until(100.0)
        assert hits == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_cannot_schedule_in_past(self):
        sim = EventLoop()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_max_events(self):
        sim = EventLoop()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        processed = sim.run_until(100.0, max_events=3)
        assert processed == 3
        assert sim.pending_events == 7

    def test_event_counter(self):
        sim = EventLoop()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.total_events_processed == 1


class TestLatencyStats:
    def test_mean_exact(self):
        ls = LatencyStats()
        for v in (1.0, 2.0, 3.0):
            ls.record(v)
        assert ls.mean == pytest.approx(2.0)
        assert ls.count == 3
        assert ls.max == 3.0

    def test_percentile_of_empty(self):
        assert LatencyStats().percentile(99) == 0.0

    def test_percentiles_ordered(self):
        ls = LatencyStats()
        for v in range(1000):
            ls.record(float(v))
        assert ls.percentile(50) <= ls.percentile(99)

    def test_reservoir_bounded(self):
        ls = LatencyStats(reservoir_size=100)
        for v in range(10_000):
            ls.record(float(v))
        assert len(ls._reservoir) == 100
        assert ls.count == 10_000


class ScalarReservoir:
    """The per-record reservoir: one scalar slot draw per sample."""

    def __init__(self, reservoir_size, seed):
        self.count, self.mean, self.max = 0, 0.0, 0.0
        self.reservoir = []
        self.size = reservoir_size
        self.rng = np.random.default_rng(seed)

    def record(self, value):
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if value > self.max:
            self.max = value
        if len(self.reservoir) < self.size:
            self.reservoir.append(value)
        else:
            j = int(self.rng.integers(0, self.count))
            if j < self.size:
                self.reservoir[j] = value


class TestBatchedReservoir:
    QS = (0, 1, 50, 99, 100)

    def assert_same(self, batched, scalar):
        expected = [
            float(np.percentile(scalar.reservoir, q)) if scalar.reservoir else 0.0
            for q in self.QS
        ]
        assert [batched.percentile(q) for q in self.QS] == expected
        assert batched._reservoir == scalar.reservoir
        assert (batched.count, batched.mean, batched.max) == (
            scalar.count,
            scalar.mean,
            scalar.max,
        )

    @pytest.mark.parametrize("size", [1, 100, 4096])
    @pytest.mark.parametrize("length", ["0", "size", "size+1", "3*4096+7"])
    def test_matches_scalar_draws(self, size, length):
        n = {"0": 0, "size": size, "size+1": size + 1, "3*4096+7": 3 * 4096 + 7}[
            length
        ]
        values = np.random.default_rng(size + n).exponential(1.0, size=n).tolist()
        batched, scalar = LatencyStats(size, seed=9), ScalarReservoir(size, seed=9)
        for v in values:
            batched.record(v)
            scalar.record(v)
        self.assert_same(batched, scalar)

    @pytest.mark.parametrize("size", [1, 100, 4096])
    def test_percentile_mid_stream_then_more_records(self, size):
        values = np.random.default_rng(4).exponential(1.0, size=3 * 4096 + 7)
        batched, scalar = LatencyStats(size, seed=2), ScalarReservoir(size, seed=2)
        for i, v in enumerate(values.tolist()):
            batched.record(v)
            scalar.record(v)
            if i in (size + 5, 5_000):
                self.assert_same(batched, scalar)
        self.assert_same(batched, scalar)


def one_worker(scheme="sg", keys=1, **overrides):
    """A one-worker cluster on ``keys`` uniform keys, zero hop delay."""
    config = dict(
        num_workers=1,
        cpu_delay=0.01,
        emit_cost=0.001,
        network_delay=0.0,
        max_pending=3,
        duration=1.0,
        warmup=0.0,
    )
    config.update(overrides)
    return WordCountCluster(scheme, UniformKeyDistribution(keys), ClusterConfig(**config))


class TestExecutors:
    def test_spout_respects_max_pending(self):
        # A worker slower than the run: no ack ever returns, so the
        # spout fills its window and stops.
        cluster = one_worker(cpu_delay=1.0, network_delay=0.01, duration=0.5)
        metrics = cluster.run()
        assert cluster.state.emitted == [3]
        assert cluster.state.in_flight == [3]
        assert metrics.worker_loads == [0]

    def test_worker_processes_fifo_and_acks(self):
        cluster = one_worker()
        metrics = cluster.run()
        state = cluster.state
        processed = metrics.worker_loads[0]
        assert processed > 50
        # Every processed tuple was acked back (zero hop delay).
        assert state.emitted[0] - state.in_flight[0] == processed
        assert state.counts[0] == {0: processed}
        # FIFO in a closed window of 3: a tuple emitted when an ack
        # frees a slot finds one tuple in service since that ack and one
        # waiting, so it completes 3 services after the ack, i.e. after
        # 3 * cpu_delay - emit_cost.  A LIFO worker would serve it next
        # and starve an older tuple instead.
        assert metrics.latency.percentile(50) == pytest.approx(3 * 0.01 - 0.001)
        assert metrics.latency.max == pytest.approx(3 * 0.01 - 0.001)

    def test_latency_only_after_warmup(self):
        full = one_worker().run()
        late = one_worker(warmup=0.5).run()
        # Warmup only gates measurement, never the simulation itself.
        assert late.worker_loads == full.worker_loads
        assert late.emitted == full.emitted
        assert 0 < late.completed < full.completed
        assert late.latency.count == late.completed
        assert full.latency.count == full.completed == sum(full.worker_loads)

    def test_aggregator_merges_partials(self):
        cluster = one_worker(
            num_workers=3, keys=5, aggregation_period=0.1, flush_entry_cost=0.0
        )
        metrics = cluster.run()
        state = cluster.state
        # Zero flush cost and hop delay: nothing is in transit at the
        # horizon, so aggregated + live counts are exactly the
        # processed tuples, merged over many flushes from every worker.
        live = sum(sum(c.values()) for c in state.counts)
        assert sum(state.totals.values()) + live == sum(metrics.worker_loads)
        assert set(state.totals) <= set(range(5))
        assert metrics.aggregation_messages > 3 * 5

    def test_worker_flush_ships_partials(self):
        # Flushes at 0.5, 1.0, 1.5 and 2.0 s each ship the one live
        # counter and clear it; the run ends before the next.
        cluster = one_worker(aggregation_period=0.5, duration=2.2)
        metrics = cluster.run()
        state = cluster.state
        assert metrics.aggregation_messages == 4
        live = state.counts[0].get(0, 0)
        assert state.totals[0] + live == metrics.worker_loads[0]
        # Only tuples finished since the last flush are still live.
        assert 0 < live <= 0.2 / 0.01 + 1

    def test_invalid_executor_args(self):
        with pytest.raises(ValueError, match="emit_cost"):
            ClusterConfig(emit_cost=0.0)
        with pytest.raises(ValueError, match="cpu_delay"):
            ClusterConfig(cpu_delay=0.0)

