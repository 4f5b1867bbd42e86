"""Behavioral tests for the queueing simulator, arrivals, and JBSQ."""

import numpy as np
import pytest

from repro._native import get_kernels
from repro.api import available_schemes, make_partitioner
from repro.partitioning import JoinBoundedShortestQueue, Partitioner
from repro.queueing import (
    BimodalService,
    DeterministicArrivals,
    DeterministicService,
    ExponentialService,
    PoissonArrivals,
    TraceArrivals,
    simulate_queueing,
)
from repro.queueing.simulator import _ROUTE_CHUNK


def run(partitioner, n=5_000, rho=0.8, seed=7, **kwargs):
    mu = 1000.0
    lam = rho * partitioner.num_workers * mu
    keys = np.arange(n, dtype=np.int64) % 97
    return simulate_queueing(
        keys,
        partitioner,
        PoissonArrivals(lam),
        ExponentialService(1.0 / mu),
        seed=seed,
        **kwargs,
    )


class TestConservation:
    def test_every_message_completes_or_drops(self):
        result = run(make_partitioner("sg", 4))
        assert result.completed == result.num_messages
        assert result.dropped == 0

    def test_bounded_queues_drop_and_account(self):
        # deterministic arrivals at 2x a single worker's capacity: kg on
        # one worker must drop roughly half once the 4-slot queue fills.
        p = make_partitioner("kg", 1)
        n = 2_000
        result = simulate_queueing(
            np.zeros(n, dtype=np.int64),
            p,
            DeterministicArrivals(2000.0),
            DeterministicService(1.0 / 1000.0),
            seed=3,
            queue_capacity=4,
        )
        assert result.completed + result.dropped == n
        assert result.dropped == pytest.approx(n / 2, rel=0.02)
        assert result.dropped_per_worker.sum() == result.dropped
        # bounded queue means bounded sojourn: at most 4 services + own.
        assert result.latency.max <= 5 * (1.0 / 1000.0) + 1e-9

    def test_warmup_excluded_from_sketch(self):
        full = run(make_partitioner("sg", 2), n=2_000)
        trimmed = run(make_partitioner("sg", 2), n=2_000, warmup_fraction=0.25)
        assert full.latency.count == 2_000
        assert trimmed.latency.count == 1_500
        assert trimmed.warmup_messages == 500

    def test_determinism_same_seed(self):
        a = run(make_partitioner("pkg", 4, seed=1))
        b = run(make_partitioner("pkg", 4, seed=1))
        assert a.latency.to_dict() == b.latency.to_dict()
        assert a.end_time == b.end_time
        assert np.array_equal(a.busy_time, b.busy_time)

    def test_worker_sketches_merge_to_cluster_sketch(self):
        result = run(make_partitioner("sg", 4))
        assert (
            sum(s.count for s in result.worker_latency)
            == result.latency.count
        )
        assert result.waiting.count == result.latency.count

    def test_utilization_tracks_offered_load(self):
        result = run(make_partitioner("sg", 4), n=40_000, rho=0.6)
        assert result.utilization == pytest.approx(0.6, abs=0.03)

    def test_invalid_inputs_rejected(self):
        p = make_partitioner("sg", 2)
        with pytest.raises(ValueError):
            run(p, queue_capacity=0)
        with pytest.raises(ValueError):
            run(p, warmup_fraction=1.0)


class TestTraceArrivals:
    def test_replays_trace_gaps(self):
        trace = [0.5, 1.5, 3.5, 6.5]
        rng = np.random.default_rng(0)
        times = TraceArrivals(trace).arrival_times(4, rng)
        assert times == pytest.approx(trace)

    def test_rescales_to_target_rate(self):
        trace = [0.0, 1.0, 3.0, 6.0]  # natural rate 0.5/s
        arr = TraceArrivals(trace, rate=5.0)
        rng = np.random.default_rng(0)
        times = arr.arrival_times(400, rng)
        measured = (times.size - 1) / (times[-1] - times[0])
        assert measured == pytest.approx(5.0, rel=0.05)

    def test_tiles_beyond_trace_length(self):
        trace = [0.0, 1.0, 2.0]
        rng = np.random.default_rng(0)
        times = TraceArrivals(trace).arrival_times(10, rng)
        assert times.size == 10
        assert bool(np.all(np.diff(times) > 0))

    def test_rejects_descending_trace(self):
        with pytest.raises(ValueError):
            TraceArrivals([0.0, 2.0, 1.0])


class TestBimodalService:
    def test_moments_match_samples(self):
        service = BimodalService(fast=0.001, slow=0.01, slow_fraction=0.2)
        rng = np.random.default_rng(5)
        samples = service.sample(200_000, rng)
        assert samples.mean() == pytest.approx(service.mean, rel=0.01)
        measured_scv = samples.var() / samples.mean() ** 2
        assert measured_scv == pytest.approx(service.scv, rel=0.05)


class TestJBSQ:
    def test_registered_spec_with_d(self):
        p = make_partitioner("jbsq:d=4", 8)
        assert isinstance(p, JoinBoundedShortestQueue)
        assert p.num_choices == 4

    def test_key_agnostic_candidates_advance_with_counter(self):
        p = JoinBoundedShortestQueue(8, seed=0)
        first = p.candidates("anything")
        p.route("anything")
        second = p.candidates("anything")
        # same key, new message: candidate set is counter-driven.
        assert first != second or p.family.choices(0, 8) != p.family.choices(1, 8)

    def test_outstanding_tracks_feedback(self):
        p = JoinBoundedShortestQueue(4, seed=0)
        workers = [p.route(k) for k in range(10)]
        assert p.outstanding.sum() == 10
        for w in workers:
            p.on_complete(w)
        assert p.outstanding.sum() == 0
        with pytest.raises(ValueError):
            p.on_complete(workers[0])  # nothing outstanding anymore
        with pytest.raises(ValueError):
            p.on_complete(99)

    def test_feedback_steers_away_from_backlogged_worker(self):
        p = JoinBoundedShortestQueue(2, num_choices=2, seed=0)
        # pile outstanding work on worker 0 without completions.
        p.outstanding[0] = 100
        routed = [p.route(i) for i in range(50)]
        assert routed.count(1) > routed.count(0)

    def test_route_chunk_matches_route_replay(self):
        keys = np.arange(500, dtype=np.int64) % 13
        a = JoinBoundedShortestQueue(8, seed=2)
        b = JoinBoundedShortestQueue(8, seed=2)
        chunked = b.route_chunk(keys)
        singles = np.array([a.route(k) for k in keys])
        assert np.array_equal(chunked, singles)
        assert np.array_equal(a.outstanding, b.outstanding)

    def test_reset_clears_state(self):
        p = JoinBoundedShortestQueue(4, seed=0)
        for k in range(20):
            p.route(k)
        p.reset()
        assert p.outstanding.sum() == 0
        assert p.route_chunk(np.arange(5)).shape == (5,)

    def test_no_routing_table(self):
        p = JoinBoundedShortestQueue(4, seed=0)
        for k in range(100):
            p.route(k)
        assert p.memory_entries() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinBoundedShortestQueue(4, num_choices=0)

    def test_improves_tail_over_shuffle_under_load(self):
        """The point of queue-depth feedback: lower p99 than blind sg."""
        sg = run(make_partitioner("sg", 8), n=30_000, rho=0.9)
        jbsq = run(make_partitioner("jbsq", 8), n=30_000, rho=0.9)
        assert jbsq.dropped == 0  # feedback credits released correctly
        assert jbsq.sojourn_quantile(0.99) < sg.sojourn_quantile(0.99)

    def test_drop_releases_outstanding_credit(self):
        p = make_partitioner("jbsq", 2)
        n = 3_000
        simulate_queueing(
            np.zeros(n, dtype=np.int64),
            p,
            DeterministicArrivals(5000.0),
            DeterministicService(1.0 / 1000.0),
            seed=3,
            queue_capacity=3,
        )
        # after the run drains, every arrival was either completed or
        # dropped, and both paths released their outstanding credit.
        assert p.outstanding.sum() == 0


class TestQueueingCLI:
    def test_main_prints_table(self, capsys):
        from repro.queueing.__main__ import main

        rc = main(
            ["--scale", "0.1", "--utilizations", "0.6", "--schemes", "sg",
             "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Excess tail latency" in out
        assert "SG" in out

    def test_main_rejects_bad_utilization(self):
        from repro.queueing.__main__ import main

        with pytest.raises(SystemExit):
            main(["--utilizations", "1.5"])


# -- the Lindley pass against the event path --------------------------------

LINDLEY_WORKERS = 4
LINDLEY_MU = 1000.0
LINDLEY_LAM = 0.8 * LINDLEY_WORKERS * LINDLEY_MU
LINDLEY_ARRIVALS = {
    "poisson": PoissonArrivals(LINDLEY_LAM),
    # the gap equals the deterministic service time, so a worker's
    # next message lands exactly on its predecessor's departure.
    "deterministic": DeterministicArrivals(LINDLEY_MU),
    "trace": TraceArrivals(
        np.cumsum(np.random.default_rng(2).pareto(1.5, size=1_000)), rate=LINDLEY_LAM
    ),
}
LINDLEY_SERVICES = {
    "exponential": ExponentialService(1.0 / LINDLEY_MU),
    "deterministic": DeterministicService(1.0 / LINDLEY_MU),
    "bimodal": BimodalService(0.5 / LINDLEY_MU, 5.5 / LINDLEY_MU, 0.1),
}
QUEUE_BLIND_SCHEMES = sorted(s for s in available_schemes() if s != "jbsq")


def lindley_and_event(make, n, arrivals, service, warmup_fraction, seed=5):
    """Run the same cell on the Lindley pass and on the event path.

    ``queue_capacity=max(n, 1)`` can never drop, so it changes nothing
    but the path taken: it forces the event loop, the oracle.
    """
    keys = np.random.default_rng(seed).zipf(1.5, size=n).astype(np.int64) % 500
    out = []
    for capacity in (None, max(n, 1)):
        partitioner = make()
        result = simulate_queueing(
            keys,
            partitioner,
            arrivals,
            service,
            seed=seed,
            queue_capacity=capacity,
            warmup_fraction=warmup_fraction,
        )
        out.append((result, partitioner))
    return out


def assert_same_run(fast, slow):
    (a, pa), (b, pb) = fast, slow
    assert a.completed == b.completed == a.num_messages
    assert a.dropped == b.dropped == 0
    assert a.end_time == b.end_time
    assert np.array_equal(a.busy_time, b.busy_time)
    assert np.array_equal(a.dropped_per_worker, b.dropped_per_worker)
    assert a.warmup_messages == b.warmup_messages
    assert a.latency.to_dict() == b.latency.to_dict()
    assert a.waiting.to_dict() == b.waiting.to_dict()
    assert [s.to_dict() for s in a.worker_latency] == [
        s.to_dict() for s in b.worker_latency
    ]
    if pb.loads is None:
        assert pa.loads is None
    else:
        assert np.array_equal(pa.loads, pb.loads)


class TestLindleyPath:
    @pytest.mark.parametrize("scheme", QUEUE_BLIND_SCHEMES)
    @pytest.mark.parametrize("arrival", sorted(LINDLEY_ARRIVALS))
    @pytest.mark.parametrize("service", sorted(LINDLEY_SERVICES))
    def test_matches_event_path(self, scheme, arrival, service):
        fast, slow = lindley_and_event(
            lambda: make_partitioner(scheme, LINDLEY_WORKERS, seed=3),
            5_000,
            LINDLEY_ARRIVALS[arrival],
            LINDLEY_SERVICES[service],
            0.1,
        )
        assert_same_run(fast, slow)

    @pytest.mark.parametrize("scheme", QUEUE_BLIND_SCHEMES)
    @pytest.mark.parametrize("n", [0, 1, 5_000])
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.1])
    def test_matches_event_path_edges(self, scheme, n, warmup_fraction):
        fast, slow = lindley_and_event(
            lambda: make_partitioner(scheme, LINDLEY_WORKERS, seed=3),
            n,
            PoissonArrivals(LINDLEY_LAM),
            ExponentialService(1.0 / LINDLEY_MU),
            warmup_fraction,
        )
        assert_same_run(fast, slow)

    def test_deterministic_cell_has_time_ties(self):
        # the deterministic x deterministic cell of test_matches_event_path
        # really exercises ties: a message routed to the worker of its
        # predecessor arrives at the very float its predecessor departs.
        n, service = 2_000, 1.0 / LINDLEY_MU
        keys = np.random.default_rng(5).zipf(1.5, size=n).astype(np.int64) % 500
        routes = make_partitioner("kg", LINDLEY_WORKERS, seed=3).route_chunk(keys)
        arrivals = LINDLEY_ARRIVALS["deterministic"].arrival_times(
            n, np.random.default_rng(0)
        )
        ties = (routes[1:] == routes[:-1]) & (arrivals[:-1] + service == arrivals[1:])
        assert ties.sum() > 100

    def test_timestamps_reach_generic_route_chunk(self):
        class NowRouter(Partitioner):
            """Routes by arrival time alone; only ``route`` is defined."""

            def route(self, key, now=0.0):
                return int(now * 7_919.0) % self.num_workers

        fast, slow = lindley_and_event(
            lambda: NowRouter(LINDLEY_WORKERS),
            3_000,
            PoissonArrivals(LINDLEY_LAM),
            ExponentialService(1.0 / LINDLEY_MU),
            0.1,
        )
        assert_same_run(fast, slow)
        # time-driven routing spreads the messages over every worker.
        assert (fast[0].busy_time > 0).all()

    def test_feedback_and_bounded_runs_keep_the_event_path(self, monkeypatch):
        import repro.queueing.simulator as simulator

        def refuse(*args, **kwargs):
            raise AssertionError("took the Lindley pass")

        monkeypatch.setattr(simulator, "_simulate_lindley", refuse)
        run(make_partitioner("jbsq", 4), n=500)
        run(make_partitioner("pkg", 4), n=500, queue_capacity=8)
        with pytest.raises(AssertionError, match="Lindley"):
            run(make_partitioner("pkg", 4), n=500)

    @pytest.mark.parametrize("scheme", QUEUE_BLIND_SCHEMES)
    @pytest.mark.parametrize(
        "n,warmup_fraction",
        [(0, 0.0), (1, 0.0), (10, 0.95), (_ROUTE_CHUNK + 123, 0.1)],
        ids=["empty", "one", "warmup-n-1", "ragged-chunks"],
    )
    def test_native_pass_matches_python(self, monkeypatch, scheme, n, warmup_fraction):
        keys = np.random.default_rng(5).zipf(1.5, size=n).astype(np.int64) % 500
        runs = []
        for native in (True, False):
            with monkeypatch.context() as patch:
                if native:
                    patch.delenv("REPRO_NO_NATIVE", raising=False)
                    if get_kernels() is None:
                        pytest.skip("native kernels unavailable")
                else:
                    patch.setenv("REPRO_NO_NATIVE", "1")
                partitioner = make_partitioner(scheme, LINDLEY_WORKERS, seed=3)
                result = simulate_queueing(
                    keys,
                    partitioner,
                    PoissonArrivals(LINDLEY_LAM),
                    BimodalService(0.5 / LINDLEY_MU, 5.5 / LINDLEY_MU, 0.1),
                    seed=5,
                    warmup_fraction=warmup_fraction,
                )
            runs.append((result, partitioner))
        # end_time, busy_time, waiting and every sketch, field by field
        assert_same_run(*runs)
        native, python = runs[0][0], runs[1][0]
        assert native.warmup_messages == int(warmup_fraction * n)
        for a, b in zip(native.worker_latency, python.worker_latency):
            assert a.mean() == b.mean()
            if a.count:
                assert a.quantiles([0.5, 0.99]) == b.quantiles([0.5, 0.99])
