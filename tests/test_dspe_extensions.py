"""Tests for DSPE extensions: multi-spout clusters, failure injection."""

import pytest

from repro.queueing.cluster import ClusterConfig, WordCountCluster, run_wordcount
from repro.partitioning import PartialKeyGrouping
from repro.streams.distributions import ZipfKeyDistribution


def dist():
    return ZipfKeyDistribution(1.05, 10_000)


class TestMultiSpout:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_spouts=0)

    def test_throughput_matches_single_spout_when_spout_bound(self):
        # The emit budget is split across spouts, so the aggregate
        # spout-bound throughput is unchanged.
        one = run_wordcount(
            "pkg", dist(), ClusterConfig(duration=4, warmup=1, num_spouts=1, seed=1)
        )
        four = run_wordcount(
            "pkg", dist(), ClusterConfig(duration=4, warmup=1, num_spouts=4, seed=1)
        )
        assert four.throughput == pytest.approx(one.throughput, rel=0.05)

    def test_each_spout_emits(self):
        cluster = WordCountCluster(
            "pkg", dist(), ClusterConfig(duration=3, warmup=1, num_spouts=3, seed=2)
        )
        cluster.run()
        assert len(cluster.state.emitted) == 3
        assert all(e > 0 for e in cluster.state.emitted)

    def test_acks_return_to_origin_spout(self):
        cluster = WordCountCluster(
            "sg", dist(), ClusterConfig(duration=3, warmup=1, num_spouts=2, seed=3)
        )
        cluster.run()
        # If acks leaked to the wrong spout, in_flight would drift
        # negative on one spout and the other would stall at the cap.
        window = cluster.config.max_pending // 2
        for in_flight in cluster.state.in_flight:
            assert 0 <= in_flight <= window

    def test_balanced_even_with_multiple_local_sources(self):
        metrics = run_wordcount(
            "pkg",
            dist(),
            ClusterConfig(duration=4, warmup=1, num_spouts=4, seed=4),
        )
        loads = metrics.worker_loads
        avg = sum(loads) / len(loads)
        assert max(loads) - avg < 0.1 * sum(loads)

    def test_partitioner_injection_rejected_for_multi_spout(self):
        cfg = ClusterConfig(duration=3, warmup=1, num_spouts=2)
        with pytest.raises(ValueError):
            run_wordcount(
                "pkg", dist(), cfg, partitioner=PartialKeyGrouping(cfg.num_workers)
            )


class TestStragglerInjection:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(straggler_factor=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=4, straggler_worker=4)

    def test_straggler_reduces_throughput_and_raises_latency(self):
        base_cfg = ClusterConfig(duration=5, warmup=1, cpu_delay=0.4e-3, seed=1)
        slow_cfg = ClusterConfig(
            duration=5,
            warmup=1,
            cpu_delay=0.4e-3,
            seed=1,
            straggler_worker=0,
            straggler_factor=5.0,
        )
        base = run_wordcount("pkg", dist(), base_cfg)
        slow = run_wordcount("pkg", dist(), slow_cfg)
        assert slow.throughput < 0.8 * base.throughput
        assert slow.latency.mean > base.latency.mean

    def test_pkg_does_not_adapt_to_service_time_skew(self):
        """A faithful *limitation*: the paper defines load as message
        counts (Section II), so PKG's estimator cannot see a slow
        worker -- it degrades like SG under a straggler, not better."""
        def run(scheme):
            return run_wordcount(
                scheme,
                dist(),
                ClusterConfig(
                    duration=5,
                    warmup=1,
                    cpu_delay=0.4e-3,
                    seed=1,
                    straggler_worker=0,
                    straggler_factor=5.0,
                ),
            )

        pkg, sg = run("pkg"), run("sg")
        assert pkg.throughput == pytest.approx(sg.throughput, rel=0.15)

    def test_straggler_queue_dominates_p99(self):
        slow = run_wordcount(
            "sg",
            dist(),
            ClusterConfig(
                duration=5,
                warmup=1,
                cpu_delay=0.4e-3,
                seed=1,
                straggler_worker=3,
                straggler_factor=10.0,
            ),
        )
        assert slow.latency.percentile(99) > 2 * slow.latency.mean
