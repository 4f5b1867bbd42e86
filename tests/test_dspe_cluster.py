"""Integration tests for the simulated word-count cluster (Q4)."""

import pytest

from repro.queueing.cluster import ClusterConfig, WordCountCluster, run_wordcount
from repro.partitioning import PartialKeyGrouping
from repro.streams.distributions import ZipfKeyDistribution


def dist():
    return ZipfKeyDistribution(1.05, 10_000)  # WP-like skew (p1 ~ 9%)


def short_config(**kw):
    defaults = dict(duration=4.0, warmup=1.0, seed=1)
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestClusterBasics:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_wordcount("magic", dist(), short_config())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(duration=1.0, warmup=2.0)
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(network_delay=-1e-3),
            dict(flush_entry_cost=-1e-6),
            dict(aggregation_period=-1.0),
            dict(max_pending=0),
            # a per-spout window of max_pending // num_spouts = 0
            dict(max_pending=3, num_spouts=4),
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_rejected_values(self, bad):
        with pytest.raises(ValueError):
            ClusterConfig(**bad)

    def test_metrics_fields(self):
        m = run_wordcount("pkg", dist(), short_config())
        assert m.scheme == "PKG"
        assert m.throughput > 0
        assert m.completed > 0
        assert m.emitted >= m.completed
        assert len(m.worker_loads) == 9
        assert m.latency.count == m.completed

    def test_conservation(self):
        m = run_wordcount("sg", dist(), short_config())
        assert sum(m.worker_loads) <= m.emitted

    def test_deterministic_given_seed(self):
        a = run_wordcount("pkg", dist(), short_config())
        b = run_wordcount("pkg", dist(), short_config())
        assert a.throughput == b.throughput
        assert a.completed == b.completed

    def test_custom_partitioner_injection(self):
        cfg = short_config()
        m = run_wordcount(
            "pkg", dist(), cfg, partitioner=PartialKeyGrouping(cfg.num_workers)
        )
        assert m.throughput > 0

    def test_summary_string(self):
        m = run_wordcount("kg", dist(), short_config())
        assert "KG" in m.summary()


class TestFig5aShape:
    def test_low_delay_spout_bound_all_equal(self):
        cfg = lambda: short_config(cpu_delay=0.1e-3)
        results = {s: run_wordcount(s, dist(), cfg()) for s in ("kg", "sg", "pkg")}
        values = [r.throughput for r in results.values()]
        assert max(values) - min(values) < 0.05 * max(values)

    def test_high_delay_kg_loses_throughput(self):
        cfg = lambda: short_config(cpu_delay=1.0e-3, duration=6.0, warmup=2.0)
        kg = run_wordcount("kg", dist(), cfg())
        pkg = run_wordcount("pkg", dist(), cfg())
        sg = run_wordcount("sg", dist(), cfg())
        assert kg.throughput < 0.8 * pkg.throughput
        assert abs(pkg.throughput - sg.throughput) < 0.1 * sg.throughput

    def test_high_delay_kg_latency_higher(self):
        cfg = lambda: short_config(cpu_delay=1.0e-3, duration=6.0, warmup=2.0)
        kg = run_wordcount("kg", dist(), cfg())
        pkg = run_wordcount("pkg", dist(), cfg())
        assert kg.latency.mean > pkg.latency.mean

    def test_kg_load_imbalance_highest(self):
        cfg = lambda: short_config(cpu_delay=0.2e-3)
        kg = run_wordcount("kg", dist(), cfg())
        sg = run_wordcount("sg", dist(), cfg())
        assert kg.load_imbalance > sg.load_imbalance


class TestFig5bShape:
    def test_aggregation_produces_messages_and_memory(self):
        cfg = short_config(
            duration=8.0, warmup=2.0, aggregation_period=1.0, cpu_delay=0.4e-3
        )
        m = run_wordcount("pkg", dist(), cfg)
        assert m.aggregation_messages > 0
        assert m.average_memory_counters > 0

    def test_pkg_less_memory_than_sg(self):
        def cfg():
            return short_config(
                duration=8.0, warmup=2.0, aggregation_period=2.0, cpu_delay=0.4e-3
            )

        pkg = run_wordcount("pkg", dist(), cfg())
        sg = run_wordcount("sg", dist(), cfg())
        assert pkg.average_memory_counters < sg.average_memory_counters
        assert pkg.throughput >= 0.95 * sg.throughput

    def test_longer_period_more_memory(self):
        def cfg(period):
            return short_config(
                duration=10.0, warmup=2.0, aggregation_period=period,
                cpu_delay=0.4e-3,
            )

        short_t = run_wordcount("pkg", dist(), cfg(0.5))
        long_t = run_wordcount("pkg", dist(), cfg(4.0))
        assert short_t.average_memory_counters < long_t.average_memory_counters

    def test_aggregator_receives_all_flushed_words(self):
        cfg = short_config(
            duration=6.0, warmup=1.0, aggregation_period=1.0, cpu_delay=0.2e-3
        )
        cluster = WordCountCluster("pkg", dist(), cfg)
        metrics = cluster.run()
        aggregated = sum(cluster.state.totals.values())
        processed = sum(metrics.worker_loads)
        live_counts = sum(sum(c.values()) for c in cluster.state.counts)
        # Counts are conserved up to flush batches still in flight when
        # the simulation horizon cuts off.
        assert aggregated + live_counts <= processed
        assert aggregated + live_counts >= 0.9 * processed
