"""Fluent Topology builder tests: validation, build, heterogeneity."""

import pytest

from repro.api import Topology, TopologyError, run
from repro.partitioning import PartialKeyGrouping
from repro.streams.distributions import ZipfKeyDistribution


def dist():
    return ZipfKeyDistribution(1.05, 10_000)


def tiny(scheme="pkg"):
    return (
        Topology()
        .source(dist())
        .partition_by(scheme)
        .workers(4, cpu_delay=0.2e-3)
        .timing(duration=2.0, warmup=0.5)
    )


class TestValidation:
    def test_spouts_must_be_positive(self):
        with pytest.raises(TopologyError):
            Topology().spouts(0)

    def test_workers_must_be_positive(self):
        with pytest.raises(TopologyError):
            Topology().workers(0)

    def test_workers_needs_an_argument(self):
        with pytest.raises(TopologyError):
            Topology().workers()

    def test_cpu_delay_positive(self):
        with pytest.raises(TopologyError):
            Topology().workers(4, cpu_delay=0.0)

    def test_delays_count_mismatch(self):
        with pytest.raises(TopologyError):
            Topology().workers(3, delays=[1e-3, 2e-3])

    def test_delays_must_be_positive(self):
        with pytest.raises(TopologyError):
            Topology().workers(delays=[1e-3, -1e-3])

    def test_unknown_scheme_fails_fast(self):
        with pytest.raises(ValueError, match="unknown partitioning scheme"):
            Topology().partition_by("magic")  # repro: noqa[REPRO005]

    def test_straggler_validation(self):
        with pytest.raises(TopologyError):
            Topology().straggler(-1, 2.0)
        with pytest.raises(TopologyError):
            Topology().straggler(0, 0.0)

    def test_straggler_out_of_range_at_build(self):
        topo = tiny().workers(4, cpu_delay=0.2e-3).straggler(7, 2.0)
        with pytest.raises(TopologyError, match="out of range"):
            topo.build()

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(TopologyError):
            tiny().timing(duration=1.0, warmup=2.0).build()

    def test_negative_aggregation_period(self):
        with pytest.raises(TopologyError):
            Topology().aggregate(every=-1.0)

    def test_build_without_source(self):
        topo = Topology().partition_by("pkg").workers(2).timing(2.0, 0.5)
        with pytest.raises(TopologyError, match="no key source"):
            topo.build()

    def test_network_validation(self):
        with pytest.raises(TopologyError):
            Topology().network(max_pending=0)
        with pytest.raises(TopologyError):
            Topology().network(delay=-1.0)
        with pytest.raises(TopologyError):
            Topology().network(emit_cost=0.0)

    def test_pinned_instance_worker_mismatch(self):
        topo = tiny().partition_by(PartialKeyGrouping(5)).workers(9)
        with pytest.raises(ValueError, match="9"):
            topo.build()

    def test_pinned_instance_with_multiple_spouts(self):
        topo = (
            tiny()
            .partition_by(PartialKeyGrouping(4))
            .spouts(2)
        )
        with pytest.raises(TopologyError, match="one spout"):
            topo.build()


class TestBuild:
    def test_config_reflects_builder(self):
        cfg = (
            Topology()
            .spouts(2)
            .workers(6, cpu_delay=0.3e-3)
            .straggler(1, 2.0)
            .aggregate(every=5.0)
            .timing(duration=8.0, warmup=2.0)
            .seed(11)
            .to_config()
        )
        assert cfg.num_spouts == 2
        assert cfg.num_workers == 6
        assert cfg.cpu_delay == 0.3e-3
        assert cfg.straggler_worker == 1
        assert cfg.straggler_factor == 2.0
        assert cfg.aggregation_period == 5.0
        assert cfg.seed == 11

    def test_heterogeneous_delays_reach_workers(self):
        delays = [0.1e-3, 0.2e-3, 0.4e-3]
        cluster = tiny().workers(delays=delays).build()
        assert cluster.cpu_delays == delays

    def test_spec_string_configures_partitioner(self):
        cluster = tiny("pkg:d=3").build()
        assert cluster.partitioner.num_choices == 3
        assert cluster.scheme == "pkg"

    def test_dataset_symbol_source(self):
        cluster = tiny().source("WP").build()
        assert cluster.distribution.p1 > 0

    def test_each_spout_gets_its_own_partitioner(self):
        cluster = tiny().spouts(3).build()
        assert len({id(p) for p in cluster.partitioners}) == 3


class TestRun:
    def test_run_returns_unified_result(self):
        result = tiny().run()
        assert result.scheme == "PKG"
        assert result.throughput > 0
        assert result.latency_p99 >= result.latency_p50 >= 0
        assert result.num_workers == 4
        assert result.num_messages > 0

    def test_run_deterministic_for_fixed_seed(self):
        a = tiny().seed(5).run()
        b = tiny().seed(5).run()
        assert a.throughput == b.throughput
        assert a.num_messages == b.num_messages
        assert list(a.worker_loads) == list(b.worker_loads)

    def test_straggler_hurts_kg_throughput(self):
        fair = tiny("kg").run()
        slow = tiny("kg").straggler(0, factor=8.0).run()
        assert slow.throughput < fair.throughput

    def test_facade_accepts_topology(self):
        result = run(tiny())
        assert result.throughput > 0
