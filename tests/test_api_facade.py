"""run() facade tests: dispatch, determinism, RunResult, deprecations."""

import warnings

import numpy as np
import pytest

from repro.api import RunResult, make_partitioner, run
from repro.core.engine import replay_stream
from repro.streams.distributions import ZipfKeyDistribution

KEYS = ZipfKeyDistribution(1.2, 5_000).sample(
    50_000, np.random.default_rng(0)
)


class TestFrequencyPath:
    def test_run_with_keys(self):
        result = run("pkg", keys=KEYS, num_workers=10, seed=3)
        assert isinstance(result, RunResult)
        assert result.scheme == "PKG"
        assert result.num_workers == 10
        assert result.num_messages == KEYS.size
        assert result.worker_loads.sum() == KEYS.size
        assert result.throughput is None
        assert result.latency_mean is None

    def test_matches_direct_replay_stream(self):
        facade = run("pkg", keys=KEYS, num_workers=10, seed=3)
        direct = replay_stream(
            KEYS, make_partitioner("pkg", 10, seed=3)
        )
        assert facade.average_imbalance == direct.average_imbalance
        assert list(facade.worker_loads) == list(direct.final_loads)

    def test_deterministic_for_fixed_seed(self):
        a = run("pkg", dataset="WP", num_workers=10, num_messages=30_000, seed=7)
        b = run("pkg", dataset="WP", num_workers=10, num_messages=30_000, seed=7)
        assert a.average_imbalance == b.average_imbalance
        assert list(a.worker_loads) == list(b.worker_loads)

    def test_different_seed_differs(self):
        a = run("kg", dataset="WP", num_workers=10, num_messages=30_000, seed=1)
        b = run("kg", dataset="WP", num_workers=10, num_messages=30_000, seed=2)
        assert list(a.worker_loads) != list(b.worker_loads)

    def test_spec_string_kwargs(self):
        d2 = run("pkg:d=2", keys=KEYS, num_workers=10)
        d4 = run("pkg:d=4", keys=KEYS, num_workers=10)
        assert d4.average_imbalance <= d2.average_imbalance

    def test_partitioner_instance_target(self):
        p = make_partitioner("pkg", 10, seed=3)
        result = run(p, keys=KEYS)  # num_workers inferred
        assert result.num_workers == 10

    def test_memory_entries_reported(self):
        potc = run("potc", keys=KEYS, num_workers=10)
        pkg = run("pkg", keys=KEYS, num_workers=10)
        assert potc.average_memory > 0  # routing table entries
        assert pkg.average_memory == 0  # PKG keeps no table

    def test_multi_source(self):
        result = run("pkg", keys=KEYS, num_workers=10, num_sources=5, seed=3)
        assert result.num_sources == 5
        assert result.worker_loads.sum() == KEYS.size

    def test_multi_source_rejects_instance(self):
        p = make_partitioner("pkg", 10)
        with pytest.raises(ValueError, match="per source"):
            run(p, keys=KEYS, num_sources=5)

    def test_fraction_properties(self):
        result = run("kg", keys=KEYS, num_workers=10)
        assert result.average_imbalance_fraction == pytest.approx(
            result.average_imbalance / KEYS.size
        )
        assert "W=10" in result.summary()


class TestArgumentValidation:
    def test_scheme_requires_num_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            run("pkg", keys=KEYS)

    def test_needs_keys_or_distribution(self):
        with pytest.raises(ValueError, match="keys"):
            run("pkg", num_workers=10)

    def test_keys_and_dataset_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            run("pkg", keys=KEYS, dataset="WP", num_workers=10)

    def test_distribution_and_dataset_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            run(
                "pkg",
                distribution=ZipfKeyDistribution(1.2, 100),
                dataset="WP",
                num_workers=10,
            )

    def test_topology_rejects_frequency_only_arguments(self):
        from repro.api import Topology

        topo = (
            Topology()
            .source(ZipfKeyDistribution(1.2, 100))
            .partition_by("pkg")
            .workers(4, cpu_delay=0.2e-3)
            .timing(2.0, 0.5)
        )
        with pytest.raises(ValueError, match="seed"):
            run(topo, seed=99)
        with pytest.raises(ValueError, match="num_workers"):
            run(topo, num_workers=7)
        with pytest.raises(ValueError, match="num_sources"):
            run(topo, num_sources=3)
        with pytest.raises(ValueError, match="d"):
            run(topo, d=3)


class TestBackwardCompat:
    def test_run_wordcount_accepts_spec_strings(self):
        from repro.queueing.cluster import ClusterConfig, run_wordcount

        metrics = run_wordcount(
            "pkg:d=3",
            ZipfKeyDistribution(1.05, 5_000),
            ClusterConfig(duration=2.0, warmup=0.5),
        )
        assert metrics.scheme == "PKG"
        assert metrics.throughput > 0

    def test_direct_construction_still_works(self):
        from repro.partitioning import PartialKeyGrouping

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must NOT warn
            p = PartialKeyGrouping(10)
        assert p.route(42) in p.candidates(42)

    def test_top_level_exports(self):
        import repro

        for name in ("make_partitioner", "Topology", "run", "RunResult"):
            assert name in repro.__all__
            assert hasattr(repro, name)
