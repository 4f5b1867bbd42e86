"""Cross-module integration tests: datasets -> partitioning -> apps."""

import numpy as np
import pytest

from repro import (
    KeyGrouping,
    PartialKeyGrouping,
    ShuffleGrouping,
    WorkerLoadRegistry,
)
from repro.analysis import feasible_workers, imbalance_lower_bound_hot_key
from repro.applications import DistributedWordCount, exact_top_k
from repro.load import GlobalOracleEstimator, LocalLoadEstimator
from repro.core.engine import replay_stream, simulate_multisource_pkg
from repro.core.metrics import count_partial_states, jaccard_overlap
from repro.streams import get_dataset


class TestDatasetToPartitioner:
    """The full Q1/Q2 pipeline on the WP synthetic dataset."""

    @pytest.fixture(scope="class")
    def wp_keys(self):
        return get_dataset("WP").stream(120_000, seed=5)

    def test_pkg_beats_hashing_orders_of_magnitude(self, wp_keys):
        pkg = simulate_multisource_pkg(wp_keys, num_workers=5, num_sources=5)
        kg = replay_stream(wp_keys, KeyGrouping(5))
        assert pkg.average_imbalance < kg.average_imbalance / 100

    def test_transition_at_feasibility_threshold(self, wp_keys):
        """The 'binary' behaviour of Table II: balanced below O(1/p1),
        imbalanced above."""
        spec = get_dataset("WP")
        p1 = spec.paper_p1_percent / 100.0
        threshold = feasible_workers(p1)  # ~21 for WP
        below = simulate_multisource_pkg(wp_keys, num_workers=5)
        above = simulate_multisource_pkg(wp_keys, num_workers=100)
        assert below.average_imbalance_fraction < 1e-3
        assert above.average_imbalance_fraction > 1e-3
        assert 5 < threshold < 100

    def test_infeasible_imbalance_respects_lower_bound(self, wp_keys):
        """No scheme can beat the hot-key lower bound of Section IV."""
        m = wp_keys.size
        w = 100
        p1 = get_dataset("WP").paper_p1_percent / 100.0
        bound = imbalance_lower_bound_hot_key(m, w, p1)
        result = simulate_multisource_pkg(wp_keys, num_workers=w)
        assert result.final_imbalance >= 0.5 * bound

    def test_local_vs_global_different_routes_same_balance(self, wp_keys):
        g = simulate_multisource_pkg(
            wp_keys, num_workers=10, num_sources=5, mode="global",
            keep_assignments=True,
        )
        l = simulate_multisource_pkg(
            wp_keys, num_workers=10, num_sources=5, mode="local",
            keep_assignments=True,
        )
        overlap = jaccard_overlap(g.assignments, l.assignments)
        assert overlap < 0.9  # genuinely different routings...
        ratio = (l.average_imbalance + 1) / (g.average_imbalance + 1)
        assert ratio < 20  # ...but comparable balance


class TestEstimatorWiring:
    def test_shared_registry_across_pkg_sources(self):
        """Multiple PKG sources with a global oracle share state."""
        registry = WorkerLoadRegistry(6)
        keys = get_dataset("LN2").stream(20_000, seed=2)
        sources = [
            PartialKeyGrouping(
                6, estimator=GlobalOracleEstimator(registry), seed=1
            )
            for _ in range(3)
        ]
        for i, k in enumerate(keys.tolist()):
            sources[i % 3].route(k)
        assert registry.total() == 20_000
        assert registry.imbalance() < 0.02 * 20_000

    def test_local_estimators_sum_to_truth(self):
        registry = WorkerLoadRegistry(4)
        estimators = [LocalLoadEstimator(4, registry) for _ in range(4)]
        sources = [
            PartialKeyGrouping(4, estimator=est, seed=1) for est in estimators
        ]
        keys = get_dataset("LN2").stream(8000, seed=3)
        for i, k in enumerate(keys.tolist()):
            sources[i % 4].route(k)
        total = sum(est.local for est in estimators)
        assert np.array_equal(total, registry.loads)


class TestEndToEndWordCount:
    def test_wordcount_on_wp_all_schemes_agree(self):
        words = get_dataset("WP").stream(30_000, seed=9).tolist()
        reference = exact_top_k(words, 20)
        memories = {}
        for name, partitioner in (
            ("KG", KeyGrouping(9)),
            ("SG", ShuffleGrouping(9)),
            ("PKG", PartialKeyGrouping(9)),
        ):
            wc = DistributedWordCount(partitioner, aggregation_period=4000)
            wc.process_stream(words)
            assert wc.top_k(20) == reference
            memories[name] = wc.stats.peak_worker_counters
        assert memories["KG"] <= memories["PKG"] <= memories["SG"]

    def test_replication_factor_matches_section3(self):
        """Memory: KG = K, PKG <= 2K, SG <= W*K partial states."""
        keys = get_dataset("LN1").stream(30_000, seed=4)
        distinct = np.unique(keys).size
        for partitioner, bound in (
            (KeyGrouping(8), distinct),
            (PartialKeyGrouping(8), 2 * distinct),
            (ShuffleGrouping(8), 8 * distinct),
        ):
            result = replay_stream(keys, partitioner, keep_assignments=True)
            states = count_partial_states(keys, result.assignments)
            assert states <= bound


class TestDriftRobustness:
    def test_pkg_absorbs_ct_drift(self):
        """Q3: PKG stays balanced under popularity drift."""
        keys = get_dataset("CT").stream(100_000, seed=6)
        result = simulate_multisource_pkg(keys, num_workers=10, num_sources=5)
        kg = replay_stream(keys, KeyGrouping(10))
        assert result.average_imbalance < kg.average_imbalance / 3
        assert result.average_imbalance_fraction < 0.01
