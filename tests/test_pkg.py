"""Tests for PARTIAL KEY GROUPING (the core contribution)."""

import numpy as np
import pytest

from repro.hashing import HashFamily
from repro.partitioning import KeyGrouping, PartialKeyGrouping
from repro.core.engine import replay_stream
from repro.streams.distributions import ZipfKeyDistribution


def skewed_keys(m=50_000, exponent=1.0, num_keys=5000, seed=0):
    """A skewed stream inside PKG's feasibility region (p1 ~ 10.5%)."""
    return ZipfKeyDistribution(exponent, num_keys).sample(
        m, np.random.default_rng(seed)
    )


class TestKeySplitting:
    def test_route_always_within_candidates(self):
        pkg = PartialKeyGrouping(10, seed=1)
        for k in range(500):
            assert pkg.route(k) in pkg.candidates(k)

    def test_key_split_across_at_most_two_workers(self):
        pkg = PartialKeyGrouping(10, seed=2)
        keys = skewed_keys(20_000)
        routed = pkg.route_chunk(keys)
        for key in np.unique(keys)[:100]:
            used = set(routed[keys == key].tolist())
            assert used <= set(pkg.candidates(int(key)))
            assert len(used) <= 2

    def test_hot_key_actually_splits(self):
        pkg = PartialKeyGrouping(10, seed=3)
        hot = next(k for k in range(10) if len(set(pkg.candidates(k))) == 2)
        used = {pkg.route(hot) for _ in range(100)}
        assert len(used) == 2  # both choices used -> "power of both choices"

    def test_candidates_shared_across_sources_with_same_seed(self):
        a = PartialKeyGrouping(10, seed=9)
        b = PartialKeyGrouping(10, seed=9)
        assert all(a.candidates(k) == b.candidates(k) for k in range(300))

    def test_num_choices_d(self):
        pkg = PartialKeyGrouping(10, num_choices=3, seed=0)
        assert all(len(pkg.candidates(k)) == 3 for k in range(50))

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            PartialKeyGrouping(0)

    def test_family_size_mismatch_rejected(self):
        family = HashFamily(size=3, seed=0)
        with pytest.raises(ValueError):
            PartialKeyGrouping(10, num_choices=2, hash_family=family)


class TestLoadBalance:
    def test_beats_key_grouping_on_skew(self):
        keys = skewed_keys()
        pkg = replay_stream(keys, PartialKeyGrouping(10, seed=0))
        kg = replay_stream(keys, KeyGrouping(10, seed=0))
        assert pkg.average_imbalance < kg.average_imbalance / 5

    def test_near_perfect_in_feasible_regime(self):
        # p1 ~ 2.5% with W=5 is deep inside the feasibility region.
        keys = ZipfKeyDistribution(0.9, 10_000).sample(
            50_000, np.random.default_rng(1)
        )
        result = replay_stream(keys, PartialKeyGrouping(5, seed=0))
        assert result.final_imbalance_fraction < 1e-3

    def test_greedy_choice_follows_estimates(self):
        pkg = PartialKeyGrouping(4, seed=0)
        key = next(
            k for k in range(100) if set(pkg.candidates(k)) == {0, 1}
        )
        assert pkg.route(key) == pkg.candidates(key)[0]  # ties: first
        pkg.reset()
        pkg.loads[0] = 100
        assert pkg.route(key) == 1  # avoids the loaded candidate


class TestFastPath:
    def test_fast_path_matches_generic_route(self):
        keys = skewed_keys(5000)
        fast = PartialKeyGrouping(8, seed=4)
        slow = PartialKeyGrouping(8, seed=4)
        fast_routes = fast.route_chunk(keys)
        slow_routes = np.array([slow.route(int(k)) for k in keys])
        assert np.array_equal(fast_routes, slow_routes)

    def test_fast_path_matches_generic_route_d3(self):
        keys = skewed_keys(5000)
        fast = PartialKeyGrouping(8, num_choices=3, seed=4)
        slow = PartialKeyGrouping(8, num_choices=3, seed=4)
        assert np.array_equal(
            fast.route_chunk(keys), np.array([slow.route(int(k)) for k in keys])
        )

    def test_string_keys_fall_back_to_generic(self):
        pkg = PartialKeyGrouping(5, seed=0)
        words = np.array(["a", "b", "a", "c", "a"])
        routed = pkg.route_chunk(words)
        assert routed.size == 5
        assert all(r in pkg.candidates(w) for r, w in zip(routed, words))


class TestStatefulness:
    def test_estimator_accumulates(self):
        pkg = PartialKeyGrouping(4, seed=0)
        pkg.route(1)
        pkg.route(1)
        assert pkg.loads.sum() == 2

    def test_reset_clears_estimator(self):
        pkg = PartialKeyGrouping(4, seed=0)
        pkg.route(1)
        pkg.reset()
        assert pkg.loads.sum() == 0

    def test_no_routing_table(self):
        pkg = PartialKeyGrouping(4, seed=0)
        for k in range(1000):
            pkg.route(k)
        assert pkg.memory_entries() == 0  # PKG keeps no per-key state

    def test_adapts_to_drift(self):
        # A key that cools down stops dominating its candidates: the
        # estimator is dynamic, unlike static PoTC.
        pkg = PartialKeyGrouping(2, seed=1)
        for _ in range(100):
            pkg.route(0)
        loads_before = pkg.loads.copy()
        for k in range(1, 101):
            pkg.route(k)
        assert pkg.loads.min() > loads_before.min()
