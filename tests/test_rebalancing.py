"""Tests for the key-grouping-with-rebalancing baseline."""

import numpy as np
import pytest

from repro.partitioning import KeyGrouping, RebalancingKeyGrouping
from repro.core.engine import replay_stream
from repro.streams.distributions import ZipfKeyDistribution


def skewed_keys(m=40_000, seed=0):
    return ZipfKeyDistribution(1.2, 2000).sample(m, np.random.default_rng(seed))


class TestRebalancing:
    def test_routes_in_range(self):
        rb = RebalancingKeyGrouping(5, check_interval=100)
        assert all(0 <= rb.route(k) < 5 for k in range(1000))

    def test_no_rebalance_below_threshold(self):
        rb = RebalancingKeyGrouping(
            4, check_interval=100, imbalance_threshold=1e9
        )
        for k in skewed_keys(5000):
            rb.route(int(k))
        assert rb.rebalances == 0
        assert rb.migrations == 0

    def test_rebalances_under_skew(self):
        rb = RebalancingKeyGrouping(
            4, check_interval=1000, imbalance_threshold=0.1
        )
        for k in skewed_keys(20_000):
            rb.route(int(k))
        assert rb.rebalances > 0
        assert rb.migrations > 0
        assert rb.migrated_state > 0

    def test_migration_cost_is_state_size(self):
        rb = RebalancingKeyGrouping(
            2, check_interval=500, imbalance_threshold=0.05
        )
        for k in skewed_keys(10_000):
            rb.route(int(k))
        # Migrated state is the sum of message counts of moved keys: it
        # can never exceed the total messages routed.
        assert 0 < rb.migrated_state <= 10_000 * rb.migrations

    def test_migrated_key_routes_to_new_home(self):
        rb = RebalancingKeyGrouping(
            4, check_interval=1000, imbalance_threshold=0.05
        )
        for k in skewed_keys(20_000):
            rb.route(int(k))
        for key, new_home in list(rb.overrides.items())[:10]:
            assert rb.route(key) == new_home

    def test_improves_on_plain_kg(self):
        keys = skewed_keys()
        plain = replay_stream(keys, KeyGrouping(5, seed=0))
        rb = replay_stream(
            keys,
            RebalancingKeyGrouping(
                5, check_interval=2000, imbalance_threshold=0.05, seed=0
            ),
        )
        assert rb.final_imbalance < plain.final_imbalance

    def test_memory_cost_tracks_keys(self):
        # Section II-B's objection: the mechanism must track per-key
        # state, so its memory grows with the number of keys seen.
        rb = RebalancingKeyGrouping(4, check_interval=10**9)
        for k in range(777):
            rb.route(k)
        assert rb.memory_entries() >= 777

    def test_candidates_follow_overrides(self):
        rb = RebalancingKeyGrouping(
            4, check_interval=1000, imbalance_threshold=0.05
        )
        for k in skewed_keys(20_000):
            rb.route(int(k))
        if rb.overrides:
            key, home = next(iter(rb.overrides.items()))
            assert rb.candidates(key) == (home,)

    def test_reset(self):
        rb = RebalancingKeyGrouping(4, check_interval=100, imbalance_threshold=0.01)
        for k in skewed_keys(5000):
            rb.route(int(k))
        rb.reset()
        assert rb.memory_entries() == 0
        assert rb.rebalances == 0
        assert rb.loads.sum() == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RebalancingKeyGrouping(4, check_interval=0)
        with pytest.raises(ValueError):
            RebalancingKeyGrouping(4, imbalance_threshold=-1)
