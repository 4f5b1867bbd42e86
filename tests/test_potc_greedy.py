"""Tests for static PoTC, On-Greedy, Off-Greedy and LeastLoaded."""

import numpy as np
import pytest

from repro.partitioning import (
    KeyGrouping,
    LeastLoaded,
    OfflineGreedy,
    OnlineGreedy,
    PartialKeyGrouping,
    StaticPoTC,
)
from repro.core.engine import replay_stream
from repro.streams.distributions import ZipfKeyDistribution


def skewed_keys(m=30_000, seed=0):
    """Skewed stream with p1 ~ 10.5%: W = 10 is inside feasibility."""
    return ZipfKeyDistribution(1.0, 5000).sample(m, np.random.default_rng(seed))


class TestStaticPoTC:
    def test_key_bound_forever(self):
        potc = StaticPoTC(8, seed=0)
        first = potc.route(5)
        assert all(potc.route(5) == first for _ in range(20))

    def test_binding_within_two_choices(self):
        potc = StaticPoTC(8, seed=0)
        family_choices = potc.family.choices(3, 8)
        assert potc.route(3) in family_choices

    def test_candidates_collapse_after_binding(self):
        potc = StaticPoTC(8, seed=0)
        assert len(potc.candidates(4)) == 2
        w = potc.route(4)
        assert potc.candidates(4) == (w,)

    def test_routing_table_grows_per_key(self):
        potc = StaticPoTC(8, seed=0)
        for k in range(100):
            potc.route(k)
        assert potc.memory_entries() == 100

    def test_reset(self):
        potc = StaticPoTC(8, seed=0)
        potc.route(1)
        potc.reset()
        assert potc.memory_entries() == 0

    def test_better_than_hashing_worse_than_pkg(self):
        # seed=1 gives the hot key two *distinct* candidates, so key
        # splitting has something to split (with colliding candidates
        # PKG and PoTC coincide on the hot key by construction).
        keys = skewed_keys()
        potc = replay_stream(keys, StaticPoTC(10, seed=1))
        kg = replay_stream(keys, KeyGrouping(10, seed=1))
        pkg = replay_stream(keys, PartialKeyGrouping(10, seed=1))
        assert potc.average_imbalance < kg.average_imbalance
        assert pkg.average_imbalance < potc.average_imbalance


class TestOnlineGreedy:
    def test_key_bound_forever(self):
        og = OnlineGreedy(6)
        first = og.route("k")
        assert all(og.route("k") == first for _ in range(10))

    def test_new_key_goes_to_least_loaded(self):
        og = OnlineGreedy(3)
        for _ in range(10):
            og.route("hot")  # loads one worker
        w = og.route("fresh")
        assert w != og.routing_table["hot"]

    def test_table_size(self):
        og = OnlineGreedy(4)
        for k in range(50):
            og.route(k)
        assert og.memory_entries() == 50

    def test_beats_potc_on_skew(self):
        keys = skewed_keys()
        on = replay_stream(keys, OnlineGreedy(10))
        potc = replay_stream(keys, StaticPoTC(10, seed=0))
        assert on.average_imbalance <= potc.average_imbalance * 1.5


class TestOfflineGreedy:
    def test_fit_assigns_every_key(self):
        og = OfflineGreedy(4).fit({k: 10 - k for k in range(10)})
        assert og.memory_entries() == 10

    def test_lpt_order(self):
        # Heaviest keys are placed first, each on the least-loaded bin.
        og = OfflineGreedy(2).fit({"a": 100, "b": 60, "c": 50})
        assert og.routing_table["a"] != og.routing_table["b"]
        # c joins b's bin (60+50=110 vs 100 -> bin of "b" was lighter
        # when c was placed).
        assert og.routing_table["c"] == og.routing_table["b"]

    def test_from_stream_balances_final_loads(self):
        keys = skewed_keys()
        og = OfflineGreedy.from_stream(keys, 10)
        result = replay_stream(keys, og)
        kg = replay_stream(keys, KeyGrouping(10, seed=0))
        assert result.final_imbalance < kg.final_imbalance / 5

    def test_unknown_key_fallback(self):
        og = OfflineGreedy(3).fit({"a": 5})
        w = og.route("unseen")
        assert 0 <= w < 3
        assert og.route("unseen") == w  # now remembered

    def test_route_chunk_vectorized_matches_table(self):
        keys = skewed_keys(5000)
        og = OfflineGreedy.from_stream(keys, 7)
        routed = og.route_chunk(keys)
        assert all(
            routed[i] == og.routing_table[int(keys[i])] for i in range(0, 5000, 333)
        )

    def test_reset(self):
        og = OfflineGreedy(3).fit({"a": 5})
        og.reset()
        assert og.memory_entries() == 0


class TestLeastLoaded:
    def test_perfect_balance_like_shuffle(self):
        ll = LeastLoaded(5)
        routed = ll.route_chunk(np.zeros(5000, dtype=np.int64))
        loads = np.bincount(routed, minlength=5)
        assert loads.max() - loads.min() <= 1

    def test_route_single(self):
        ll = LeastLoaded(3)
        seen = {ll.route("x") for _ in range(3)}
        assert seen == {0, 1, 2}

    def test_reset(self):
        ll = LeastLoaded(3)
        ll.route("x")
        ll.reset()
        assert ll.estimator.local.sum() == 0
