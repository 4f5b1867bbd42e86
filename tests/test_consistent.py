"""Tests for consistent-hashing partitioners (Section VII extension)."""

import numpy as np
import pytest

from repro.partitioning import (
    ConsistentKeyGrouping,
    ConsistentPartialKeyGrouping,
    HashRing,
    KeyGrouping,
)
from repro.partitioning.consistent import relocation_fraction
from repro.core.engine import replay_stream
from repro.streams.distributions import ZipfKeyDistribution


def skewed_keys(m=30_000, seed=0):
    return ZipfKeyDistribution(1.0, 5000).sample(m, np.random.default_rng(seed))


class TestHashRing:
    def test_successor_in_worker_set(self):
        ring = HashRing(8, seed=1)
        for k in range(200):
            (w,) = ring.successors(k, 1)
            assert 0 <= w < 8

    def test_successors_distinct(self):
        ring = HashRing(8, seed=1)
        for k in range(100):
            pair = ring.successors(k, 2)
            assert len(pair) == 2
            assert pair[0] != pair[1]

    def test_count_capped_by_membership(self):
        ring = HashRing(2, seed=0)
        assert len(ring.successors("x", 5)) == 2

    def test_deterministic(self):
        a, b = HashRing(6, seed=4), HashRing(6, seed=4)
        assert all(a.successors(k, 2) == b.successors(k, 2) for k in range(100))

    def test_remove_worker_reroutes_its_keys_only(self):
        before = HashRing(8, seed=2)
        after = HashRing(8, seed=2)
        after.remove_worker(3)
        keys = range(5000)
        moved = relocation_fraction(before, after, keys, count=1)
        owned = sum(1 for k in keys if before.successors(k, 1)[0] == 3) / 5000
        # Exactly the removed worker's keys move.
        assert moved == pytest.approx(owned, abs=1e-9)
        assert all(after.successors(k, 1)[0] != 3 for k in range(500))

    def test_remove_unknown_worker(self):
        with pytest.raises(KeyError):
            HashRing(4).remove_worker(9)

    def test_add_worker_idempotent(self):
        ring = HashRing(4, seed=0)
        points = len(ring._points)
        ring.add_worker(2)
        assert len(ring._points) == points

    def test_arc_balance_with_virtual_nodes(self):
        ring = HashRing(10, virtual_nodes=128, seed=3)
        keys = np.arange(50_000)
        owners = np.array([ring.successors(int(k), 1)[0] for k in keys[:5000]])
        counts = np.bincount(owners, minlength=10)
        assert counts.max() < 2.5 * counts.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(4, virtual_nodes=0)


class TestConsistentKeyGrouping:
    def test_deterministic_per_key(self):
        ch = ConsistentKeyGrouping(8, seed=1)
        assert all(ch.route(42) == ch.route(42) for _ in range(5))

    def test_candidates_single(self):
        ch = ConsistentKeyGrouping(8, seed=1)
        assert ch.candidates("k") == (ch.route("k"),)

    def test_imbalanced_like_plain_kg_on_skew(self):
        keys = skewed_keys()
        ch = replay_stream(keys, ConsistentKeyGrouping(10, seed=1))
        kg = replay_stream(keys, KeyGrouping(10, seed=1))
        # Both single-choice schemes suffer comparably under skew.
        assert ch.average_imbalance > kg.average_imbalance / 10


class TestConsistentPKG:
    def test_routes_within_ring_candidates(self):
        pkg = ConsistentPartialKeyGrouping(8, seed=2)
        for k in range(300):
            assert pkg.route(k) in pkg.candidates(k)

    def test_balances_like_hash_pkg(self):
        keys = skewed_keys()
        ch_pkg = replay_stream(keys, ConsistentPartialKeyGrouping(10, seed=1))
        kg = replay_stream(keys, KeyGrouping(10, seed=1))
        assert ch_pkg.average_imbalance < kg.average_imbalance / 10

    def test_elastic_removal_moves_few_candidate_sets(self):
        keys = [int(k) for k in np.unique(skewed_keys(5000))]
        stable = ConsistentPartialKeyGrouping(10, seed=5)
        shrunk = ConsistentPartialKeyGrouping(10, seed=5)
        before = {k: stable.candidates(k) for k in keys}
        shrunk.remove_worker(7)
        moved = sum(1 for k in keys if shrunk.candidates(k) != before[k])
        # Only arcs touching worker 7 change: ~2/10 of candidate pairs.
        assert moved / len(keys) < 0.45
        assert all(7 not in shrunk.candidates(k) for k in keys)

    def test_add_worker_range_check(self):
        pkg = ConsistentPartialKeyGrouping(4, seed=0)
        with pytest.raises(ValueError):
            pkg.add_worker(4)

    def test_reset(self):
        pkg = ConsistentPartialKeyGrouping(4, seed=0)
        pkg.route(1)
        pkg.reset()
        assert pkg.loads.sum() == 0

    def test_key_splitting_bounded(self):
        pkg = ConsistentPartialKeyGrouping(10, seed=1)
        keys = skewed_keys(5000)
        routes = {}
        for k in keys.tolist():
            routes.setdefault(k, set()).add(pkg.route(k))
        assert all(len(used) <= 2 for used in routes.values())
