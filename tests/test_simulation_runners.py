"""Tests for the single- and multi-source simulation runners."""

import numpy as np
import pytest

from repro.partitioning import KeyGrouping, PartialKeyGrouping, ShuffleGrouping
from repro.core.engine import (
    assign_sources,
    replay_per_source,
    replay_stream,
    simulate_multisource_pkg,
)
from repro.streams.distributions import ZipfKeyDistribution


def keys_(m=20_000, seed=0, exponent=1.0, num_keys=3000):
    return ZipfKeyDistribution(exponent, num_keys).sample(
        m, np.random.default_rng(seed)
    )


class TestSimulateStream:
    def test_result_fields(self):
        keys = keys_(1000)
        r = replay_stream(keys, KeyGrouping(4))
        assert r.num_messages == 1000
        assert r.num_workers == 4
        assert r.num_sources == 1
        assert r.final_loads.sum() == 1000
        assert r.scheme == "H"

    def test_final_imbalance_consistent(self):
        keys = keys_(2000)
        r = replay_stream(keys, KeyGrouping(4))
        assert r.final_imbalance == pytest.approx(
            r.final_loads.max() - r.final_loads.mean()
        )

    def test_average_ge_zero(self):
        r = replay_stream(keys_(1000), ShuffleGrouping(3))
        assert r.average_imbalance >= 0.0

    def test_assignments_kept_on_request(self):
        keys = keys_(500)
        r = replay_stream(keys, KeyGrouping(4), keep_assignments=True)
        assert r.assignments is not None
        assert np.array_equal(
            np.bincount(r.assignments, minlength=4), r.final_loads
        )

    def test_assignments_dropped_by_default(self):
        assert replay_stream(keys_(500), KeyGrouping(4)).assignments is None

    def test_fraction_properties(self):
        r = replay_stream(keys_(1000), KeyGrouping(4))
        assert 0 <= r.average_imbalance_fraction <= 1
        assert 0 <= r.final_imbalance_fraction <= 1

    def test_summary_is_string(self):
        assert "W=4" in replay_stream(keys_(100), KeyGrouping(4)).summary()


class TestAssignSources:
    def test_round_robin(self):
        ids = assign_sources(10, 3)
        assert ids.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_by_key_grouping(self):
        source_keys = np.array([5, 5, 7, 5])
        ids = assign_sources(4, 3, source_keys=source_keys)
        assert ids[0] == ids[1] == ids[3]

    def test_by_key_size_mismatch(self):
        with pytest.raises(ValueError):
            assign_sources(3, 2, source_keys=np.array([1, 2]))

    def test_invalid_sources(self):
        with pytest.raises(ValueError):
            assign_sources(5, 0)


class TestMultiSource:
    def test_loads_accumulate_across_sources(self):
        keys = keys_(5000)
        r = simulate_multisource_pkg(keys, num_workers=6, num_sources=4)
        assert r.final_loads.sum() == 5000
        assert r.num_sources == 4

    def test_single_source_local_equals_global(self):
        keys = keys_(5000)
        local = simulate_multisource_pkg(
            keys, num_workers=5, num_sources=1, mode="local", keep_assignments=True
        )
        glob = simulate_multisource_pkg(
            keys, num_workers=5, num_sources=1, mode="global", keep_assignments=True
        )
        assert np.array_equal(local.assignments, glob.assignments)

    def test_matches_object_pkg_single_source(self):
        keys = keys_(4000)
        fast = simulate_multisource_pkg(
            keys, num_workers=7, num_sources=1, seed=3, keep_assignments=True
        )
        pkg = PartialKeyGrouping(7, seed=3)
        assert np.array_equal(fast.assignments, pkg.route_chunk(keys))

    def test_local_beats_hashing(self):
        keys = keys_(30_000)
        local = simulate_multisource_pkg(keys, num_workers=8, num_sources=5)
        kg = replay_stream(keys, KeyGrouping(8))
        assert local.average_imbalance < kg.average_imbalance / 3

    def test_local_within_order_of_global(self):
        keys = keys_(30_000)
        local = simulate_multisource_pkg(
            keys, num_workers=8, num_sources=5, mode="local"
        )
        glob = simulate_multisource_pkg(
            keys, num_workers=8, num_sources=5, mode="global"
        )
        assert local.average_imbalance <= 10 * max(glob.average_imbalance, 1.0)

    def test_probing_requires_period(self):
        with pytest.raises(ValueError):
            simulate_multisource_pkg(keys_(100), num_workers=2, mode="probing")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            simulate_multisource_pkg(keys_(100), num_workers=2, mode="psychic")

    def test_probing_runs_and_balances(self):
        keys = keys_(20_000)
        r = simulate_multisource_pkg(
            keys,
            num_workers=8,
            num_sources=5,
            mode="probing",
            probe_period=1000.0,
        )
        kg = replay_stream(keys, KeyGrouping(8))
        assert r.average_imbalance < kg.average_imbalance

    def test_explicit_source_ids(self):
        keys = keys_(1000)
        ids = np.zeros(1000, dtype=np.int64)
        r = simulate_multisource_pkg(
            keys, num_workers=4, num_sources=2, source_ids=ids
        )
        assert r.num_messages == 1000

    def test_source_ids_out_of_range(self):
        keys = keys_(100)
        with pytest.raises(ValueError):
            simulate_multisource_pkg(
                keys,
                num_workers=4,
                num_sources=2,
                source_ids=np.full(100, 5, dtype=np.int64),
            )

    def test_source_ids_wrong_length(self):
        with pytest.raises(ValueError):
            simulate_multisource_pkg(
                keys_(100),
                num_workers=4,
                num_sources=2,
                source_ids=np.zeros(99, dtype=np.int64),
            )

    def test_scheme_names(self):
        keys = keys_(1000)
        assert simulate_multisource_pkg(keys, 4, 5, mode="local").scheme == "L5"
        assert simulate_multisource_pkg(keys, 4, 5, mode="global").scheme == "G"

    def test_d_choices_param(self):
        keys = keys_(10_000)
        d3 = simulate_multisource_pkg(keys, num_workers=8, num_choices=3)
        d2 = simulate_multisource_pkg(keys, num_workers=8, num_choices=2)
        # d = 3 is at least as balanced as d = 2 (constant-factor gain).
        assert d3.average_imbalance <= d2.average_imbalance * 1.5

    def test_string_keys_supported(self):
        words = np.array(["a", "b", "c", "a"] * 100)
        r = simulate_multisource_pkg(words, num_workers=3, num_sources=2)
        assert r.final_loads.sum() == 400


class TestPerSourceRunner:
    def test_per_source_partitioners(self):
        keys = keys_(5000)
        r = replay_per_source(
            keys,
            lambda s: ShuffleGrouping(4, offset=s),
            4,
            num_sources=3,
        )[0]
        assert r.final_loads.sum() == 5000
        assert r.final_loads.max() - r.final_loads.min() <= 3

    def test_matches_multisource_for_local_pkg(self):
        keys = keys_(5000)
        a = replay_per_source(
            keys,
            lambda s: PartialKeyGrouping(6, seed=1),
            6,
            num_sources=3,
            keep_assignments=True,
        )[0]
        b = simulate_multisource_pkg(
            keys,
            num_workers=6,
            num_sources=3,
            mode="local",
            seed=1,
            keep_assignments=True,
        )
        assert np.array_equal(a.assignments, b.assignments)
        assert (a.scheme, a.num_sources) == ("PKG", 3)
        assert (b.scheme, b.num_sources) == ("L3", 3)
        single = replay_stream(keys, PartialKeyGrouping(6, seed=1))
        assert (single.scheme, single.num_sources) == ("PKG", 1)
