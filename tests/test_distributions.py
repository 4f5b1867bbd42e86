"""Tests for repro.streams.distributions."""

import numpy as np
import pytest

from repro._native import get_kernels
from repro.streams.datasets import get_dataset, list_datasets
from repro.streams.distributions import (
    EmpiricalKeyDistribution,
    LogNormalKeyDistribution,
    UniformKeyDistribution,
    ZipfKeyDistribution,
    calibrate_zipf_exponent,
    zipf_p1,
)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        d = ZipfKeyDistribution(1.2, 1000)
        assert d.probabilities.sum() == pytest.approx(1.0)

    def test_sorted_descending(self):
        p = ZipfKeyDistribution(0.8, 500).probabilities
        assert np.all(np.diff(p) <= 0)

    def test_p1_matches_formula(self):
        d = ZipfKeyDistribution(1.5, 100)
        assert d.p1 == pytest.approx(zipf_p1(1.5, 100))

    def test_zero_exponent_is_uniform(self):
        d = ZipfKeyDistribution(0.0, 10)
        assert np.allclose(d.probabilities, 0.1)

    def test_higher_exponent_more_skew(self):
        assert ZipfKeyDistribution(2.0, 100).p1 > ZipfKeyDistribution(1.0, 100).p1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfKeyDistribution(1.0, 0)
        with pytest.raises(ValueError):
            ZipfKeyDistribution(-1.0, 10)

    def test_sampling_respects_head(self):
        d = ZipfKeyDistribution(1.5, 1000)
        keys = d.sample(50_000, np.random.default_rng(0))
        counts = np.bincount(keys, minlength=1000)
        measured_p1 = counts.max() / keys.size
        assert measured_p1 == pytest.approx(d.p1, rel=0.05)

    def test_sampling_deterministic_with_seed(self):
        d = ZipfKeyDistribution(1.1, 100)
        a = d.sample(1000, np.random.default_rng(3))
        b = d.sample(1000, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_sample_size_zero(self):
        d = ZipfKeyDistribution(1.1, 100)
        assert d.sample(0, np.random.default_rng(0)).size == 0

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError):
            ZipfKeyDistribution(1.1, 100).sample(-1)

    def test_keys_in_range(self):
        d = ZipfKeyDistribution(1.3, 50)
        keys = d.sample(10_000, np.random.default_rng(1))
        assert keys.min() >= 0 and keys.max() < 50


class TestCalibration:
    @pytest.mark.parametrize("target", [0.02, 0.0932, 0.1471, 0.3])
    def test_hits_target(self, target):
        exponent = calibrate_zipf_exponent(10_000, target)
        assert zipf_p1(exponent, 10_000) == pytest.approx(target, rel=1e-4)

    def test_below_uniform_floor_rejected(self):
        with pytest.raises(ValueError):
            calibrate_zipf_exponent(10, 0.05)  # floor is 0.1

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            calibrate_zipf_exponent(100, 0.0)
        with pytest.raises(ValueError):
            calibrate_zipf_exponent(100, 1.0)

    def test_monotone_in_target(self):
        lo = calibrate_zipf_exponent(1000, 0.05)
        hi = calibrate_zipf_exponent(1000, 0.2)
        assert hi > lo


class TestUniform:
    def test_flat(self):
        d = UniformKeyDistribution(8)
        assert np.allclose(d.probabilities, 1 / 8)

    def test_p1(self):
        assert UniformKeyDistribution(20).p1 == pytest.approx(0.05)

    def test_entropy_is_log_k(self):
        d = UniformKeyDistribution(64)
        assert d.entropy() == pytest.approx(np.log(64))


class TestLogNormal:
    def test_paper_ln1_p1(self):
        d = LogNormalKeyDistribution(1.789, 2.366, 16_000)
        assert d.p1 * 100 == pytest.approx(14.71, abs=0.05)

    def test_paper_ln2_p1(self):
        d = LogNormalKeyDistribution(2.245, 1.133, 1_100)
        assert d.p1 * 100 == pytest.approx(7.01, abs=0.05)

    def test_probabilities_normalised(self):
        d = LogNormalKeyDistribution(1.0, 1.0, 500)
        assert d.probabilities.sum() == pytest.approx(1.0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            LogNormalKeyDistribution(1.0, 0.0, 10)

    def test_sampled_head_matches(self):
        d = LogNormalKeyDistribution(2.245, 1.133, 1_100)
        keys = d.sample(100_000, np.random.default_rng(2))
        counts = np.bincount(keys)
        assert counts.max() / keys.size == pytest.approx(d.p1, rel=0.05)


class TestEmpirical:
    def test_from_weights(self):
        d = EmpiricalKeyDistribution([3, 1, 6])
        assert d.probabilities[0] == pytest.approx(0.6)
        assert d.num_keys == 3

    def test_from_stream(self):
        keys = np.array([0, 0, 0, 1, 2, 2])
        d = EmpiricalKeyDistribution.from_stream(keys)
        assert d.p1 == pytest.approx(0.5)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            EmpiricalKeyDistribution([1, -2]).probabilities

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            EmpiricalKeyDistribution([0.0, 0.0]).probabilities


class TestCommonProperties:
    def test_head_mass(self):
        d = ZipfKeyDistribution(1.0, 100)
        assert d.head_mass(100) == pytest.approx(1.0)
        assert 0 < d.head_mass(1) == d.p1

    def test_feasible_workers(self):
        d = UniformKeyDistribution(10)  # p1 = 0.1
        assert d.feasible_workers() == 20

    def test_expected_counts(self):
        d = UniformKeyDistribution(4)
        assert np.allclose(d.expected_counts(100), 25.0)


def cdf_probes(dist):
    """Every CDF value, each guide-bucket edge ``j / K``, their float
    neighbours on both sides, and 0.0: the uniforms where a guide-table
    walk could stop one key off."""
    dist.sample(1, np.random.default_rng(0))  # builds the cached CDF
    cdf = dist._cdf
    edges = np.arange(cdf.size, dtype=np.float64) / cdf.size
    points = np.concatenate([cdf, edges, [0.0]])
    return np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )


def assert_inverts_like_searchsorted(dist, u):
    keys = dist.invert(u)
    assert keys.dtype == np.int64
    np.testing.assert_array_equal(keys, np.searchsorted(dist._cdf, u, side="right"))


class TestInverseCdfSampling:
    """Whichever path runs -- the guide-table kernel, or the binary
    search under ``REPRO_NO_NATIVE=1`` -- every uniform maps to the key
    ``np.searchsorted(cdf, u, side="right")`` names."""

    @pytest.mark.parametrize("symbol", list_datasets())
    def test_every_dataset_distribution(self, symbol):
        dist = get_dataset(symbol).distribution()
        u = np.concatenate([cdf_probes(dist), np.random.default_rng(1).random(50_000)])
        assert_inverts_like_searchsorted(dist, u)

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            # zero-weight keys: the CDF ends in a plateau of 1.0s
            [5.0, 0.0, 3.0, 0.0, 2.0, 0.0, 0.0],
            # weights too small to move the sum: ties from the head on
            [1.0, 1e-20, 1e-20, 1e-30],
            [3.0, 3.0, 1.0, 1.0, 1.0, 0.0],
        ],
        ids=["one-key", "zero-weights", "absorbed", "ties"],
    )
    def test_degenerate_cdfs(self, weights):
        dist = EmpiricalKeyDistribution(weights)
        u = np.concatenate([cdf_probes(dist), np.linspace(0.0, 1.0, 1_001)])
        assert_inverts_like_searchsorted(dist, u)
        keys = dist.sample(20_000, np.random.default_rng(2))
        assert dist.probabilities[np.unique(keys)].min() > 0

    @pytest.mark.parametrize("num_keys", [12, 96, 50_000])
    def test_cdf_values_on_bucket_edges(self, num_keys):
        # Uniform CDF values sit within an ulp of the edges j / K, so a
        # uniform just below an edge can round into the next bucket,
        # whose guide entry is one key past the answer: the walk must
        # step back down.
        dist = UniformKeyDistribution(num_keys)
        assert_inverts_like_searchsorted(dist, cdf_probes(dist))

    def test_sample_is_invert_of_the_same_uniforms(self):
        dist = get_dataset("WP").distribution()
        keys = dist.sample(10_000, np.random.default_rng(9))
        u = np.random.default_rng(9).random(10_000)
        np.testing.assert_array_equal(keys, np.searchsorted(dist._cdf, u, side="right"))

    @pytest.mark.parametrize("size", [0, 1, 16_384])
    def test_rng_stream_is_unchanged(self, size):
        dist = get_dataset("WP").distribution()
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        keys = dist.sample(size, rng)
        reference.random(size)
        assert keys.shape == (size,) and keys.dtype == np.int64
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_kernel_walks_from_a_guide_table(self):
        if get_kernels() is None:
            pytest.skip("native kernels off or unavailable")
        dist = ZipfKeyDistribution(1.1, 1_000)
        dist.sample(10, np.random.default_rng(0))
        guide = dist._guide
        assert guide is not None and guide.size == dist.num_keys
        # each entry is the search's own answer at its bucket's edge
        edges = np.arange(guide.size) / guide.size
        np.testing.assert_array_equal(
            guide, np.searchsorted(dist._cdf, edges, side="right")
        )
