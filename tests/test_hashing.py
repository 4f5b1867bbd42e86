"""Tests for repro.hashing: Murmur/splitmix64 hashes and hash families."""

import numpy as np
import pytest

from repro._native import get_kernels
from repro.hashing import (
    HashFamily,
    HashFunction,
    key_to_bytes,
    murmur2_64a,
    splitmix64,
    splitmix64_array,
)
from repro.hashing.families import family_from_seeds


class TestMurmur64:
    def test_deterministic(self):
        assert murmur2_64a(b"pkg", 3) == murmur2_64a(b"pkg", 3)

    def test_64_bit_range(self):
        for i in range(50):
            h = murmur2_64a(str(i).encode())
            assert 0 <= h <= 0xFFFFFFFFFFFFFFFF

    def test_seed_independence(self):
        a = {murmur2_64a(str(i).encode(), 1) % 100 for i in range(200)}
        b = {murmur2_64a(str(i).encode(), 2) % 100 for i in range(200)}
        assert a != b or True  # sets may coincide; the real check below
        same = sum(
            murmur2_64a(str(i).encode(), 1) == murmur2_64a(str(i).encode(), 2)
            for i in range(1000)
        )
        assert same == 0

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            murmur2_64a(12345)  # type: ignore[arg-type]

    def test_all_tail_lengths(self):
        values = {murmur2_64a(b"y" * n) for n in range(1, 17)}
        assert len(values) == 16

    def test_avalanche_quality(self):
        # Flipping one input bit should flip ~half the output bits.
        base = murmur2_64a(b"\x00" * 8)
        flipped = murmur2_64a(b"\x01" + b"\x00" * 7)
        distance = bin(base ^ flipped).count("1")
        assert 16 <= distance <= 48


class TestSplitmix64:
    def test_known_sequence_distinct(self):
        outs = {splitmix64(i) for i in range(100_000)}
        assert len(outs) == 100_000

    def test_matches_vectorized(self):
        # The array path always mixes the seed, so it agrees with the
        # scalar seeded form -- seed 0 included (splitmix64(0) != 0).
        keys = np.arange(1000, dtype=np.int64)
        vec = splitmix64_array(keys)
        for i in (0, 1, 17, 999):
            assert int(vec[i]) == splitmix64(i ^ splitmix64(0))

    def test_vectorized_seed_matches_scalar_path(self):
        keys = np.arange(100, dtype=np.int64)
        for seed in (0, 12345):
            f = HashFunction(seed=seed)
            vec = f.hash_array(keys)
            for i in (0, 5, 99):
                assert int(vec[i]) == f(i)

    def test_uniformity_over_buckets(self):
        keys = np.arange(100_000, dtype=np.int64)
        buckets = splitmix64_array(keys, seed=9) % np.uint64(10)
        counts = np.bincount(buckets.astype(np.int64), minlength=10)
        assert counts.min() > 0.9 * counts.mean()
        assert counts.max() < 1.1 * counts.mean()


class TestKeyToBytes:
    def test_int_roundtrip_width(self):
        assert len(key_to_bytes(7)) == 8
        assert len(key_to_bytes(2**63 - 1)) == 8

    def test_negative_int_supported(self):
        assert key_to_bytes(-1) == b"\xff" * 8

    def test_numpy_int_matches_python_int(self):
        assert key_to_bytes(np.int64(42)) == key_to_bytes(42)

    def test_str_utf8(self):
        assert key_to_bytes("café") == "café".encode("utf-8")

    def test_bytes_passthrough(self):
        assert key_to_bytes(b"raw") == b"raw"

    def test_other_objects_use_repr(self):
        assert key_to_bytes((1, 2)) == repr((1, 2)).encode()


class TestHashFunction:
    def test_bucket_in_range(self):
        f = HashFunction(3)
        assert all(0 <= f.bucket(k, 7) < 7 for k in range(1000))

    def test_str_and_int_paths_are_deterministic(self):
        f = HashFunction(1)
        assert f("word") == f("word")
        assert f(99) == f(99)

    def test_bucket_array_matches_scalar(self):
        f = HashFunction(5)
        keys = np.arange(500, dtype=np.int64)
        vec = f.bucket_array(keys, 13)
        assert all(int(vec[i]) == f.bucket(i, 13) for i in range(0, 500, 37))


class TestHashFamily:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            HashFamily(size=0)

    def test_len_and_iteration(self):
        family = HashFamily(size=3, seed=1)
        assert len(family) == 3
        assert len(list(family)) == 3

    def test_choices_in_range(self):
        family = HashFamily(size=2, seed=0)
        for k in range(200):
            for c in family.choices(k, 11):
                assert 0 <= c < 11

    def test_choices_are_independent_functions(self):
        family = HashFamily(size=2, seed=0)
        both_equal = sum(
            family.choices(k, 1000)[0] == family.choices(k, 1000)[1]
            for k in range(2000)
        )
        # Collision probability 1/1000 per key: expect ~2, allow slack.
        assert both_equal < 20

    def test_same_seed_same_choices(self):
        a = HashFamily(size=2, seed=5)
        b = HashFamily(size=2, seed=5)
        assert all(a.choices(k, 10) == b.choices(k, 10) for k in range(100))

    def test_different_seed_different_choices(self):
        a = HashFamily(size=2, seed=5)
        b = HashFamily(size=2, seed=6)
        differing = sum(a.choices(k, 100) != b.choices(k, 100) for k in range(500))
        assert differing > 400

    def test_choice_matrix_matches_choices(self):
        family = HashFamily(size=3, seed=2)
        keys = np.arange(300, dtype=np.int64)
        matrix = family.choice_matrix(keys, 9)
        assert matrix.shape == (300, 3)
        for i in (0, 50, 299):
            assert tuple(matrix[i]) == family.choices(i, 9)

    def test_family_from_seeds(self):
        family = family_from_seeds([11, 22, 33])
        assert len(family) == 3
        assert family[0](5) == HashFunction(11)(5)

    def test_string_keys_supported(self):
        family = HashFamily(size=2, seed=0)
        choices = family.choices("the", 10)
        assert len(choices) == 2
        assert all(0 <= c < 10 for c in choices)



class TestIntegerFastPath:
    """Plain ``int`` keys skip the per-function call; results may not move."""

    KEYS = [0, 1, 7, -1, -12345, -(2**63), 2**63 - 1, 2**63, 2**64 - 1]
    NS = (1, 9, 2**31 + 1)

    @staticmethod
    def reference(seed, key):
        """The splitmix64 hash of an integer key, written out."""
        return splitmix64((int(key) & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(seed))

    @staticmethod
    def families():
        out = [HashFamily(size=d, seed=s) for d in (1, 2, 3, 4) for s in (0, 7)]
        out += [family_from_seeds(seeds) for seeds in ([5], [11, 22], [0, 1, 2, 3])]
        return out

    def expected(self, family, key, n):
        return tuple(self.reference(f.seed, key) % n for f in family.functions)

    def test_call_matches_reference(self):
        for seed in (0, 3, 2**40):
            f = HashFunction(seed)
            for key in self.KEYS:
                assert f(key) == self.reference(seed, key)

    def test_choices_match_per_function_path(self):
        for family in self.families():
            for key in self.KEYS:
                for n in self.NS:
                    per_function = tuple(f(key) % n for f in family.functions)
                    assert family.choices(key, n) == per_function
                    assert per_function == self.expected(family, key, n)

    def test_numpy_and_bool_keys_take_the_generic_path(self):
        for family in self.families():
            for n in self.NS:
                for key in (0, 1, -5, 2**62, -(2**63), 2**63 - 1):
                    assert family.choices(np.int64(key), n) == self.expected(
                        family, key, n
                    )
                assert family.choices(np.uint64(2**64 - 1), n) == self.expected(
                    family, 2**64 - 1, n
                )
                assert family.choices(True, n) == family.choices(1, n)
                assert family.functions[0](True) == family.functions[0](1)

    def test_reassigned_functions_refresh_the_fast_path(self):
        family = HashFamily(size=2, seed=1)
        family.functions = (HashFunction(11), HashFunction(22))
        key, n = 12345, 97
        assert family.choices(key, n) == tuple(HashFunction(s)(key) % n for s in (11, 22))

    def test_reassigned_functions_refresh_the_native_mixes(self):
        family = HashFamily(size=2, seed=1)
        family.functions = (HashFunction(11), HashFunction(22))
        keys = np.arange(-50, 50, dtype=np.int64)
        expected = [
            tuple(HashFunction(s)(int(k)) % 97 for s in (11, 22)) for k in keys
        ]
        assert [tuple(row) for row in family.choice_matrix(keys, 97)] == expected


@pytest.fixture(params=["native", "numpy"])
def hash_backend(request, monkeypatch):
    """Run a test on the native hash kernels and on the numpy reference."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    elif get_kernels() is None:
        pytest.skip("native kernels unavailable")
    return request.param


class TestBucketCount:
    """A bucket count below 1 is an error on every path, never a result."""

    KEYS = np.arange(10, dtype=np.int64)

    @pytest.mark.parametrize("n", [0, -2])
    def test_choice_matrix_rejects(self, hash_backend, n):
        with pytest.raises(ValueError, match="bucket count"):
            HashFamily(size=2, seed=3).choice_matrix(self.KEYS, n)

    @pytest.mark.parametrize("n", [0, -2])
    def test_bucket_array_rejects(self, hash_backend, n):
        with pytest.raises(ValueError, match="bucket count"):
            HashFunction(3).bucket_array(self.KEYS, n)

    def test_empty_keys_still_rejected(self, hash_backend):
        with pytest.raises(ValueError, match="bucket count"):
            HashFamily(size=1).choice_matrix(np.empty(0, dtype=np.int64), 0)

    def test_one_bucket_is_all_zeros(self, hash_backend):
        assert not HashFamily(size=3).choice_matrix(self.KEYS, 1).any()
        assert not HashFunction(9).bucket_array(self.KEYS, 1).any()
