"""repro.core.chunks and repro.core.metrics unit tests."""

import numpy as np
import pytest

from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    encode_keys,
    factorize,
    hashed_buckets,
    hashed_choices,
    iter_chunks,
)
from repro.core.metrics import StreamingLoadSeries, checkpoint_positions
from repro.hashing import HashFamily, HashFunction
from repro.core.metrics import load_series


class TestIterChunks:
    def test_covers_stream_exactly(self):
        spans = list(iter_chunks(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_empty_stream(self):
        assert list(iter_chunks(0, 4)) == []

    def test_single_chunk(self):
        assert list(iter_chunks(5, DEFAULT_CHUNK_SIZE)) == [(0, 5)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(10, 0))


class TestEncoding:
    def test_integer_keys_pass_through(self):
        keys = np.array([5, 3, 5, 9], dtype=np.int64)
        encoded = encode_keys(keys)
        assert encoded.unique is None
        assert np.array_equal(encoded.codes, keys)

    def test_string_keys_factorised(self):
        keys = np.array(["b", "a", "b", "c"])
        encoded = encode_keys(keys)
        assert encoded.unique is not None
        assert np.array_equal(encoded.unique[encoded.codes], keys)

    def test_factorize_always_renumbers(self):
        keys = np.array([100, 7, 100, 42], dtype=np.int64)
        codes, unique = factorize(keys)
        assert codes.max() == unique.size - 1
        assert np.array_equal(unique[codes], keys)

    def test_hashed_choices_matches_per_key(self):
        family = HashFamily(size=3, seed=5)
        for keys in (
            np.array([9, 1, 9, 4, 2], dtype=np.int64),
            np.array(["x", "y", "x", "zz"]),
        ):
            matrix = hashed_choices(family, keys, 7)
            assert matrix.shape == (keys.size, 3)
            for i, key in enumerate(keys):
                assert tuple(matrix[i]) == family.choices(key, 7)

    def test_hashed_buckets_matches_per_key(self):
        fn = HashFunction(seed=3)
        for keys in (
            np.arange(50, dtype=np.int64),
            np.array(["a", "b", "a", "c"]),
        ):
            buckets = hashed_buckets(fn, keys, 5)
            for i, key in enumerate(keys):
                assert int(buckets[i]) == fn.bucket(key, 5)


class TestCheckpointPositions:
    def test_last_position_is_stream_end(self):
        positions = checkpoint_positions(1_000, 10)
        assert positions[-1] == 1_000
        assert positions.size == 10

    def test_short_streams_deduplicate(self):
        positions = checkpoint_positions(3, 100)
        assert positions.tolist() == [1, 2, 3]

    def test_empty(self):
        assert checkpoint_positions(0, 100).size == 0


class TestStreamingLoadSeries:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 10_000])
    @pytest.mark.parametrize("num_checkpoints", [1, 13, 100])
    def test_matches_batch_load_series(self, chunk_size, num_checkpoints):
        rng = np.random.default_rng(3)
        workers = rng.integers(0, 6, size=2_345).astype(np.int64)
        batch_positions, batch_series = load_series(workers, 6, num_checkpoints)

        streaming = StreamingLoadSeries(workers.size, 6, num_checkpoints)
        for start in range(0, workers.size, chunk_size):
            streaming.update(workers[start : start + chunk_size])
        positions, series = streaming.finish()

        assert np.array_equal(positions, batch_positions)
        assert np.array_equal(series, batch_series)
        assert np.array_equal(
            streaming.loads, np.bincount(workers, minlength=6)
        )

    def test_overfeeding_rejected(self):
        streaming = StreamingLoadSeries(3, 2)
        with pytest.raises(ValueError):
            streaming.update(np.zeros(4, dtype=np.int64))

    def test_finish_requires_full_stream(self):
        streaming = StreamingLoadSeries(5, 2)
        streaming.update(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            streaming.finish()

    def test_imbalance_snapshot(self):
        streaming = StreamingLoadSeries(4, 4)
        streaming.update(np.array([0, 0, 0, 1], dtype=np.int64))
        assert streaming.imbalance() == pytest.approx(3 - 1.0)
