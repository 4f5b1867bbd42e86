"""The chunk equivalence contract (satellite of the core refactor).

For every registered scheme, ``route_chunk`` -- chunked arbitrarily,
native kernels or pure Python -- must produce byte-identical
assignments to a per-message ``route()`` replay of the same stream.
This is what lets the chunked engine replace the per-message loops
without changing a single experiment number.
"""

import numpy as np
import pytest

from repro.api import available_schemes, make_partitioner
from repro.core.engine import route_chunked
from repro.queueing.cluster import ClusterConfig, WordCountCluster
from repro.streams.distributions import ZipfKeyDistribution


def zipf_keys(n=20_000, seed=7):
    return ZipfKeyDistribution(1.4, 5_000).sample(n, np.random.default_rng(seed))


def per_message_reference(scheme, num_workers, keys, seed, timestamps=None):
    partitioner = make_partitioner(scheme, num_workers, seed=seed)
    out = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        now = float(timestamps[i]) if timestamps is not None else 0.0
        out[i] = partitioner.route(key, now)
    return out


@pytest.mark.parametrize("scheme", sorted(available_schemes()))
@pytest.mark.parametrize("chunk_size", [999, 65_536])
def test_chunked_matches_per_message_zipf(scheme, chunk_size):
    keys = zipf_keys()
    reference = per_message_reference(scheme, 7, keys, seed=3)
    chunked = route_chunked(
        keys, make_partitioner(scheme, 7, seed=3), chunk_size=chunk_size
    )
    assert np.array_equal(chunked, reference), scheme


@pytest.mark.parametrize("scheme", sorted(available_schemes()))
def test_chunked_matches_per_message_string_keys(scheme):
    rng = np.random.default_rng(11)
    words = np.array([f"key-{z}" for z in rng.zipf(1.6, size=4_000)])
    reference = per_message_reference(scheme, 5, words, seed=1)
    chunked = route_chunked(
        words, make_partitioner(scheme, 5, seed=1), chunk_size=700
    )
    assert np.array_equal(chunked, reference), scheme


@pytest.mark.parametrize("scheme", sorted(available_schemes()))
def test_chunked_matches_per_message_with_timestamps(scheme):
    keys = zipf_keys(6_000)
    # Bursty, non-uniform arrival times (what a straggling cluster's
    # ack-throttled spout produces).
    rng = np.random.default_rng(5)
    timestamps = np.cumsum(rng.exponential(0.001, size=keys.size))
    reference = per_message_reference(scheme, 6, keys, seed=2, timestamps=timestamps)
    chunked = route_chunked(
        keys,
        make_partitioner(scheme, 6, seed=2),
        timestamps=timestamps,
        chunk_size=1_024,
    )
    assert np.array_equal(chunked, reference), scheme


class _RecordingPartitioner:
    """Wraps a partitioner, recording every chunk decision it makes."""

    def __init__(self, inner):
        self.inner = inner
        self.num_workers = inner.num_workers
        self.keys = []
        self.assignments = []

    def route_chunk(self, keys, timestamps=None):
        workers = self.inner.route_chunk(keys, timestamps)
        self.keys.extend(np.asarray(keys).tolist())
        self.assignments.extend(workers.tolist())
        return workers

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("scheme", ["kg", "pkg", "pkg:d=3"])
def test_chunk_replay_reproduces_straggler_cluster_routing(scheme):
    """DSPE equivalence, failure topologies included: the key batches a
    straggling heterogeneous cluster routed, replayed through a fresh
    partitioner in other chunk sizes, get the cluster's decisions."""
    config = ClusterConfig(
        num_workers=4,
        duration=2.0,
        warmup=0.5,
        straggler_worker=1,
        straggler_factor=6.0,
        seed=9,
    )
    recorder = _RecordingPartitioner(make_partitioner(scheme, 4, seed=9))
    cluster = WordCountCluster(
        scheme,
        ZipfKeyDistribution(1.5, 800),
        config,
        partitioner=recorder,
        worker_cpu_delays=[0.3e-3, 0.5e-3, 0.2e-3, 0.8e-3],
    )
    cluster.run()
    assert len(recorder.keys) > 100

    fresh = make_partitioner(scheme, 4, seed=9)
    replayed = route_chunked(np.array(recorder.keys), fresh, chunk_size=97)
    assert np.array_equal(replayed, np.array(recorder.assignments))


@pytest.mark.parametrize("scheme", ["pkg", "jbsq"])
@pytest.mark.parametrize("backend", ["native", "python"])
def test_masked_route_chunk_matches_route_across_chunks(
    monkeypatch, scheme, backend
):
    """A worker masked mid-stream: chunks still equal per-message route.

    The chunk after the mask crosses a chunk boundary, so the masked
    load slot must carry over between fused-kernel calls.
    """
    if backend == "python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    keys = zipf_keys(8_000)
    dead = 2
    chunked = make_partitioner(scheme, 5, seed=4)
    single = make_partitioner(scheme, 5, seed=4)
    routed, reference = [], []
    for start, stop in ((0, 1_000), (1_000, 2_500), (2_500, 3_500), (3_500, 8_000)):
        if start == 2_500:
            chunked.mask_worker(dead)
            single.mask_worker(dead)
        routed.append(chunked.route_chunk(keys[start:stop]))
        reference.append(np.array([single.route(k) for k in keys[start:stop]]))
    assert np.array_equal(np.concatenate(routed), np.concatenate(reference))

    after = np.concatenate(routed[2:])
    assert dead not in chunked.remap_masked(after)
    if scheme == "pkg":
        # The masked load slot steers every key with a live candidate away.
        for key, worker in zip(keys[2_500:], after):
            if worker == dead:
                assert set(chunked.candidates(key)) == {dead}


def _typed_keys(dtype):
    """A skewed stream of ``dtype`` keys, with colliding-looking values.

    Floats include -0.0 and 0.0, and values whose ints collide (1.5 and
    1.0); bools have just two keys.
    """
    codes = zipf_keys(3_000) % 64
    if dtype == "int":
        return codes.astype(np.int64) - 32
    if dtype == "float":
        values = np.concatenate([[-0.0, 0.0, 1.0, 1.5], np.arange(60) * 0.25 - 7])
        return values[codes]
    if dtype == "bool":
        return codes % 3 == 0
    return np.array([f"w{c}" for c in codes])


@pytest.mark.parametrize("scheme", sorted(available_schemes()))
@pytest.mark.parametrize("dtype", ["int", "float", "bool", "str"])
@pytest.mark.parametrize("backend", ["native", "python"])
def test_route_of_python_keys_matches_route_chunk(monkeypatch, scheme, dtype, backend):
    """One key encoding: ``route()`` fed the Python values of a key array
    (``tolist()``: plain int, float, bool and str) decides what
    ``route_chunk`` decides on the array itself."""
    if backend == "python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    keys = _typed_keys(dtype)
    reference = per_message_reference(scheme, 8, keys.tolist(), seed=3)
    chunked = route_chunked(keys, make_partitioner(scheme, 8, seed=3), chunk_size=700)
    assert np.array_equal(chunked, reference), (scheme, dtype)


def test_negative_zero_hashes_as_zero():
    from repro.hashing import canonical_key, canonical_keys

    assert canonical_key(-0.0) == canonical_key(0.0) == 0
    assert canonical_key(np.float32(1.5)) == canonical_key(1.5)
    assert canonical_key(np.True_) == canonical_key(True) == 1
    assert canonical_keys(np.array([-0.0, 1.5])).tolist() == [
        canonical_key(0.0),
        canonical_key(1.5),
    ]


def test_unsupported_numeric_keys_are_rejected():
    from repro.hashing import key_to_bytes

    with pytest.raises(TypeError, match="numeric key"):
        key_to_bytes(1 + 2j)
