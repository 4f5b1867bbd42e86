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
    """Wraps a partitioner, recording every per-message decision."""

    def __init__(self, inner):
        self.inner = inner
        self.num_workers = inner.num_workers
        self.keys = []
        self.assignments = []

    def route(self, key, now: float = 0.0) -> int:
        worker = self.inner.route(key, now)
        self.keys.append(key)
        self.assignments.append(worker)
        return worker

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("scheme", ["kg", "pkg", "pkg:d=3"])
def test_chunk_replay_reproduces_straggler_cluster_routing(scheme):
    """DSPE equivalence, failure topologies included: replaying the key
    sequence a straggling heterogeneous cluster actually emitted through
    route_chunk reproduces the cluster's routing decisions exactly."""
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
