"""The C event loop of the word-count cluster against its closure reference.

A single-spout cluster over a :class:`KeyDistribution` runs in
``repro_wordcount`` when the native kernels are built; with
``REPRO_NO_NATIVE=1`` the same run takes the closures over
``EventLoop``.  Both must give the same :class:`RunMetrics`, field for
field, and the same :class:`ClusterState`, dict order included, over a
grid of schemes, aggregation periods (0.05 s flushes overlap the acks),
stragglers, spout windows, warmups and run lengths.
"""

import dataclasses
import os
from itertools import product

import numpy as np
import pytest

import repro.queueing.cluster as cluster_module
from repro._native import get_kernels
from repro.partitioning import PartialKeyGrouping
from repro.queueing.cluster import _KEY_BATCH, ClusterConfig, WordCountCluster
from repro.streams.distributions import KeyDistribution, ZipfKeyDistribution

HETEROGENEOUS = [0.03e-3, 0.05e-3, 0.02e-3, 0.08e-3, 0.04e-3, 0.04e-3]
#: durations of a run shorter than one key batch and of one that
#: crosses several
LENGTHS = {"short": 0.8, "long": 6.0}
#: (max_pending, warmup, length), rotated over the scheme grid so that
#: every combination runs
ROTATION = list(product((1, 2, 64), (0.0, 0.3), sorted(LENGTHS)))
CELLS = [
    (scheme, period, straggler, *ROTATION[i % len(ROTATION)])
    for i, (scheme, period, straggler) in enumerate(
        product(("pkg", "kg", "sg", "pkg:d=3"), (0.0, 0.05, 0.5), (False, True))
    )
]



def kernels_buildable():
    """Whether the kernels build here, ``REPRO_NO_NATIVE`` or not: each
    test picks its path itself."""
    saved = os.environ.pop("REPRO_NO_NATIVE", None)
    try:
        return get_kernels() is not None
    finally:
        if saved is not None:
            os.environ["REPRO_NO_NATIVE"] = saved


needs_kernels = pytest.mark.skipif(
    not kernels_buildable(), reason="native kernels unavailable"
)


def dist():
    return ZipfKeyDistribution(1.1, 3_000)


def config_of(period, straggler, max_pending, warmup, length):
    return ClusterConfig(
        num_workers=len(HETEROGENEOUS),
        cpu_delay=0.04e-3,
        network_delay=0.01e-3,
        max_pending=max_pending,
        duration=LENGTHS[length],
        warmup=warmup,
        aggregation_period=period,
        flush_entry_cost=2e-6,
        straggler_worker=3 if straggler else -1,
        straggler_factor=4.0 if straggler else 1.0,
        seed=5,
    )


def snapshot(cluster, metrics):
    """Every RunMetrics field and the ClusterState, dict order included."""
    fields = {}
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        if f.name == "latency":
            value = (
                value.count,
                value.mean,
                value.max,
                list(value._reservoir),
                value.percentile(50),
                value.percentile(99),
            )
        fields[f.name] = value
    state = cluster.state
    fields["state"] = (
        state.emitted,
        state.in_flight,
        [list(c.items()) for c in state.counts],
        list(state.totals.items()),
    )
    return fields


def run(monkeypatch, native, scheme, config, **extra):
    """One run on the chosen path; the other path must not be entered."""
    with monkeypatch.context() as patch:
        if native:
            patch.delenv("REPRO_NO_NATIVE", raising=False)
            patch.setattr(cluster_module, "_run_closures", _refuse)
        else:
            patch.setenv("REPRO_NO_NATIVE", "1")
            patch.setattr(cluster_module, "_run_native", _refuse)
        cluster = WordCountCluster(scheme, dist(), config, **extra)
        return snapshot(cluster, cluster.run())


def _refuse(*args, **kwargs):
    raise AssertionError("the run took the wrong simulator")


@needs_kernels
@pytest.mark.parametrize(
    "scheme,period,straggler,max_pending,warmup,length",
    CELLS,
    ids=["-".join(map(str, cell)) for cell in CELLS],
)
def test_native_matches_closures(
    monkeypatch, scheme, period, straggler, max_pending, warmup, length
):
    config = config_of(period, straggler, max_pending, warmup, length)
    extra = dict(worker_cpu_delays=HETEROGENEOUS) if straggler else {}
    native = run(monkeypatch, True, scheme, config, **extra)
    reference = run(monkeypatch, False, scheme, config, **extra)
    assert native == reference
    # The grid is what it says: short runs stay inside the first key
    # batch, long ones cross several, and flushes happen.
    if length == "short":
        assert 0 < native["emitted"] < _KEY_BATCH
    else:
        assert native["emitted"] > 2 * _KEY_BATCH
    if period:
        assert native["aggregation_messages"] > 0


@needs_kernels
@pytest.mark.parametrize("scheme", ["pkg", "kg"])
@pytest.mark.parametrize("hop", [0.0, 2.0**-11])
@pytest.mark.parametrize("period", [0.0, 2.0**-4])
@pytest.mark.parametrize("max_pending", [2, 64])
def test_native_matches_closures_on_exact_ties(
    monkeypatch, scheme, hop, period, max_pending
):
    """Dyadic times: events of the FIFO and of the heap fall due at the
    same instant all the time, and only the scheduling order decides."""
    config = ClusterConfig(
        num_workers=4,
        cpu_delay=2.0**-10,
        emit_cost=2.0**-12,
        network_delay=hop,
        max_pending=max_pending,
        duration=2.0,
        warmup=0.5,
        aggregation_period=period,
        flush_entry_cost=2.0**-16,
        seed=1,
    )
    native = run(monkeypatch, True, scheme, config)
    assert native == run(monkeypatch, False, scheme, config)


@needs_kernels
def test_native_matches_closures_with_long_hops(monkeypatch):
    """Hundreds of tuples and batches in flight between hops: the hop
    FIFO and the flushed-batch pool outgrow their first buffers."""
    config = ClusterConfig(
        num_workers=4,
        cpu_delay=0.05e-3,
        network_delay=5e-3,
        max_pending=512,
        duration=1.5,
        warmup=0.2,
        aggregation_period=1e-3,
        flush_entry_cost=1e-7,
        seed=3,
    )
    native = run(monkeypatch, True, "pkg", config)
    assert native == run(monkeypatch, False, "pkg", config)
    assert native["aggregation_messages"] > 10_000


@needs_kernels
def test_injected_partitioner_takes_native_path(monkeypatch):
    config = config_of(0.05, False, 64, 0.3, "long")
    native, reference = (
        run(
            monkeypatch,
            path,
            "pkg",
            config,
            partitioner=PartialKeyGrouping(len(HETEROGENEOUS), seed=8),
        )
        for path in (True, False)
    )
    assert native == reference


@pytest.mark.parametrize("native", [True, False], ids=["native", "python"])
def test_route_wrapped_on_the_instance_sees_every_key(monkeypatch, native):
    """A tracer that replaces ``route`` on the partitioner is called once
    per drawn key; an instance that stores its own bound method back is
    routed by chunk.  Decisions are the same either way."""
    if native and not kernels_buildable():
        pytest.skip("native kernels unavailable")
    config = config_of(0.05, False, 64, 0.3, "short")
    wrapped = PartialKeyGrouping(len(HETEROGENEOUS), seed=8)
    calls = []
    inner = wrapped.route

    def traced(key, now=0.0):
        calls.append(key)
        return inner(key, now)

    wrapped.route = traced
    stored = PartialKeyGrouping(len(HETEROGENEOUS), seed=8)
    stored.route = stored.route
    assert cluster_module._instance_route(stored) is None
    results = [
        run(monkeypatch, native, "pkg", config, partitioner=p) for p in (wrapped, stored)
    ]
    assert results[0] == results[1]
    assert len(calls) == _KEY_BATCH
    assert np.array_equal(stored.loads, wrapped.loads)


class OffsetKeys:
    """A key source that is not a KeyDistribution: sparse int64 keys."""

    def __init__(self):
        self.inner = dist()

    def sample(self, size, rng):
        return self.inner.sample(size, rng) * 1_000 + 7


class TwoKeys(KeyDistribution):
    """A KeyDistribution whose own ``sample`` promises nothing dense."""

    def _build_probabilities(self):
        return np.ones(2)

    def sample(self, size, rng=None, *, seed=None):
        return np.where(rng.random(size) < 0.5, -1, 10**12)


@pytest.mark.parametrize(
    "distribution,spouts",
    [(dist(), 3), (OffsetKeys(), 1), (TwoKeys(), 1)],
    ids=["multi-spout", "sparse-keys", "overridden-sample"],
)
def test_python_path_configs(monkeypatch, distribution, spouts):
    config = ClusterConfig(
        num_workers=4,
        duration=0.5,
        warmup=0.1,
        aggregation_period=0.05,
        num_spouts=spouts,
        seed=2,
    )
    assert cluster_module._wordcount_kernels(config, distribution) is None
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(cluster_module, "_run_native", _refuse)
    cluster = WordCountCluster("pkg", distribution, config)
    metrics = cluster.run()
    assert metrics.completed > 0 and metrics.aggregation_messages > 0


@needs_kernels
def test_native_path_configs(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    config = ClusterConfig(num_workers=4, duration=0.5, warmup=0.1)
    assert cluster_module._wordcount_kernels(config, dist()) is not None
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert cluster_module._wordcount_kernels(config, dist()) is None
