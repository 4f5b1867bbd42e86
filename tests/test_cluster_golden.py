"""Golden outputs of the simulated word-count cluster (fig5's model).

``tests/data/cluster/golden.json`` pins the :class:`RunMetrics` of a
small grid of cluster runs: every headline scheme with aggregation on
and off, a multi-spout cluster, a straggler over heterogeneous worker
delays, and an injected partitioner.  The check is exact equality --
any change to event order, key sampling, routing or the latency
reservoir shows up here before it shows up in a fig5 artifact.

Regenerate (only for a deliberate model change) with::

    PYTHONPATH=src python tests/test_cluster_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.partitioning import PartialKeyGrouping
from repro.queueing.cluster import ClusterConfig, run_wordcount
from repro.streams.distributions import ZipfKeyDistribution

GOLDEN = Path(__file__).parent / "data" / "cluster" / "golden.json"
BASE = dict(duration=3.0, warmup=1.0, cpu_delay=0.4e-3, seed=3)
HETEROGENEOUS = [0.3e-3, 0.5e-3, 0.2e-3, 0.8e-3, 0.4e-3, 0.4e-3, 0.6e-3, 0.3e-3, 0.5e-3]

GRID = {
    **{
        f"{scheme}/agg={period:g}": (scheme, dict(aggregation_period=period), {})
        for scheme in ("pkg", "kg", "sg", "pkg:d=3")
        for period in (0.0, 0.5)
    },
    "pkg/spouts=4": ("pkg", dict(num_spouts=4), {}),
    "sg/straggler": (
        "sg",
        dict(straggler_worker=3, straggler_factor=4.0, aggregation_period=0.5),
        dict(worker_cpu_delays=HETEROGENEOUS),
    ),
    "pkg/injected": (
        "pkg",
        dict(aggregation_period=0.5),
        dict(partitioner=PartialKeyGrouping(9, seed=5)),
    ),
}


def measure(name):
    scheme, config, extra = GRID[name]
    m = run_wordcount(
        scheme,
        ZipfKeyDistribution(1.05, 10_000),
        ClusterConfig(**BASE, **config),
        **extra,
    )
    return {
        "scheme": m.scheme,
        "emitted": m.emitted,
        "completed": m.completed,
        "throughput": m.throughput,
        "worker_loads": list(m.worker_loads),
        "latency": [
            m.latency.count,
            m.latency.mean,
            m.latency.max,
            m.latency.percentile(50),
            m.latency.percentile(99),
        ],
        "aggregation_messages": m.aggregation_messages,
        "average_memory_counters": m.average_memory_counters,
        "peak_memory_counters": m.peak_memory_counters,
    }


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_metrics_match_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert measure(name) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: measure(name) for name in sorted(GRID)}, indent=1) + "\n"
    )
