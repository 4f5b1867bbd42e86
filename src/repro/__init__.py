"""repro: PARTIAL KEY GROUPING and its evaluation substrate.

A from-scratch reproduction of *"The Power of Both Choices: Practical
Load Balancing for Distributed Stream Processing Engines"* (Nasir,
De Francisci Morales, García-Soriano, Kourtellis, Serafini -- ICDE
2015).

Quickstart (the unified :mod:`repro.api` facade)::

    from repro import run

    pkg = run("pkg", dataset="WP", num_workers=10)
    kg = run("kg", dataset="WP", num_workers=10)
    print(pkg.average_imbalance, "<<", kg.average_imbalance)

See ARCHITECTURE.md for the paper-section -> module map and
EXPERIMENTS.md for the paper-vs-measured record of every table and
figure.  EXPERIMENTS.md is generated from the JSON artifacts in
``results/``; regenerate it with::

    PYTHONPATH=src python -m repro.reports run --scale 0.1
    PYTHONPATH=src python -m repro.reports render
"""

from repro.hashing import HashFamily, HashFunction
from repro.partitioning import (
    KeyGrouping,
    LeastLoaded,
    OfflineGreedy,
    OnlineGreedy,
    PartialKeyGrouping,
    Partitioner,
    RebalancingKeyGrouping,
    ShuffleGrouping,
    StaticPoTC,
)
from repro.streams import (
    DATASETS,
    DatasetSpec,
    DriftingKeyStream,
    EdgeStream,
    EmpiricalKeyDistribution,
    KeyDistribution,
    LogNormalKeyDistribution,
    Message,
    UniformKeyDistribution,
    ZipfKeyDistribution,
    get_dataset,
)

# The unified public API (kept last: repro.api pulls in the cluster simulator
# and the core replay engine, which build on everything above).
from repro.api import (
    RunResult,
    Topology,
    available_schemes,
    make_partitioner,
    run,
)

__version__ = "1.2.0"

__all__ = [
    "make_partitioner",
    "available_schemes",
    "Topology",
    "run",
    "RunResult",
    "HashFamily",
    "HashFunction",
    "Partitioner",
    "KeyGrouping",
    "ShuffleGrouping",
    "PartialKeyGrouping",
    "StaticPoTC",
    "OnlineGreedy",
    "OfflineGreedy",
    "LeastLoaded",
    "RebalancingKeyGrouping",
    "Message",
    "KeyDistribution",
    "ZipfKeyDistribution",
    "LogNormalKeyDistribution",
    "UniformKeyDistribution",
    "EmpiricalKeyDistribution",
    "DriftingKeyStream",
    "EdgeStream",
    "DatasetSpec",
    "DATASETS",
    "get_dataset",
    "__version__",
]
