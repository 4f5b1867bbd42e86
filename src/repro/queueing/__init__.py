"""``repro.queueing``: the repo's worker-queue simulators.

Everything else in the repo measures load-*count* imbalance; a
production operator asks what a partitioning scheme buys in **p99
latency at 80% utilization**, and the paper's Q4 asks what it buys in
cluster throughput.  This package answers both on top of the
deterministic :class:`~repro.core.engine.EventLoop`:

* :mod:`~repro.queueing.arrivals` -- seeded arrival processes
  (Poisson, deterministic, trace replay) and the closed-loop
  think-time population descriptor;
* :mod:`~repro.queueing.service` -- service-time distributions
  (exponential, deterministic, bimodal) with exact mean/scv;
* :mod:`~repro.queueing.latency` -- the mergeable bounded-relative-
  error percentile sketch sojourn times land in;
* :mod:`~repro.queueing.simulator` -- bounded per-worker FIFO queues
  driven by any registered partitioner, plus the shared-queue M/G/c
  station used for validation;
* :mod:`~repro.queueing.analytic` -- the M/M/1 / Pollaczek-Khinchine /
  Erlang-C closed forms the simulator is tested against;
* :mod:`~repro.queueing.cluster` -- the Storm-like word-count cluster
  of Figure 5: spouts behind a max-pending window, FIFO counter
  workers, periodic flushes to an aggregator.

``python -m repro.queueing`` runs the latency-vs-offered-load sweep
from the command line; ``repro.experiments.latency`` wires the same
sweep into the artifact pipeline (``results/latency_curves.json``).
"""

from repro.queueing.analytic import (
    erlang_c,
    machine_repairman_distribution,
    machine_repairman_mean_sojourn,
    machine_repairman_throughput,
    machine_repairman_utilization,
    mg1_mean_waiting,
    mm1_mean_sojourn,
    mm1_mean_waiting,
    mm1_sojourn_quantile,
    mmc_mean_sojourn,
    mmc_mean_waiting,
)
from repro.queueing.arrivals import (
    ArrivalProcess,
    ClosedLoopPopulation,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.queueing.service import (
    BimodalService,
    DeterministicService,
    ExponentialService,
    ServiceTimeDistribution,
)
from repro.queueing.simulator import (
    QueueingResult,
    simulate_closed_loop,
    simulate_mmc,
    simulate_queueing,
)

__all__ = [
    "ArrivalProcess",
    "ClosedLoopPopulation",
    "PoissonArrivals",
    "DeterministicArrivals",
    "TraceArrivals",
    "ServiceTimeDistribution",
    "ExponentialService",
    "DeterministicService",
    "BimodalService",
    "LatencyStore",
    "DEFAULT_RELATIVE_ERROR",
    "QueueingResult",
    "simulate_queueing",
    "simulate_closed_loop",
    "simulate_mmc",
    "erlang_c",
    "machine_repairman_distribution",
    "machine_repairman_utilization",
    "machine_repairman_throughput",
    "machine_repairman_mean_sojourn",
    "mm1_mean_waiting",
    "mm1_mean_sojourn",
    "mm1_sojourn_quantile",
    "mg1_mean_waiting",
    "mmc_mean_waiting",
    "mmc_mean_sojourn",
]
