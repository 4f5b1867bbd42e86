"""The simulated word-count cluster behind the paper's Q4 (Figure 5).

The paper runs streaming word count on a Storm cluster: one spout, 9
counter PEIs and an optional aggregator.  :func:`simulate_wordcount`
replaces that testbed with a discrete-event model on
:class:`~repro.core.engine.EventLoop` that keeps the mechanisms behind
Figure 5:

* each **spout** emits one key per ``emit_cost`` and keeps at most its
  share of ``max_pending`` tuples un-acked (Storm's
  ``topology.max.spout.pending``).  A hot worker's backlog slows the
  acks, so the spout throttles, and load imbalance becomes a
  *throughput* loss;
* each **worker** serves a FIFO queue at one tuple per CPU delay,
  counts the key and acks the tuple's origin spout one network hop
  later;
* with aggregation on, every worker flushes its partial counters on
  its own staggered timer.  Each flushed entry costs
  ``flush_entry_cost`` of uninterruptible worker time (the overhead of
  Figure 5(b)), and the batch reaches the **aggregator** one hop later;
* a sampler reads the live partial counters every
  :data:`MEMORY_SAMPLE_PERIOD` seconds.

Spouts, workers and the aggregator are per-index lists and closures
over one loop, not objects: a run is one function call.  Everything is
seeded, and ties in time break by scheduling order, so a run is a pure
function of ``(config, distribution, partitioners, cpu_delays)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.engine import EventLoop

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner
    from repro.streams.distributions import KeyDistribution

__all__ = [
    "ClusterConfig",
    "ClusterState",
    "LatencyStats",
    "RunMetrics",
    "WordCountCluster",
    "run_wordcount",
    "simulate_wordcount",
]

#: period of the live-counter memory sampler, in simulated seconds.
MEMORY_SAMPLE_PERIOD = 0.5

#: keys drawn from the distribution per refill of the shared key buffer.
_KEY_BATCH = 16384

#: post-fill samples :class:`LatencyStats` buffers per batched slot draw.
_DRAW_BATCH = 4096


class LatencyStats:
    """Online latency statistics with reservoir percentiles.

    Keeps exact count/mean plus a bounded reservoir for percentile
    estimates so that million-tuple runs do not hoard memory.  Once the
    reservoir is full, samples wait in a buffer and their replacement
    slots are drawn in one batch (every :data:`_DRAW_BATCH` samples and
    at each :meth:`percentile`); an array-``high`` draw yields the same
    numbers as one scalar draw per sample, so the reservoir is the one
    per-sample Algorithm R would keep.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0):
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.count = 0
        self.mean = 0.0
        self.max = 0.0
        self._reservoir: List[float] = []
        self._reservoir_size = int(reservoir_size)
        self._pending: List[float] = []
        self._rng = np.random.default_rng(seed)

    def record(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            self._pending.append(value)
            if len(self._pending) >= _DRAW_BATCH:
                self._draw()

    def _draw(self) -> None:
        """Apply the buffered samples: sample ``c`` replaces slot ``j``
        drawn from ``[0, c)`` when ``j`` falls inside the reservoir."""
        pending = self._pending
        if not pending:
            return
        first = self.count - len(pending) + 1
        slots = self._rng.integers(0, np.arange(first, self.count + 1))
        for i in np.flatnonzero(slots < self._reservoir_size).tolist():
            self._reservoir[int(slots[i])] = pending[i]
        pending.clear()

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (q in [0, 100])."""
        self._draw()
        if not self._reservoir:
            return 0.0
        return float(np.percentile(self._reservoir, q))

    def __repr__(self) -> str:
        return (
            f"LatencyStats(count={self.count}, mean={self.mean:.6f}, "
            f"p99={self.percentile(99):.6f})"
        )


@dataclass
class RunMetrics:
    """Outcome of one cluster run (the Figure 5 measurables)."""

    scheme: str
    cpu_delay: float
    duration: float
    warmup: float
    emitted: int
    completed: int
    #: completed tuples per second of measured (post-warmup) time
    throughput: float
    #: end-to-end tuple latency stats (emit -> counter completion)
    latency: LatencyStats
    #: time-averaged live partial counters across workers
    average_memory_counters: float
    peak_memory_counters: int
    #: messages flushed from counters to the aggregator
    aggregation_messages: int
    worker_loads: List[int] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        if not self.worker_loads:
            return 0.0
        loads = np.asarray(self.worker_loads, dtype=np.float64)
        return float(loads.max() - loads.mean())

    def summary(self) -> str:
        return (
            f"{self.scheme}: delay={self.cpu_delay * 1e3:.2f}ms "
            f"throughput={self.throughput:.0f} keys/s "
            f"latency(mean)={self.latency.mean * 1e3:.2f}ms "
            f"memory={self.average_memory_counters:.0f} counters"
        )


@dataclass
class ClusterConfig:
    """Tunable knobs of the simulated cluster.

    Defaults follow the paper's setup where known (1 spout, 9 counters,
    CPU delay swept 0.1-1 ms) and are otherwise calibrated so that the
    spout saturates around 1.5k keys/s at the lowest delay, as observed
    in Figure 5(a).  Times are in seconds.
    """

    num_workers: int = 9
    cpu_delay: float = 0.4e-3
    #: per-tuple cost of emitting at the spout; 0.07 ms puts the spout's
    #: ceiling (~14.3k keys/s) just above the point where the hottest
    #: KG worker saturates at cpu_delay = 0.4 ms, the saturation point
    #: the paper reports for KG
    emit_cost: float = 0.07e-3
    #: one-way network hop latency
    network_delay: float = 0.2e-3
    #: Storm's topology.max.spout.pending equivalent; large enough that
    #: the spout is throttled by worker backlogs, not by round trips.
    #: Split evenly over the spouts.
    max_pending: int = 64
    #: simulated duration and measurement warmup
    duration: float = 20.0
    warmup: float = 4.0
    #: aggregation period (0 = no aggregation stage, as in Fig 5(a))
    aggregation_period: float = 0.0
    #: worker-side cost per flushed counter entry (serialise + send one
    #: partial-count tuple).  Flushes drain as an uninterruptible burst,
    #: stalling the worker's queue and, through the pending window, the
    #: spout -- which is what makes very short aggregation periods eat
    #: into throughput, the trade-off of Figure 5(b).  100 us puts the
    #: PKG-vs-KG crossover near a 30 s aggregation period, where the
    #: paper reports it
    flush_entry_cost: float = 100e-6
    #: number of source PEIs; each spout gets its own partitioner
    #: instance (sharing the hash seed), so PKG runs with genuinely
    #: local per-source estimation, as in the paper's simulations
    num_spouts: int = 1
    #: failure injection: multiply this worker's CPU delay ...
    straggler_worker: int = -1
    #: ... by this factor (1.0 = no straggler)
    straggler_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.cpu_delay <= 0:
            raise ValueError(f"cpu_delay must be positive, got {self.cpu_delay}")
        if self.emit_cost <= 0:
            raise ValueError(f"emit_cost must be positive, got {self.emit_cost}")
        if self.network_delay < 0:
            raise ValueError(f"network_delay must be >= 0, got {self.network_delay}")
        if self.duration <= self.warmup:
            raise ValueError(
                f"duration ({self.duration}s) must exceed warmup ({self.warmup}s)"
            )
        if self.aggregation_period < 0:
            raise ValueError(
                f"aggregation_period must be >= 0, got {self.aggregation_period}"
            )
        if self.flush_entry_cost < 0:
            raise ValueError(
                f"flush_entry_cost must be >= 0, got {self.flush_entry_cost}"
            )
        if self.num_spouts < 1:
            raise ValueError("num_spouts must be >= 1")
        if self.max_pending < self.num_spouts:
            raise ValueError(
                f"max_pending ({self.max_pending}) must be at least "
                f"num_spouts ({self.num_spouts}): each spout needs a window"
            )
        if self.straggler_factor <= 0:
            raise ValueError("straggler_factor must be positive")
        if self.straggler_worker >= self.num_workers:
            raise ValueError(
                f"straggler_worker {self.straggler_worker} out of range "
                f"for {self.num_workers} workers"
            )


@dataclass
class ClusterState:
    """What a run leaves behind, for inspection after the metrics."""

    #: per spout: tuples emitted, and emitted but not yet acked
    emitted: List[int]
    in_flight: List[int]
    #: per worker: live partial counters (key -> count since last flush)
    counts: List[Dict[int, int]]
    #: the aggregator's merged totals over every batch it received
    totals: Dict[int, int]


def simulate_wordcount(
    config: ClusterConfig,
    distribution: "KeyDistribution",
    partitioners: Sequence["Partitioner"],
    cpu_delays: Sequence[float],
    scheme: str,
) -> Tuple[RunMetrics, ClusterState]:
    """Run one word-count cluster for ``config.duration`` seconds.

    ``partitioners`` holds one router per spout and ``cpu_delays`` one
    service time per worker; ``scheme`` labels the metrics.  All
    spouts draw from one key sequence, sampled from ``distribution``
    with ``config.seed``.
    """
    loop = EventLoop()
    schedule = loop.schedule
    latency = LatencyStats(seed=config.seed)
    warmup, hop = config.warmup, config.network_delay
    num_spouts, num_workers = config.num_spouts, config.num_workers
    emit_cost = config.emit_cost * num_spouts
    window = config.max_pending // num_spouts
    period, entry_cost = config.aggregation_period, config.flush_entry_cost

    rng = np.random.default_rng(config.seed)

    def key_batches() -> Iterator[int]:
        while True:
            yield from distribution.sample(_KEY_BATCH, rng).tolist()

    keys = key_batches()

    routes = [p.route for p in partitioners]
    emitting = [False] * num_spouts
    emitted = [0] * num_spouts
    in_flight = [0] * num_spouts

    # A tuple in flight is (key, emit time, origin spout).
    queues: List[Deque[Tuple[int, float, int]]] = [
        deque() for _ in range(num_workers)
    ]
    busy = [False] * num_workers
    flush_requested = [False] * num_workers
    counts: List[Dict[int, int]] = [{} for _ in range(num_workers)]
    processed = [0] * num_workers

    totals: Dict[int, int] = {}
    received = 0
    memory_samples, memory_sum, memory_peak = 0, 0.0, 0

    def try_emit(spout: int) -> None:
        if emitting[spout] or in_flight[spout] >= window:
            return
        emitting[spout] = True
        schedule(emit_cost, lambda: finish_emit(spout))

    def finish_emit(spout: int) -> None:
        emitting[spout] = False
        key = next(keys)
        now = loop.now
        worker = routes[spout](key, now)
        in_flight[spout] += 1
        emitted[spout] += 1
        tup = (key, now, spout)
        schedule(hop, lambda: enqueue(worker, tup))
        try_emit(spout)

    def on_ack(spout: int) -> None:
        in_flight[spout] -= 1
        try_emit(spout)

    def enqueue(worker: int, tup: Tuple[int, float, int]) -> None:
        queues[worker].append(tup)
        if not busy[worker]:
            start_next(worker)

    def start_next(worker: int) -> None:
        if flush_requested[worker]:
            begin_flush(worker)
            return
        queue = queues[worker]
        if not queue:
            busy[worker] = False
            return
        busy[worker] = True
        tup = queue.popleft()
        schedule(cpu_delays[worker], lambda: complete(worker, tup))

    def complete(worker: int, tup: Tuple[int, float, int]) -> None:
        key, emitted_at, spout = tup
        live = counts[worker]
        live[key] = live.get(key, 0) + 1
        processed[worker] += 1
        now = loop.now
        if now >= warmup:
            latency.record(now - emitted_at)
        schedule(hop, lambda: on_ack(spout))
        start_next(worker)

    def flush_timer(worker: int) -> None:
        flush_requested[worker] = True
        if not busy[worker]:
            begin_flush(worker)
        schedule(period, lambda: flush_timer(worker))

    def begin_flush(worker: int) -> None:
        flush_requested[worker] = False
        partials = counts[worker]
        if not partials:  # nothing to ship: back to the queue
            start_next(worker)
            return
        busy[worker] = True
        counts[worker] = {}
        schedule(len(partials) * entry_cost, lambda: ship(worker, partials))

    def ship(worker: int, partials: Dict[int, int]) -> None:
        schedule(hop, lambda: receive(partials))
        start_next(worker)

    def receive(partials: Dict[int, int]) -> None:
        nonlocal received
        received += len(partials)
        for key, count in partials.items():
            totals[key] = totals.get(key, 0) + count

    def sample_memory() -> None:
        nonlocal memory_samples, memory_sum, memory_peak
        live = sum(len(c) for c in counts)
        if loop.now >= warmup:
            memory_samples += 1
            memory_sum += live
        if live > memory_peak:
            memory_peak = live
        schedule(MEMORY_SAMPLE_PERIOD, sample_memory)

    if period > 0:
        # Workers flush on their own staggered clocks, as executors in
        # a real DSPE would.
        for w in range(num_workers):
            schedule(period + period * w / num_workers, partial(flush_timer, w))
    schedule(MEMORY_SAMPLE_PERIOD, sample_memory)
    for s in range(num_spouts):
        try_emit(s)
    loop.run_until(config.duration)

    # One latency record per post-warmup completion.
    completed = latency.count
    metrics = RunMetrics(
        scheme=scheme.upper(),
        cpu_delay=config.cpu_delay,
        duration=config.duration,
        warmup=warmup,
        emitted=sum(emitted),
        completed=completed,
        throughput=completed / (config.duration - warmup),
        latency=latency,
        average_memory_counters=(
            memory_sum / memory_samples if memory_samples else 0.0
        ),
        peak_memory_counters=memory_peak,
        aggregation_messages=received,
        worker_loads=processed,
    )
    return metrics, ClusterState(emitted, in_flight, counts, totals)


class WordCountCluster:
    """A runnable spout -> counters (-> aggregator) cluster."""

    def __init__(
        self,
        scheme: str,
        distribution: "KeyDistribution",
        config: Optional[ClusterConfig] = None,
        partitioner: Optional["Partitioner"] = None,
        partitioner_factory: Optional[Callable[[int], "Partitioner"]] = None,
        worker_cpu_delays: Optional[Sequence[float]] = None,
    ):
        """Assemble the cluster.

        ``scheme`` is any registry name or spec string (``"pkg:d=3"``);
        alternatively inject a built ``partitioner`` (single spout) or a
        ``partitioner_factory(spout_index)`` (any spout count).
        ``worker_cpu_delays`` makes the pool heterogeneous: one CPU
        delay per worker, overriding ``config.cpu_delay``; the straggler
        factor still applies on top.
        """
        from repro.api.registry import make_partitioner, parse_spec

        cfg = self.config = config or ClusterConfig()
        # Display name: the base scheme, spec parameters stripped.
        self.scheme = parse_spec(scheme)[0]
        self.distribution = distribution
        if partitioner is not None:
            if partitioner_factory is not None:
                raise ValueError(
                    "pass either partitioner or partitioner_factory, not both"
                )
            if partitioner.num_workers != cfg.num_workers:
                raise ValueError(
                    f"injected partitioner routes to {partitioner.num_workers} "
                    f"workers but the cluster has {cfg.num_workers}"
                )
            if cfg.num_spouts > 1:
                raise ValueError(
                    "explicit partitioner injection only supports one spout; "
                    "multi-spout clusters build one instance per spout"
                )
            self.partitioners = [partitioner]
        elif partitioner_factory is not None:
            self.partitioners = [partitioner_factory(s) for s in range(cfg.num_spouts)]
        else:
            # Sources share the hash seed, so candidate sets agree
            # across spouts while load estimates stay private: exactly
            # PKG's deployment story.
            self.partitioners = [
                make_partitioner(scheme, cfg.num_workers, seed=cfg.seed)
                for _ in range(cfg.num_spouts)
            ]
        self.partitioner = self.partitioners[0]

        delays: List[float] = [cfg.cpu_delay] * cfg.num_workers
        if worker_cpu_delays is not None:
            delays = [float(d) for d in worker_cpu_delays]
            if len(delays) != cfg.num_workers:
                raise ValueError(
                    f"worker_cpu_delays has {len(delays)} entries "
                    f"for {cfg.num_workers} workers"
                )
            if any(d <= 0 for d in delays):
                raise ValueError("every worker CPU delay must be positive")
        #: each worker's service time, straggler factor applied
        self.cpu_delays = [
            d * (cfg.straggler_factor if i == cfg.straggler_worker else 1.0)
            for i, d in enumerate(delays)
        ]
        #: spout, worker and aggregator state after :meth:`run`
        self.state: Optional[ClusterState] = None

    def run(self) -> RunMetrics:
        """Run the cluster for ``config.duration`` simulated seconds."""
        metrics, self.state = simulate_wordcount(
            self.config,
            self.distribution,
            self.partitioners,
            self.cpu_delays,
            self.scheme,
        )
        return metrics


def run_wordcount(
    scheme: str,
    distribution: "KeyDistribution",
    config: Optional[ClusterConfig] = None,
    partitioner: Optional["Partitioner"] = None,
    **cluster_kwargs: Any,
) -> RunMetrics:
    """Build and run one word-count cluster; returns its metrics.

    ``scheme`` may be any registry spec string (``"pkg:d=3"``).  Extra
    keyword arguments (``partitioner_factory``, ``worker_cpu_delays``)
    are forwarded to :class:`WordCountCluster`.
    """
    cluster = WordCountCluster(
        scheme, distribution, config, partitioner, **cluster_kwargs
    )
    return cluster.run()
