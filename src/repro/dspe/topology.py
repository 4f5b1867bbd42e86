"""The word-count cluster of the paper's Q4, assembled and run.

One spout, W counter workers, optionally an aggregator -- the topology
of Section V's deployment experiments.  ``run_wordcount`` is the
entry point used by the Figure 5 harnesses and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.api.registry import make_partitioner, parse_spec
from repro.dspe.engine import Simulator
from repro.dspe.executors import AggregatorExecutor, SpoutExecutor, WorkerExecutor
from repro.dspe.metrics import LatencyStats, RunMetrics
from repro.hashing import HashFamily
from repro.partitioning import Partitioner
from repro.streams.distributions import KeyDistribution


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
    #: the spout is throttled by worker backlogs, not by round trips
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
    #: aggregator-side cost per received entry
    aggregator_entry_cost: float = 2e-6
    #: period of the memory sampler
    memory_sample_period: float = 0.5
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
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")
        if self.num_spouts < 1:
            raise ValueError("num_spouts must be >= 1")
        if self.straggler_factor <= 0:
            raise ValueError("straggler_factor must be positive")
        if self.straggler_worker >= self.num_workers:
            raise ValueError("straggler_worker out of range")


class WordCountCluster:
    """A runnable spout -> counters (-> aggregator) cluster."""

    def __init__(
        self,
        scheme: str,
        distribution: KeyDistribution,
        config: Optional[ClusterConfig] = None,
        partitioner: Optional[Partitioner] = None,
        partitioner_factory: Optional[Callable[[int], Partitioner]] = None,
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
        self.config = config or ClusterConfig()
        # Display name: the base scheme, spec parameters stripped.
        self.scheme = parse_spec(scheme)[0]
        if partitioner is not None:
            if partitioner_factory is not None:
                raise ValueError(
                    "pass either partitioner or partitioner_factory, not both"
                )
            if partitioner.num_workers != self.config.num_workers:
                raise ValueError(
                    f"injected partitioner routes to {partitioner.num_workers} "
                    f"workers but the cluster has {self.config.num_workers}"
                )
            if self.config.num_spouts > 1:
                raise ValueError(
                    "explicit partitioner injection only supports one spout; "
                    "multi-spout clusters build one instance per spout"
                )
            self._partitioner_factory = lambda s: partitioner
        elif partitioner_factory is not None:
            self._partitioner_factory = partitioner_factory
        else:
            # Route the scheme spec through the registry; sources share
            # the hash seed so candidate sets agree across spouts while
            # load estimates stay private.
            spec, cfg = scheme, self.config
            self._partitioner_factory = lambda s: make_partitioner(
                spec, cfg.num_workers, seed=cfg.seed
            )
        self.partitioner = self._partitioner_factory(0)
        self.distribution = distribution
        if worker_cpu_delays is not None:
            worker_cpu_delays = [float(d) for d in worker_cpu_delays]
            if len(worker_cpu_delays) != self.config.num_workers:
                raise ValueError(
                    f"worker_cpu_delays has {len(worker_cpu_delays)} entries "
                    f"for {self.config.num_workers} workers"
                )
            if any(d <= 0 for d in worker_cpu_delays):
                raise ValueError("every worker CPU delay must be positive")
        self.worker_cpu_delays = worker_cpu_delays

        self.sim = Simulator()
        self.latency = LatencyStats(seed=self.config.seed)
        self._key_buffer = np.array([], dtype=np.int64)
        self._key_pos = 0
        self._rng = np.random.default_rng(self.config.seed)

        cfg = self.config
        self.aggregator: Optional[AggregatorExecutor] = None
        flush_period = 0.0
        if cfg.aggregation_period > 0:
            self.aggregator = AggregatorExecutor(
                self.sim, entry_cost=cfg.aggregator_entry_cost
            )
            flush_period = cfg.aggregation_period

        self.workers = [
            WorkerExecutor(
                self.sim,
                spout=None,  # wired below
                cpu_delay=(
                    self.worker_cpu_delays[i]
                    if self.worker_cpu_delays is not None
                    else cfg.cpu_delay
                )
                * (cfg.straggler_factor if i == cfg.straggler_worker else 1.0),
                network_delay=cfg.network_delay,
                latency=self.latency,
                warmup=cfg.warmup,
                aggregator=self.aggregator,
                flush_period=flush_period,
                flush_entry_cost=cfg.flush_entry_cost,
                flush_offset=(
                    flush_period * i / cfg.num_workers if flush_period else 0.0
                ),
            )
            for i in range(cfg.num_workers)
        ]
        # One spout per source PEI; each uses its own partitioner
        # instance (same hash seed -> shared candidate sets, private
        # load estimates: exactly PKG's deployment story).
        self.spouts = []
        for s in range(cfg.num_spouts):
            if s == 0:
                spout_partitioner = self.partitioner
            else:
                spout_partitioner = self._partitioner_factory(s)
            self.spouts.append(
                SpoutExecutor(
                    self.sim,
                    key_source=self._next_key,
                    partitioner=spout_partitioner,
                    workers=self.workers,
                    emit_cost=cfg.emit_cost * cfg.num_spouts,
                    network_delay=cfg.network_delay,
                    max_pending=max(1, cfg.max_pending // cfg.num_spouts),
                )
            )
        self.spout = self.spouts[0]
        # Tuples carry their origin spout, so workers ack the right one
        # (the `spout` field is only the single-spout fallback).
        for w in self.workers:
            w.spout = self.spouts[0]

        # time-weighted memory sampling
        self._memory_samples = 0
        self._memory_sum = 0.0
        self._memory_peak = 0

    def _next_key(self):
        if self._key_pos >= self._key_buffer.size:
            self._key_buffer = self.distribution.sample(16384, self._rng)
            self._key_pos = 0
        key = int(self._key_buffer[self._key_pos])
        self._key_pos += 1
        return key

    def _sample_memory(self) -> None:
        live = sum(w.memory_counters() for w in self.workers)
        if self.sim.now >= self.config.warmup:
            self._memory_samples += 1
            self._memory_sum += live
        if live > self._memory_peak:
            self._memory_peak = live
        self.sim.schedule(self.config.memory_sample_period, self._sample_memory)

    def run(self) -> RunMetrics:
        """Run the cluster for ``config.duration`` simulated seconds."""
        cfg = self.config
        self.sim.schedule(cfg.memory_sample_period, self._sample_memory)
        for spout in self.spouts:
            spout.start()
        self.sim.run_until(cfg.duration)

        completed = sum(w.completed_after_warmup for w in self.workers)
        measured_time = cfg.duration - cfg.warmup
        average_memory = (
            self._memory_sum / self._memory_samples if self._memory_samples else 0.0
        )
        return RunMetrics(
            scheme=self.scheme.upper(),
            cpu_delay=cfg.cpu_delay,
            duration=cfg.duration,
            warmup=cfg.warmup,
            emitted=sum(s.emitted for s in self.spouts),
            completed=completed,
            throughput=completed / measured_time,
            latency=self.latency,
            average_memory_counters=average_memory,
            peak_memory_counters=self._memory_peak,
            aggregation_messages=(
                self.aggregator.received_entries if self.aggregator else 0
            ),
            worker_loads=[w.processed for w in self.workers],
        )


def run_wordcount(
    scheme: str,
    distribution: KeyDistribution,
    config: Optional[ClusterConfig] = None,
    partitioner: Optional[Partitioner] = None,
    **cluster_kwargs,
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
