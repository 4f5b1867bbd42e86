"""Fluent topology builder for the simulated DSPE cluster.

Generalises the hard-coded word-count cluster of
:mod:`repro.queueing.cluster`: arbitrary source/worker/aggregator
configurations -- including stragglers and heterogeneous workers -- are
expressed by chaining, without editing dataclasses::

    topo = (Topology()
            .source("WP")
            .spouts(2)
            .partition_by("pkg:d=2")
            .workers(9, cpu_delay=0.4e-3)
            .straggler(3, factor=4.0)
            .aggregate(every=30.0)
            .timing(duration=20.0, warmup=4.0)
            .seed(7))
    result = topo.run()          # or: repro.api.run(topo)

Every setter validates its own arguments eagerly and raises
:class:`TopologyError`.  Cross-field constraints (straggler index vs
worker count, duration vs warmup, pending window vs spouts) are
:class:`~repro.queueing.cluster.ClusterConfig`'s; :meth:`build`
re-raises its errors as :class:`TopologyError`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Type,
    Union,
)

from repro.api.registry import make_partitioner, resolve_scheme_name

if TYPE_CHECKING:
    from repro.api.facade import RunResult
    from repro.queueing.cluster import ClusterConfig, WordCountCluster
    from repro.partitioning.base import Partitioner
    from repro.streams.distributions import KeyDistribution

#: what .partition_by()/.source() accept: spec/name, class, or instance.
_SchemeArg = Union[str, "Partitioner", Type["Partitioner"]]
_SourceArg = Union[str, "KeyDistribution"]

__all__ = ["Topology", "TopologyError"]


class TopologyError(ValueError):
    """Invalid topology construction."""


class Topology:
    """Fluent builder for spout -> workers (-> aggregator) clusters."""

    def __init__(self) -> None:
        self._source: Optional[_SourceArg] = None
        self._num_spouts = 1
        self._scheme: _SchemeArg = "pkg"
        self._scheme_kwargs: Dict[str, Any] = {}
        self._partitioner: Optional["Partitioner"] = None  # instance injection
        self._num_workers = 9
        self._cpu_delay = 0.4e-3
        self._worker_delays: Optional[List[float]] = None
        self._straggler_worker = -1
        self._straggler_factor = 1.0
        self._aggregation_period = 0.0
        self._duration = 20.0
        self._warmup = 4.0
        #: ClusterConfig fields set explicitly; the rest keep its defaults
        self._overrides: Dict[str, Any] = {}
        self._seed = 0

    # ---------------------------------------------------------- sources

    def source(self, distribution: _SourceArg) -> "Topology":
        """Key source: a ``KeyDistribution`` or a Table I dataset symbol."""
        if distribution is None:
            raise TopologyError("source distribution must not be None")
        self._source = distribution
        return self

    def spouts(self, count: int) -> "Topology":
        """Number of source PEIs (each with its own partitioner state)."""
        if count < 1:
            raise TopologyError(f"spouts must be >= 1, got {count}")
        self._num_spouts = int(count)
        return self

    # ----------------------------------------------------- partitioning

    def partition_by(self, scheme: _SchemeArg, **kwargs: Any) -> "Topology":
        """Partitioning scheme: spec string, name, class, or instance.

        Spec strings go through the registry (``"pkg:d=3"``); keyword
        arguments override spec parameters.  Passing a built
        :class:`~repro.partitioning.base.Partitioner` instance pins that
        exact object to the (single) spout.
        """
        from repro.partitioning.base import Partitioner

        if isinstance(scheme, Partitioner):
            if kwargs:
                raise TopologyError(
                    "cannot apply scheme kwargs to a partitioner instance"
                )
            self._partitioner = scheme
            self._scheme = scheme.name.lower()
            self._scheme_kwargs = {}
            return self
        if isinstance(scheme, str):
            resolve_scheme_name(scheme)  # fail fast on unknown names
        self._partitioner = None
        self._scheme = scheme
        self._scheme_kwargs = dict(kwargs)
        return self

    # ---------------------------------------------------------- workers

    def workers(
        self,
        count: Optional[int] = None,
        cpu_delay: Optional[float] = None,
        delays: Optional[Sequence[float]] = None,
    ) -> "Topology":
        """Worker pool: uniform ``cpu_delay`` or per-worker ``delays``.

        ``delays`` makes the pool heterogeneous (one CPU delay per
        worker); ``count`` may be omitted then and is inferred.
        """
        if delays is not None:
            delays = [float(d) for d in delays]
            if not delays:
                raise TopologyError("delays must not be empty")
            if any(d <= 0 for d in delays):
                raise TopologyError("every worker delay must be positive")
            if count is not None and count != len(delays):
                raise TopologyError(
                    f"count={count} disagrees with len(delays)={len(delays)}"
                )
            self._worker_delays = list(delays)
            self._num_workers = len(delays)
        elif count is not None:
            if count < 1:
                raise TopologyError(f"workers must be >= 1, got {count}")
            self._num_workers = int(count)
            self._worker_delays = None
        elif cpu_delay is None:
            raise TopologyError("workers() needs count, cpu_delay, or delays")
        if cpu_delay is not None:
            if cpu_delay <= 0:
                raise TopologyError(f"cpu_delay must be positive, got {cpu_delay}")
            self._cpu_delay = float(cpu_delay)
        return self

    def straggler(self, worker: int, factor: float) -> "Topology":
        """Slow one worker's CPU by ``factor`` (failure injection)."""
        if worker < 0:
            raise TopologyError(f"straggler worker must be >= 0, got {worker}")
        if factor <= 0:
            raise TopologyError(f"straggler factor must be positive, got {factor}")
        self._straggler_worker = int(worker)
        self._straggler_factor = float(factor)
        return self

    # ------------------------------------------------------ aggregation

    def aggregate(
        self, every: float, flush_entry_cost: Optional[float] = None
    ) -> "Topology":
        """Enable the aggregation stage, flushing every ``every`` seconds.

        ``every=0`` disables aggregation (the Figure 5(a) setup).
        """
        if every < 0:
            raise TopologyError(f"aggregation period must be >= 0, got {every}")
        self._aggregation_period = float(every)
        if flush_entry_cost is not None:
            if flush_entry_cost < 0:
                raise TopologyError("flush_entry_cost must be >= 0")
            self._overrides["flush_entry_cost"] = float(flush_entry_cost)
        return self

    # ----------------------------------------------------------- timing

    def timing(
        self, duration: Optional[float] = None, warmup: Optional[float] = None
    ) -> "Topology":
        """Simulated run length and measurement warmup, in seconds."""
        if duration is not None:
            if duration <= 0:
                raise TopologyError(f"duration must be positive, got {duration}")
            self._duration = float(duration)
        if warmup is not None:
            if warmup < 0:
                raise TopologyError(f"warmup must be >= 0, got {warmup}")
            self._warmup = float(warmup)
        return self

    def network(
        self,
        delay: Optional[float] = None,
        emit_cost: Optional[float] = None,
        max_pending: Optional[int] = None,
    ) -> "Topology":
        """Network hop latency, spout emit cost, and pending window."""
        if delay is not None:
            if delay < 0:
                raise TopologyError(f"network delay must be >= 0, got {delay}")
            self._overrides["network_delay"] = float(delay)
        if emit_cost is not None:
            if emit_cost <= 0:
                raise TopologyError(f"emit_cost must be positive, got {emit_cost}")
            self._overrides["emit_cost"] = float(emit_cost)
        if max_pending is not None:
            if max_pending < 1:
                raise TopologyError(f"max_pending must be >= 1, got {max_pending}")
            self._overrides["max_pending"] = int(max_pending)
        return self

    def seed(self, seed: int) -> "Topology":
        """Seed for hashing, sampling, and latency reservoirs."""
        self._seed = int(seed)
        return self

    # ------------------------------------------------------------ build

    def to_config(self) -> "ClusterConfig":
        """The :class:`~repro.queueing.cluster.ClusterConfig` this builds."""
        from repro.queueing.cluster import ClusterConfig

        try:
            return ClusterConfig(
                num_workers=self._num_workers,
                cpu_delay=self._cpu_delay,
                duration=self._duration,
                warmup=self._warmup,
                aggregation_period=self._aggregation_period,
                num_spouts=self._num_spouts,
                straggler_worker=self._straggler_worker,
                straggler_factor=self._straggler_factor,
                seed=self._seed,
                **self._overrides,
            )
        except ValueError as err:  # a cross-field constraint
            raise TopologyError(str(err)) from err

    def _resolve_source(
        self, distribution: Optional[_SourceArg] = None
    ) -> "KeyDistribution":
        from repro.streams.datasets import get_dataset

        dist = distribution if distribution is not None else self._source
        if dist is None:
            raise TopologyError(
                "no key source: call .source(...) or pass a distribution"
            )
        if isinstance(dist, str):
            dist = get_dataset(dist).distribution()
        return dist

    def build(
        self, distribution: Optional[_SourceArg] = None
    ) -> "WordCountCluster":
        """Materialise a runnable :class:`WordCountCluster`."""
        from repro.queueing.cluster import WordCountCluster

        config = self.to_config()
        if self._partitioner is not None and self._num_spouts > 1:
            raise TopologyError(
                "a pinned partitioner instance only supports one spout"
            )
        return WordCountCluster(
            self._scheme if isinstance(self._scheme, str) else "custom",
            self._resolve_source(distribution),
            config,
            partitioner=self._partitioner,
            partitioner_factory=(
                None
                if self._partitioner is not None
                else self._make_partitioner_factory(config)
            ),
            worker_cpu_delays=self._worker_delays,
        )

    def _make_partitioner_factory(
        self, config: "ClusterConfig"
    ) -> Callable[[int], "Partitioner"]:
        scheme, kwargs = self._scheme, dict(self._scheme_kwargs)

        def factory(_spout_index: int) -> "Partitioner":
            return make_partitioner(
                scheme, config.num_workers, seed=config.seed, **kwargs
            )

        return factory

    def run(self, distribution: Optional[_SourceArg] = None) -> "RunResult":
        """Build and run; returns the unified :class:`RunResult`."""
        from repro.api.facade import run as run_facade

        return run_facade(self, distribution=distribution)

    def __repr__(self) -> str:
        scheme = self._scheme if self._partitioner is None else self._partitioner
        return (
            f"Topology(spouts={self._num_spouts}, scheme={scheme!r}, "
            f"workers={self._num_workers}, "
            f"aggregate={self._aggregation_period}, seed={self._seed})"
        )
