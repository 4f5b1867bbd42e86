"""Open-loop queueing simulation layered on the deterministic EventLoop.

This is the measurement instrument behind every latency figure: W
workers, each a bounded FIFO queue in front of a single server, fed by
a seeded arrival process and routed by any registered
:class:`~repro.partitioning.base.Partitioner`.  Per-message sojourn
times (arrival to departure) land in per-worker
:class:`~repro.queueing.latency.LatencyStore` sketches that merge into
one cluster-wide store.

Mechanics:

* arrival and service times are drawn **up front** from one seeded
  generator, so a run is a pure function of
  ``(keys, partitioner, arrivals, service, seed)`` -- identical across
  processes and job counts;
* when routing and admission cannot depend on queue state --
  unbounded queues and a partitioner without an ``on_complete`` hook,
  which is every registered scheme except ``jbsq`` -- the open-loop
  run takes the **Lindley pass**: the keys are routed ahead in chunks
  by ``partitioner.route_chunk`` (arrival times as ``timestamps``),
  then one sequential pass sets each departure to
  ``max(arrival, worker free) + service``.  That is the float
  arithmetic the event loop performs, so the result is bit-identical
  to the event path;
* otherwise the run goes through the event loop: each arrival routes
  through ``partitioner.route(key, now)`` at its arrival instant, so
  queue-depth-aware schemes (``jbsq``) observe the true instantaneous
  backlog, and partitioners exposing an ``on_complete(worker, now)``
  hook (the
  :class:`~repro.partitioning.jbsq.JoinBoundedShortestQueue` feedback
  channel) are notified at every departure and drop;
* a full queue drops the arrival (counted per worker); ``None``
  capacity means unbounded (what the analytic validation uses).

:func:`simulate_mmc` is the shared-queue sibling -- ``c`` servers
draining one FIFO -- whose only purpose is validation against the
Erlang-C closed form in :mod:`repro.queueing.analytic`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro._native import get_kernels
from repro.core.chunks import KeyStream, as_key_array
from repro.core.engine import EventLoop
from repro.queueing.arrivals import (
    ArrivalProcess,
    ClosedLoopPopulation,
    PoissonArrivals,
)
from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.queueing.service import ServiceTimeDistribution

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = [
    "QueueingResult",
    "simulate_queueing",
    "simulate_closed_loop",
    "simulate_mmc",
]

#: the departure-feedback hook queue-aware partitioners may expose.
CompletionHook = Callable[[int, float], None]

#: one worker's latency samples, in its FIFO order
_Samples = Union[List[float], np.ndarray]

#: keys routed per ``route_chunk`` call on the Lindley pass; bounds the
#: per-chunk arrays the routing kernels allocate.
_ROUTE_CHUNK = 8192


@dataclass
class QueueingResult:
    """Outcome of one queueing simulation."""

    num_workers: int
    num_messages: int
    #: messages that finished service (dropped ones never do)
    completed: int
    dropped: int
    #: simulated time of the last departure
    end_time: float
    #: merged sojourn sketch over all workers (post-warmup samples)
    latency: LatencyStore
    #: merged *waiting* sketch: sojourn minus the message's own service
    #: time, the quantity the closed-form W_q predictions speak about
    waiting: LatencyStore
    #: per-worker sojourn sketches (what :attr:`latency` merged)
    worker_latency: List[LatencyStore]
    #: per-worker total service time actually performed
    busy_time: np.ndarray
    dropped_per_worker: np.ndarray
    #: leading messages excluded from the latency sketches
    warmup_messages: int

    @property
    def utilization(self) -> float:
        """Realised cluster utilization: busy time over W * end_time."""
        if self.end_time <= 0:
            return 0.0
        return float(self.busy_time.sum()) / (self.num_workers * self.end_time)

    @property
    def worker_utilization(self) -> np.ndarray:
        """Per-worker realised utilization."""
        if self.end_time <= 0:
            return np.zeros(self.num_workers, dtype=np.float64)
        out: np.ndarray = self.busy_time / self.end_time
        return out

    @property
    def throughput(self) -> float:
        """Realised completions per simulated second."""
        if self.end_time <= 0:
            return 0.0
        return self.completed / self.end_time

    def mean_sojourn(self) -> float:
        return self.latency.mean()

    def mean_waiting(self) -> float:
        """Exact mean of per-message waiting times (post-warmup)."""
        return self.waiting.mean()

    def sojourn_quantile(self, q: float) -> float:
        return self.latency.quantile(q)


def _result(
    num_workers: int,
    num_messages: int,
    completed: int,
    dropped: int,
    end_time: float,
    buffers: Sequence[_Samples],
    waiting_buffers: Sequence[_Samples],
    busy_time: np.ndarray,
    dropped_per_worker: np.ndarray,
    warmup_messages: int,
    relative_error: float,
) -> QueueingResult:
    stores: List[LatencyStore] = []
    for buffer in buffers:
        store = LatencyStore(relative_error)
        store.record_many(np.asarray(buffer, dtype=np.float64))
        stores.append(store)
    waiting = LatencyStore(relative_error)
    for buffer in waiting_buffers:
        waiting.record_many(np.asarray(buffer, dtype=np.float64))
    return QueueingResult(
        num_workers=num_workers,
        num_messages=num_messages,
        completed=completed,
        dropped=dropped,
        end_time=end_time,
        latency=LatencyStore.merge_all(stores),
        waiting=waiting,
        worker_latency=stores,
        busy_time=busy_time,
        dropped_per_worker=dropped_per_worker,
        warmup_messages=warmup_messages,
    )


def _warmup_count(warmup_fraction: float, num_messages: int) -> int:
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    return int(warmup_fraction * num_messages)


class _Stations:
    """W single-server FIFO worker queues on one event loop.

    The worker side shared by the open- and closed-loop simulators.
    :attr:`admit` queues message ``index`` at a worker and starts it if
    the worker is idle.  Each departure records the post-warmup sojourn
    and waiting time, notifies the partitioner's ``on_complete`` hook if
    it has one, starts the next queued message, and finally runs
    ``after_departure``.
    """

    def __init__(
        self,
        loop: EventLoop,
        partitioner: "Partitioner",
        arrival_times: List[float],
        service_times: List[float],
        warmup: int,
        after_departure: Optional[Callable[[], None]] = None,
    ) -> None:
        num_workers = partitioner.num_workers
        on_complete = cast(
            Optional[CompletionHook], getattr(partitioner, "on_complete", None)
        )
        self.on_complete = on_complete
        queues: List[Deque[int]] = [deque() for _ in range(num_workers)]
        busy = [False] * num_workers
        busy_time = np.zeros(num_workers, dtype=np.float64)
        buffers: List[List[float]] = [[] for _ in range(num_workers)]
        waiting_buffers: List[List[float]] = [[] for _ in range(num_workers)]
        self.queues, self.busy, self.busy_time = queues, busy, busy_time
        self.buffers, self.waiting_buffers = buffers, waiting_buffers
        self.completed = 0

        def start_service(worker: int) -> None:
            index = queues[worker].popleft()
            busy[worker] = True
            duration = service_times[index]
            busy_time[worker] += duration
            loop.schedule(duration, lambda: depart(worker, index))

        def depart(worker: int, index: int) -> None:
            self.completed += 1
            if index >= warmup:
                sojourn = loop.now - arrival_times[index]
                buffers[worker].append(sojourn)
                waiting_buffers[worker].append(sojourn - service_times[index])
            if on_complete is not None:
                on_complete(worker, loop.now)
            if queues[worker]:
                start_service(worker)
            else:
                busy[worker] = False
            if after_departure is not None:
                after_departure()

        def admit(worker: int, index: int) -> None:
            queues[worker].append(index)
            if not busy[worker]:
                start_service(worker)

        self.admit = admit


def _simulate_lindley(
    key_array: np.ndarray,
    partitioner: "Partitioner",
    arrival_array: np.ndarray,
    service_array: np.ndarray,
    warmup: int,
    relative_error: float,
) -> QueueingResult:
    """The open-loop run without events, for queue-blind routing.

    With unbounded queues and no completion feedback, nothing a message
    meets after routing can change where later messages go, so the keys
    are routed ahead in chunks and each FIFO worker obeys the Lindley
    recursion: message ``i`` departs at ``max(a_i, free[w]) + s_i``,
    ``free[w]`` being the worker's previous departure.  Service starts
    at the arrival when the worker is idle and at its predecessor's
    departure otherwise, the very floats the event loop adds; each
    worker's departures, sketch samples and busy time accumulate in its
    FIFO order, as the event loop's do.  The native ``repro_lindley``
    makes the pass when the kernels are built, with the same float
    operations in the same order; :func:`_lindley_python` is its
    reference.
    """
    n = int(key_array.size)
    num_workers = partitioner.num_workers
    workers = np.empty(n, dtype=np.int64)
    for start in range(0, n, _ROUTE_CHUNK):
        stop = min(n, start + _ROUTE_CHUNK)
        workers[start:stop] = partitioner.route_chunk(
            key_array[start:stop], arrival_array[start:stop]
        )
    kernels = get_kernels()
    arrival_array = np.ascontiguousarray(arrival_array, dtype=np.float64)
    service_array = np.ascontiguousarray(service_array, dtype=np.float64)
    free = np.zeros(num_workers, dtype=np.float64)
    busy_time = np.zeros(num_workers, dtype=np.float64)
    if kernels is not None:
        bounds, sojourns, waiting = kernels.lindley(
            workers, arrival_array, service_array, warmup, free, busy_time
        )
        edges = bounds.tolist()
        buffers: Sequence[_Samples] = [
            sojourns[lo:hi] for lo, hi in zip(edges, edges[1:])
        ]
        waiting_buffers: Sequence[_Samples] = [
            waiting[lo:hi] for lo, hi in zip(edges, edges[1:])
        ]
    else:
        buffers, waiting_buffers = _lindley_python(
            workers, arrival_array, service_array, warmup, free, busy_time
        )
    return _result(
        num_workers,
        n,
        n,
        0,
        # each worker's last departure is its latest; 0.0 when n == 0
        float(free.max()),
        buffers,
        waiting_buffers,
        busy_time,
        np.zeros(num_workers, dtype=np.int64),
        warmup,
        relative_error,
    )


def _lindley_python(
    workers: np.ndarray,
    arrival_array: np.ndarray,
    service_array: np.ndarray,
    warmup: int,
    free_out: np.ndarray,
    busy_out: np.ndarray,
) -> Tuple[List[List[float]], List[List[float]]]:
    """The Lindley pass in Python, the reference of ``repro_lindley``:
    per-worker sojourn and waiting lists, with each worker's last
    departure and busy total written to ``free_out`` and ``busy_out``."""
    num_workers = free_out.size
    arrival_times: List[float] = arrival_array.tolist()
    service_times: List[float] = service_array.tolist()
    free = [0.0] * num_workers
    busy = [0.0] * num_workers
    buffers: List[List[float]] = [[] for _ in range(num_workers)]
    waiting_buffers: List[List[float]] = [[] for _ in range(num_workers)]
    for index, worker in enumerate(workers.tolist()):
        arrival = arrival_times[index]
        duration = service_times[index]
        ready = free[worker]
        departure = (arrival if arrival > ready else ready) + duration
        free[worker] = departure
        busy[worker] += duration
        if index >= warmup:
            sojourn = departure - arrival
            buffers[worker].append(sojourn)
            waiting_buffers[worker].append(sojourn - duration)
    free_out[:] = free
    busy_out[:] = busy
    return buffers, waiting_buffers


def simulate_queueing(
    keys: KeyStream,
    partitioner: "Partitioner",
    arrivals: ArrivalProcess,
    service: ServiceTimeDistribution,
    *,
    seed: int,
    queue_capacity: Optional[int] = None,
    warmup_fraction: float = 0.0,
    relative_error: float = DEFAULT_RELATIVE_ERROR,
) -> QueueingResult:
    """Run one keyed stream through partitioned per-worker FIFO queues.

    ``queue_capacity`` bounds each worker's backlog *including* the
    message in service; arrivals beyond it are dropped (and reported),
    never re-queued.  ``warmup_fraction`` excludes the leading fraction
    of messages from the latency sketches so transient ramp-up does not
    bias steady-state tails.  Unbounded runs of a partitioner without an
    ``on_complete`` hook take the event-free Lindley pass; bounded or
    feedback runs go through the event loop.  Both give the same result.
    """
    key_array = as_key_array(keys)
    n = int(key_array.size)
    if queue_capacity is not None and queue_capacity < 1:
        raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
    warmup = _warmup_count(warmup_fraction, n)
    num_workers = partitioner.num_workers

    rng = np.random.default_rng(seed)
    arrival_array = arrivals.arrival_times(n, rng)
    service_array = service.sample(n, rng)
    if queue_capacity is None and getattr(partitioner, "on_complete", None) is None:
        return _simulate_lindley(
            key_array, partitioner, arrival_array, service_array, warmup, relative_error
        )
    arrival_times = arrival_array.tolist()
    service_times = service_array.tolist()

    loop = EventLoop()
    stations = _Stations(loop, partitioner, arrival_times, service_times, warmup)
    queues, busy, on_complete = stations.queues, stations.busy, stations.on_complete
    dropped_per_worker = np.zeros(num_workers, dtype=np.int64)
    dropped = 0

    def arrive(index: int) -> None:
        nonlocal dropped
        if index + 1 < n:
            loop.schedule_at(
                arrival_times[index + 1], lambda: arrive(index + 1)
            )
        worker = int(partitioner.route(key_array[index], loop.now))
        backlog = len(queues[worker]) + (1 if busy[worker] else 0)
        if queue_capacity is not None and backlog >= queue_capacity:
            dropped += 1
            dropped_per_worker[worker] += 1
            # the message never occupies the worker: release any
            # outstanding-work credit the routing decision charged.
            if on_complete is not None:
                on_complete(worker, loop.now)
            return
        stations.admit(worker, index)

    if n:
        loop.schedule_at(arrival_times[0], lambda: arrive(0))
    loop.run()

    return _result(
        num_workers,
        n,
        stations.completed,
        dropped,
        loop.now if n else 0.0,
        stations.buffers,
        stations.waiting_buffers,
        stations.busy_time,
        dropped_per_worker,
        warmup,
        relative_error,
    )


def simulate_closed_loop(
    keys: KeyStream,
    partitioner: "Partitioner",
    closed_loop: ClosedLoopPopulation,
    service: ServiceTimeDistribution,
    *,
    seed: int,
    warmup_fraction: float = 0.0,
    relative_error: float = DEFAULT_RELATIVE_ERROR,
) -> QueueingResult:
    """Closed-loop (think-time) run: N clients, each one request in flight.

    Each of the ``closed_loop.population`` clients cycles think ->
    submit -> wait-for-response: it draws a think time, submits the
    next key from the stream at think end (routed through
    ``partitioner.route`` at the submission instant), and starts
    thinking again only when its request departs.  At most N requests
    are ever in the system, so nothing is dropped and offered load
    self-throttles -- with exponential think/service and one worker
    this is M/M/1//N, validated against the machine-repairman closed
    forms in :mod:`repro.queueing.analytic`.

    The run ends when the stream is exhausted: exactly ``len(keys)``
    messages are submitted and completed.  Keys, think times, and
    service times are consumed in client think-start order, which the
    deterministic EventLoop fixes, so the run is a pure function of
    ``(keys, partitioner, closed_loop, service, seed)``.
    """
    key_array = as_key_array(keys)
    n = int(key_array.size)
    warmup = _warmup_count(warmup_fraction, n)
    num_workers = partitioner.num_workers
    population = closed_loop.population

    rng = np.random.default_rng(seed)
    think_times = closed_loop.think.sample(n, rng).tolist()
    service_times = service.sample(n, rng).tolist()
    arrival_times = [0.0] * n

    loop = EventLoop()
    next_index = 0

    def submit(index: int) -> None:
        arrival_times[index] = loop.now
        stations.admit(int(partitioner.route(key_array[index], loop.now)), index)

    def begin_think() -> None:
        # Reserve the next message at think *start*; a retiring client
        # (stream exhausted) simply never submits again.
        nonlocal next_index
        if next_index >= n:
            return
        index = next_index
        next_index += 1
        loop.schedule(think_times[index], lambda: submit(index))

    # The responded-to client starts its next cycle at each departure.
    stations = _Stations(
        loop,
        partitioner,
        arrival_times,
        service_times,
        warmup,
        after_departure=begin_think,
    )
    for _ in range(min(population, n)):
        begin_think()
    loop.run()

    return _result(
        num_workers,
        n,
        stations.completed,
        0,
        loop.now if n else 0.0,
        stations.buffers,
        stations.waiting_buffers,
        stations.busy_time,
        np.zeros(num_workers, dtype=np.int64),
        warmup,
        relative_error,
    )


def simulate_mmc(
    arrival_rate: float,
    service: ServiceTimeDistribution,
    num_servers: int,
    num_messages: int,
    *,
    seed: int,
    warmup_fraction: float = 0.0,
    relative_error: float = DEFAULT_RELATIVE_ERROR,
) -> QueueingResult:
    """Simulate M/G/c: Poisson arrivals, one FIFO queue, ``c`` servers.

    The validation workload: with exponential service this is M/M/c and
    its mean waiting time has the Erlang-C closed form
    (:func:`repro.queueing.analytic.mmc_mean_waiting`); with ``c = 1``
    and general service it is M/G/1 (Pollaczek-Khinchine).  Shares the
    EventLoop, sketch, and accounting machinery with
    :func:`simulate_queueing`, so agreement here vouches for the
    partitioned simulator's mechanics too.
    """
    if num_servers < 1:
        raise ValueError(f"num_servers must be >= 1, got {num_servers}")
    if num_messages < 0:
        raise ValueError(f"num_messages must be >= 0, got {num_messages}")
    n = int(num_messages)
    warmup = _warmup_count(warmup_fraction, n)

    rng = np.random.default_rng(seed)
    arrival_times = PoissonArrivals(arrival_rate).arrival_times(n, rng).tolist()
    service_times = service.sample(n, rng).tolist()

    loop = EventLoop()
    queue: Deque[int] = deque()
    idle: List[int] = list(range(num_servers))  # ascending; pop from front
    busy_time = np.zeros(num_servers, dtype=np.float64)
    buffers: List[List[float]] = [[] for _ in range(num_servers)]
    waiting_buffers: List[List[float]] = [[] for _ in range(num_servers)]
    completed = 0

    def start_service(server: int, index: int) -> None:
        duration = service_times[index]
        busy_time[server] += duration
        loop.schedule(duration, lambda: depart(server, index))

    def depart(server: int, index: int) -> None:
        nonlocal completed
        completed += 1
        if index >= warmup:
            sojourn = loop.now - arrival_times[index]
            buffers[server].append(sojourn)
            waiting_buffers[server].append(sojourn - service_times[index])
        if queue:
            start_service(server, queue.popleft())
        else:
            idle.append(server)
            idle.sort()

    def arrive(index: int) -> None:
        if index + 1 < n:
            loop.schedule_at(
                arrival_times[index + 1], lambda: arrive(index + 1)
            )
        if idle:
            start_service(idle.pop(0), index)
        else:
            queue.append(index)

    if n:
        loop.schedule_at(arrival_times[0], lambda: arrive(0))
    loop.run()

    return _result(
        num_servers,
        n,
        completed,
        0,
        loop.now if n else 0.0,
        buffers,
        waiting_buffers,
        busy_time,
        np.zeros(num_servers, dtype=np.int64),
        warmup,
        relative_error,
    )
