"""Worker side of the sharded runtime: drain, serve, account privately.

A worker owns one ring (single consumer) and two private accumulators
-- a message count and a :class:`~repro.queueing.latency.LatencyStore`
sojourn sketch -- that nothing else writes.  This is the
privatize-then-reduce discipline: accumulate into per-worker private
state with no synchronisation at all, publish a checkpoint into a
single-writer slot of shared memory every ``checkpoint_interval``
messages, and reduce the full private state exactly once at shutdown
(the report the engine merges).  No CAS, no locks, no shared hot
counters.

**Checkpoints.**  A checkpoint is a :class:`Checkpoint` record: the
count, the fault-dropped count, and the stream id of the last message
consumed.  Each worker's sub-stream arrives in stream-id order, so that
id says exactly where a restart resumes.  The record is double-buffered
(:data:`RECORD_SLOTS`): a publish writes the idle row, then commits it
with one aligned store of the generation word, so a kill landing
between two stores leaves the previous record intact.  A worker built
over a record starts from it -- a fresh record is the empty
checkpoint -- which is how a restarted worker counts on from where its
predecessor last checkpointed.  A worker that drains its ring dry also
publishes, so a caught-up worker's record is current.

**Batch-priced service loop.**  A worker costs what its batches cost,
not what its messages cost.  The source stamps a whole flush with one
clock reading, so a popped batch's stamp lane is a few runs of equal
stamps (usually one): :meth:`WorkerLoop.step` records one ``(sojourn,
count)`` per run (:meth:`~repro.queueing.latency.LatencyStore.
record_runs`), which builds the very sketch one sample per message
would.  Runs are found by comparing neighbouring stamps, so any stamp
lane -- per-message, or not monotone -- is accounted exactly.

**Doorbell wake-ups.**  In the process engine an idle worker does not
poll: it blocks on its ring's doorbell, a counting semaphore the source
posts on every publishing push and at end-of-stream
(:meth:`~repro.runtime.ring.SpscRing.wait`), for at most
:data:`_IDLE_WAIT` seconds.  Posts are counted, so a wake-up can never
be lost; the timeout only bounds how long an idle worker goes without
beating and re-checking its drain deadline.  A respawned worker waits
on its slot's doorbell.  The simulated backend's loops run inline and
have none.

**Heartbeats.**  The shared progress block carries the records and a
*beat* lane per worker, which the worker bumps on every drain step --
an idle worker's step comes once per doorbell wait -- so the source can
tell "alive but idle" from "gone".  A worker that is dead, or stalled
by an injected fault, stops beating; that silence is exactly what the
supervisor's liveness deadline measures
(:mod:`repro.runtime.supervision`).

**Fault injection.**  A :class:`~repro.runtime.faults.FaultState`
built from the worker's slice of the :class:`~repro.runtime.faults.
FaultPlan` is advanced inside :meth:`WorkerLoop.step`: batches are
clipped so message-count triggers fire on exact boundaries, kills are
abrupt (``os._exit`` in process mode -- no report, no checkpoint, no
cleanup), stalls suppress draining *and* heartbeats, slow multiplies
the service cost, and drop silently discards messages (consumed from
the ring, never counted -- the engine accounts them as *lost*).

:class:`WorkerLoop` holds that logic once, for both deployment modes:
the real multi-process engine runs it inside :func:`worker_main` (a
module-level, picklable entrypoint -- the REPRO004 contract, same as
``parallel_map`` cells), and the simulated-rings fallback calls
:meth:`WorkerLoop.step` inline from the source loop.  Both build the
loop from the deployment's ``RuntimeConfig`` through one mapping,
:func:`loop_keywords`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.runtime.backpressure import RingStallError
from repro.runtime.faults import FaultSpec, FaultState
from repro.runtime.ring import SpscRing

if TYPE_CHECKING:
    from repro.runtime.engine import RuntimeConfig

__all__ = [
    "FAULT_KILL_EXIT",
    "DRAIN_TIMEOUT_EXIT",
    "RECORD_SLOTS",
    "Checkpoint",
    "WorkerSpec",
    "WorkerLoop",
    "init_record",
    "loop_keywords",
    "progress_lanes",
    "progress_nbytes",
    "read_record",
    "worker_main",
    "write_record",
]

#: longest doorbell wait of an idle worker: it beats (and re-checks
#: its drain deadline) at least this often while the ring stays empty.
_IDLE_WAIT = 5e-3
#: largest single sleep a stalled process-mode worker takes (keeps the
#: stall interruptible by terminate/kill escalation).
_STALL_SLEEP = 5e-3
#: per-message service floor a fired ``slow`` fault multiplies when the
#: configured service cost is zero (so chaos plans still bite).
_SLOW_FLOOR = 1e-6

#: exit code of a worker killed by an injected ``kill`` fault.
FAULT_KILL_EXIT = 73
#: exit code of a worker whose bounded drain saw no producer progress.
DRAIN_TIMEOUT_EXIT = 71

#: int64 slots of one checkpoint record: the generation word, then two
#: rows of (count, fault_dropped, last_id); generation g commits row
#: ``g % 2``.
RECORD_SLOTS = 7
_FIELDS = 3
#: reads of a live writer's record before giving up (each retry means a
#: publish landed mid-read; publishes are checkpoint_interval apart).
_READ_ATTEMPTS = 64


@dataclass(frozen=True)
class Checkpoint:
    """A worker's last published progress: where a restart resumes."""

    #: messages processed (counted and measured).
    count: int = 0
    #: messages consumed but discarded by fired ``drop`` faults.
    fault_dropped: int = 0
    #: stream id of the last message consumed (-1 = none yet).
    last_id: int = -1

    @property
    def consumed(self) -> int:
        """Messages of the worker's sub-stream taken off its ring."""
        return self.count + self.fault_dropped


def init_record(record: np.ndarray) -> None:
    """Make ``record`` hold the empty checkpoint (generation 0)."""
    empty = Checkpoint()
    record[:] = (0,) + (empty.count, empty.fault_dropped, empty.last_id) * 2


def write_record(record: np.ndarray, checkpoint: Checkpoint) -> None:
    """Publish ``checkpoint`` into ``record`` (its one writer only).

    The fields go to the row the current generation does not commit;
    the generation store that commits them is made last, so a reader
    (or a kill between the stores) never sees a half-written row.
    """
    generation = int(record[0]) + 1
    row = 1 + _FIELDS * (generation % 2)
    record[row : row + _FIELDS] = (
        checkpoint.count,
        checkpoint.fault_dropped,
        checkpoint.last_id,
    )
    record[0] = generation  # commit: single aligned store, made last


def read_record(record: np.ndarray) -> Checkpoint:
    """The last committed checkpoint in ``record``.

    Safe against a concurrent writer: the read is retried if the
    generation moved while the row was copied out.
    """
    for _ in range(_READ_ATTEMPTS):
        generation = int(record[0])
        row = 1 + _FIELDS * (generation % 2)
        count, dropped, last_id = (int(v) for v in record[row : row + _FIELDS])
        if int(record[0]) == generation:
            return Checkpoint(count, dropped, last_id)
    raise RuntimeError(
        f"checkpoint record kept changing over {_READ_ATTEMPTS} reads"
    )


@dataclass(frozen=True)
class WorkerSpec:
    """Plain-data description of one worker process (picklable)."""

    worker_id: int
    num_workers: int
    #: shared-memory block name of this worker's ring.
    ring_name: str
    #: shared-memory block name of the cluster-wide progress block
    #: (int64: W beat slots, then W checkpoint records).
    progress_name: str
    #: the deployment's RuntimeConfig (ring capacity, drain deadline and
    #: the loop keywords of :func:`loop_keywords`).
    config: "RuntimeConfig"
    #: this worker's slice of the fault plan (injection harness).
    faults: Tuple[FaultSpec, ...] = ()


def loop_keywords(
    config: "RuntimeConfig", faults: Tuple[FaultSpec, ...]
) -> Dict[str, Any]:
    """The :class:`WorkerLoop` keywords a deployment gives one worker.

    The one mapping from ``RuntimeConfig`` to a worker loop: the inline
    (simulated) backend and :func:`worker_main` both build through it.
    """
    return {
        "service_cost": config.service_cost,
        "checkpoint_interval": config.checkpoint_interval,
        "relative_error": config.relative_error,
        "max_batch": config.max_batch,
        "capture_indices": config.capture_indices,
        "faults": tuple(faults),
    }


def progress_nbytes(num_workers: int) -> int:
    """Bytes of the progress block: beat slots plus checkpoint records."""
    return num_workers * (1 + RECORD_SLOTS) * 8


def progress_lanes(buf: Any, num_workers: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(beats, records)`` views of a progress block.

    ``beats`` has one slot per worker; ``records`` is ``(num_workers,
    RECORD_SLOTS)``, one checkpoint record per worker.
    """
    lanes = np.ndarray(
        (num_workers * (1 + RECORD_SLOTS),), dtype=np.int64, buffer=buf
    )
    return (
        lanes[:num_workers],
        lanes[num_workers:].reshape(num_workers, RECORD_SLOTS),
    )


def _busy_wait(seconds: float) -> None:
    """Occupy the CPU for ``seconds`` (the simulated service cost).

    Spins on the monotonic clock: the duration models real work, so it
    must consume real time -- sleep would let the OS run the producer
    and understate contention.
    """
    if seconds <= 0:
        return
    # Service cost is elapsed real time by definition (REPRO002 noqa:
    # this measures/creates wall time on purpose; no routing decision
    # or load count depends on the values read here).
    deadline = time.perf_counter() + seconds  # repro: noqa[REPRO002]
    while time.perf_counter() < deadline:  # repro: noqa[REPRO002]
        pass


class WorkerLoop:
    """One worker's drain loop, private accumulators, and fault machine.

    ``progress`` is an optional count lane (the worker's checkpointed
    count lands in slot ``worker_id``); ``record`` is the worker's
    checkpoint record, from which the loop also starts.
    """

    def __init__(
        self,
        worker_id: int,
        ring: SpscRing,
        progress: Optional[np.ndarray] = None,
        *,
        service_cost: float = 0.0,
        checkpoint_interval: int = 4096,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_batch: int = 4096,
        capture_indices: bool = False,
        beats: Optional[np.ndarray] = None,
        record: Optional[np.ndarray] = None,
        faults: Tuple[FaultSpec, ...] = (),
        owns_process: bool = False,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if service_cost < 0:
            raise ValueError(f"service_cost must be >= 0, got {service_cost}")
        self.worker_id = int(worker_id)
        self.ring = ring
        self.progress = progress
        self.beats = beats
        self.record = record
        self.service_cost = float(service_cost)
        self.checkpoint_interval = int(checkpoint_interval)
        self.max_batch = int(max_batch)
        resume = read_record(record) if record is not None else Checkpoint()
        #: private accumulators -- this worker is the only writer.
        self.count = resume.count
        self.latency = LatencyStore(relative_error)
        self.checkpoints_published = 0
        self._since_checkpoint = 0
        self._beats_sent = 0
        #: crash flag: a killed worker never consumes or reports again.
        self.dead = False
        #: messages silently discarded by a fired ``drop`` fault.
        self.fault_dropped = resume.fault_dropped
        #: stream id of the last message taken off the ring.
        self.last_id = resume.last_id
        #: the loop runs alone in a worker process: a kill fault
        #: _exit()s it, and a stall may sleep (an inline loop must do
        #: neither -- its caller *is* the source).
        self.owns_process = bool(owns_process)
        self._faults: Optional[FaultState] = None
        if faults:
            # Fault timing is wall-clock by design (the harness injects
            # real-world failure timing; REPRO002 noqa -- no routing
            # decision or load count reads these values).
            self._faults = FaultState(
                specs=tuple(faults),
                started_at=time.perf_counter(),  # repro: noqa[REPRO002]
            )
            self._faults.fast_forward(self.count)
        #: popped message ids, batch by batch (tests assert FIFO order
        #: against the replay's assignments; None = not capturing).
        self.captured: Optional[List[np.ndarray]] = (
            [] if capture_indices else None
        )

    @property
    def fired_faults(self) -> Tuple[FaultSpec, ...]:
        """Faults that have fired on this worker so far."""
        if self._faults is None:
            return ()
        return tuple(self._faults.fired)

    def stall_remaining(self, now: float) -> float:
        """Seconds left in the current injected stall (0.0 = none).

        Read-only (unlike ``FaultState.stall_remaining`` it never
        clears expired stalls): the simulated backend's supervisor uses
        it to decide between sleeping a stall out and condemning the
        worker, without perturbing the fault machine.
        """
        faults = self._faults
        if faults is None or faults.stalled_until is None:
            return 0.0
        if math.isinf(faults.stalled_until):
            return math.inf
        return max(float(faults.stalled_until) - now, 0.0)

    def _beat(self) -> None:
        """Bump this worker's single-writer heartbeat lane."""
        if self.beats is not None:
            self._beats_sent += 1
            self.beats[self.worker_id] = self._beats_sent

    def _die(self) -> None:
        """Abrupt crash: no report, no checkpoint, no cleanup."""
        self.dead = True
        if self.owns_process:
            os._exit(FAULT_KILL_EXIT)

    def step(self) -> int:
        """Drain one batch from the ring; returns ring slots consumed.

        Returns 0 when the ring is empty *or* the worker is dead or
        mid-stall -- callers distinguish via :attr:`dead` and the ring
        state, never via the return value alone.
        """
        if self.dead:
            return 0
        faults = self._faults
        limit = self.max_batch
        if faults is not None:
            # Fault triggers are wall-clock by design (REPRO002 noqa on
            # this injection-harness read; see __init__).
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if faults.stall_remaining(now) > 0.0:
                # Stalled: no drain, no heartbeat (that silence is the
                # signal supervision detects).
                if self.owns_process:
                    time.sleep(
                        min(faults.stall_remaining(now), _STALL_SLEEP)
                    )
                return 0
            faults.poll(self.count, now)
            if faults.killed:
                self._die()
                return 0
            if faults.stalled_until is not None:
                return 0
            budget = faults.message_budget(self.count)
            if budget is not None:
                limit = min(limit, max(budget, 1))
        self._beat()
        indices, stamps = self.ring.try_pop(limit)
        consumed = int(indices.size)
        if consumed == 0:
            if self._since_checkpoint and (
                faults is None or not faults.fired_at(self.count)
            ):
                # Drained dry: checkpoint, so a caught-up worker's
                # record says so (and its restart replays nothing).
                self.publish_checkpoint()
            return 0
        self.last_id = int(indices[-1])
        n = consumed
        if faults is not None and faults.drop_remaining > 0:
            # A fired drop fault discards the leading messages of the
            # batch: consumed from the ring, never counted or measured.
            discard = min(n, faults.drop_remaining)
            faults.drop_remaining -= discard
            self.fault_dropped += discard
            indices = indices[discard:]
            stamps = stamps[discard:]
            n -= discard
        if n == 0:
            return consumed
        if self.captured is not None:
            self.captured.append(indices.copy())
        service = self.service_cost
        if faults is not None and faults.service_factor != 1.0:
            service = max(service, _SLOW_FLOOR) * faults.service_factor
        if service > 0.0:
            _busy_wait(n * service)
        # Sojourn = dequeue-complete minus enqueue stamp: a real
        # end-to-end wall measurement, the quantity throughput_e2e
        # reports (REPRO002 noqa: measurement is the purpose; the
        # values never feed a routing decision or a load count).
        now_done = time.perf_counter()  # repro: noqa[REPRO002]
        self._record_sojourns(now_done, stamps)
        self.count += n
        self._since_checkpoint += n
        if self._since_checkpoint >= self.checkpoint_interval:
            self.publish_checkpoint()
        return consumed

    def _record_sojourns(self, now: float, stamps: np.ndarray) -> None:
        """One sketch entry per run of equal stamps in ``stamps``."""
        first = float(stamps[0])
        if not bool((stamps != first).any()):  # one flush: one run
            self.latency.record_run(now - first, int(stamps.size))
            return
        starts = np.flatnonzero(stamps[1:] != stamps[:-1]) + 1
        bounds = np.concatenate(([0], starts, [stamps.size]))
        self.latency.record_runs(now - stamps[bounds[:-1]], np.diff(bounds))

    def publish_checkpoint(self) -> None:
        """Publish the private progress as this worker's checkpoint.

        Both slots have exactly one writer (this worker): the record
        commits with its generation store (:func:`write_record`), the
        count lane with one aligned int64 store.
        """
        if self.record is not None:
            write_record(
                self.record,
                Checkpoint(self.count, self.fault_dropped, self.last_id),
            )
        if self.progress is not None:
            self.progress[self.worker_id] = self.count
        self.checkpoints_published += 1
        self._since_checkpoint = 0

    def drain_until_done(self, deadline: Optional[float] = None) -> None:
        """Run until the producer marked done and the ring is empty.

        ``deadline`` bounds the wait: after that many seconds with no
        ring progress (no pops, no end-of-stream), the loop raises
        :class:`~repro.runtime.backpressure.RingStallError` instead of
        waiting forever on a dead producer.  The clock counts *any*
        no-progress time -- a worker wedged by its own stall fault
        trips the same deadline, which is what lets the supervisor
        drive a stalled simulated loop to condemnation.  A worker
        crashed by a kill fault returns immediately (its accumulators
        are already forfeit).
        """
        idle_started: Optional[float] = None
        while not self.dead:
            if self.step() > 0:
                idle_started = None
                continue
            if self.ring.exhausted:
                self.publish_checkpoint()
                return
            if deadline is not None:
                # Idle-wait bounding is supervision telemetry, not a
                # routing input (REPRO002 noqa).
                now = time.perf_counter()  # repro: noqa[REPRO002]
                if idle_started is None:
                    idle_started = now
                elif now - idle_started >= deadline:
                    raise RingStallError(
                        f"worker {self.worker_id} saw no ring progress "
                        f"for {deadline:g}s (producer dead?)"
                    )
            self.ring.wait(_IDLE_WAIT)

    def kill(self) -> None:
        """Supervisor-side condemnation (simulated mode): stop consuming."""
        self.dead = True

    def report(self) -> Dict[str, Any]:
        """The worker's final reduced state (sent to the engine once)."""
        report: Dict[str, Any] = {
            "worker_id": self.worker_id,
            "count": self.count,
            "checkpoints_published": self.checkpoints_published,
            "latency": self.latency.to_dict(),
            "fault_dropped": self.fault_dropped,
        }
        if self.captured is not None:
            report["indices"] = (
                np.concatenate(self.captured)
                if self.captured
                else np.empty(0, dtype=np.int64)
            )
        return report


def worker_main(spec: WorkerSpec, result_queue: Any, doorbell: Any = None) -> None:
    """Process entrypoint: attach shared state, drain, report, exit.

    ``doorbell`` is the ring's semaphore (see :mod:`repro.runtime.ring`);
    it travels as a process argument, the one way a semaphore crosses
    every start method.  Module-level by necessity, not style: under the
    ``spawn`` start method the target is pickled by qualified name
    (REPRO004).
    """
    from multiprocessing import shared_memory

    ring_shm = shared_memory.SharedMemory(name=spec.ring_name)
    progress_shm = shared_memory.SharedMemory(name=spec.progress_name)
    ring = lanes = loop = None
    try:
        ring = SpscRing.from_buffer(
            ring_shm.buf, spec.config.capacity, doorbell=doorbell
        )
        lanes = progress_lanes(progress_shm.buf, spec.num_workers)
        loop = WorkerLoop(
            spec.worker_id,
            ring,
            beats=lanes[0],
            record=lanes[1][spec.worker_id],
            owns_process=True,
            **loop_keywords(spec.config, spec.faults),
        )
        try:
            loop.drain_until_done(deadline=spec.config.drain_deadline)
        except RingStallError:
            # Producer went silent past the deadline: exit with a
            # recognisable code instead of hanging as an orphan.
            raise SystemExit(DRAIN_TIMEOUT_EXIT) from None
        result_queue.put(loop.report())
    finally:
        # Views must die before the mappings close.
        del ring, lanes, loop
        ring_shm.close()
        progress_shm.close()
