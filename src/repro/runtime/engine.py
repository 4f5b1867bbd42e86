"""The sharded runtime: source-routes chunks into per-worker rings.

Topology: one **source** (this process) routes fixed-size key chunks
through any registered partitioner -- the exact
``Partitioner.route_chunk`` chunking that :func:`repro.core.engine.
replay_stream` uses -- and scatters each routed chunk into W bounded
SPSC rings, one per worker.  W workers drain their rings concurrently,
apply the per-message service cost, and keep private accumulators that
merge once at shutdown (:mod:`repro.runtime.worker`).

**Transport path.**  Each routed chunk is grouped by destination with a
*stable counting-sort scatter* (:func:`repro.core.chunks.
counting_scatter`: one ``bincount``, cumulative offsets, one linear
scatter pass -- O(n + W), not a comparison sort), then appended to
per-worker **coalescing staging buffers**.  A worker's stage flushes to
its ring only when full (``flush_size`` ids) or at end-of-stream, with
one wall-clock stamp per flush written into a preallocated stamp lane
-- so ring pushes, clock reads and stamp allocations are amortised over
``flush_size`` messages instead of paid per (chunk, worker).  Because
the scatter is stable and each stage drains in append order, every
worker still sees its sub-stream in arrival order (FIFO end to end) at
*any* flush size.  The input stream itself may be a materialised array
or a bounded-memory :class:`~repro.core.chunks.ChunkSource`.

**Stage accounting.**  One stage clock partitions the run's wall time:
at every moment exactly one of route / scatter / flush-stall / drain /
recovery is current, and switching books the elapsed time to the stage
left.  ``RuntimeResult.stage_seconds`` therefore sums to
``wall_seconds`` by construction.  ``route`` includes reading (or, for
a ``ChunkSource``, generating) the next chunk; backend spawn happens
before the clock starts.

**Determinism contract.**  Every routing decision happens in the source,
on the same chunk boundaries, through the same partitioner state
evolution as the single-process replay.  Workers only *count* what
arrives.  Under the lossless ``block`` policy the per-worker
counts are therefore byte-identical to ``replay_stream(...).final_loads``
for every registered scheme -- by construction, not by luck -- no matter
how the OS schedules the worker processes.  Ring timing can change
*when* a message is processed, never *where*.  (Consequently the
runtime wires no completion feedback back into partitioners: ``jbsq``
here is its deterministic replay path, least-loaded-of-d over counters.)

**Supervision & recovery.**  The source doubles as supervisor: workers
heartbeat into the second lane of the progress block on every drain
step (an idle worker steps once per doorbell wait), a full-ring push
escalates
(:class:`~repro.runtime.backpressure.RingStallError`) on its first
retry once the worker process has exited, or after a *no-progress*
deadline while it lives, and the escalation starts an assessment --
observed death is ``"exit"``, beat silence past ``liveness_deadline``
is condemnation (``"wedged"``, terminate->kill escalated).  What
happens next is ``RuntimeConfig.recovery``:

* ``fail``    -- unwind cleanly; the result is partial and labeled
  ``status="failed"`` with exact loss accounting, never a hang.
* ``reroute`` -- mask the dead worker out of the partitioner
  (:meth:`~repro.partitioning.base.Partitioner.mask_worker`); its
  undelivered traffic and future decisions go to a deterministic
  deputy, its undrained ring contents are counted *lost*, and the run
  completes ``status="degraded"``.
* ``restart`` -- respawn the worker over the same (reset) ring from
  its last checkpoint record (count, fault-dropped count and the id of
  the last message it consumed) and re-deliver only what it lost: its
  messages after that id, up to the last one delivered to it.  The
  source keeps each routed chunk's ids, grouped by worker, from the
  oldest chunk any worker's checkpoint can still need, and reads the
  lost span off that log -- a few chunks wherever the kill lands, and
  no re-routing.  Final per-worker counts are byte-identical to a
  fault-free run.  Faults (injected or genuine) during the replay
  recurse, bounded by ``restart_limit``.

Deaths found on a stalled push, during a replay, or in the
end-of-stream drain all go through one recovery switch.  The
conservation law ``sent == processed + dropped + lost`` is asserted
on every path: ``lost`` is dead workers' delivered-but-uncheckpointed
pipeline plus fault-discarded messages, and aborted runs additionally
report the never-delivered remainder (``undelivered``).

Two interchangeable backends share one skeleton -- progress lanes,
rings, push, respawn -- and differ only in how a worker runs:

* **process** -- real worker processes over
  ``multiprocessing.shared_memory`` rings; requires working process
  spawning and /dev/shm (:func:`runtime_available` probes once).  Each
  worker slot has a doorbell, a ``multiprocessing.Semaphore(0)`` its
  ring posts on every publishing push and at end-of-stream; an idle
  worker blocks on it instead of polling (:mod:`repro.runtime.ring`),
  and a respawned worker waits on its slot's.
* **simulated** -- the same rings and worker loops in-process; "wait
  for the consumer" becomes "run the consumer" via the backpressure
  ``drain`` hook, so the block policy cannot deadlock in one thread.
  This is the fallback for 1-core/locked-down containers, mirroring
  ``repro.core.parallel``'s serial fallback.  Supervision is mode-
  blind: the simulated backend condemns wedged loops and respawns
  killed ones exactly like the process backend does.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    StreamLike,
    counting_scatter,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.metrics import StreamingLoadSeries
from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.runtime.backpressure import (
    POLICIES,
    PushOutcome,
    RingStallError,
    push_with_backpressure,
)
from repro.runtime.faults import FaultPlan, FaultSpec, consume_cause
from repro.runtime.ring import SpscRing, ring_nbytes
from repro.runtime.supervision import (
    DEFAULT_REAP_TIMEOUT,
    RECOVERY_POLICIES,
    FailureEvent,
    LivenessDetector,
    RunAborted,
    WorkerDeadError,
    reap_process,
)
from repro.runtime.worker import (
    Checkpoint,
    WorkerLoop,
    WorkerSpec,
    init_record,
    loop_keywords,
    progress_lanes,
    progress_nbytes,
    read_record,
    worker_main,
)

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = [
    "MODES",
    "RuntimeConfig",
    "RuntimeResult",
    "runtime_available",
    "run_runtime",
]

#: recognised deployment modes ("auto" resolves to one of the others).
MODES = ("auto", "process", "simulated")

#: seconds between supervisor polls while assessing a silent worker.
_ASSESS_POLL = 5e-3
#: seconds between report-queue polls while waiting on a worker report.
_FINISH_POLL = 50e-3
#: seconds a dead worker's report may still take to arrive.
_REPORT_GRACE = 0.2
#: seconds to wait for each worker report/join before giving up.
_JOIN_TIMEOUT = 120.0

#: the stages that partition a run's wall clock, in first-entry order.
_STAGES = ("route", "scatter", "flush_stall", "drain", "recovery")

#: routed chunks restart's route log holds before each new chunk tries
#: a trim (reading every worker's checkpoint record).
_LOG_CHUNKS = 4


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of one runtime deployment (not of the routed decisions)."""

    #: slots per worker ring.
    capacity: int = 8192
    #: backpressure policy: "block" or "drop".
    policy: str = "block"
    #: seconds of simulated per-message service cost in each worker.
    service_cost: float = 0.0
    #: source-side routing chunk (MUST stay replay_stream's default for
    #: count identity; exposed for tests that stress wrap-around).
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: messages between worker checkpoint publications (a worker that
    #: drains its ring dry also publishes).  This also bounds a
    #: restart's replay: it re-delivers at most ``capacity +
    #: checkpoint_interval + max_batch`` messages.
    checkpoint_interval: int = 4096
    #: "process", "simulated", or "auto" (process when available).
    mode: str = "auto"
    #: sojourn-sketch relative error.
    relative_error: float = DEFAULT_RELATIVE_ERROR
    #: largest batch a worker drains per step.
    max_batch: int = 4096
    #: per-worker staging-buffer slots; a worker's stage flushes to its
    #: ring when full or at end-of-stream.  Flush-size choice never
    #: changes routing or per-worker order (the scatter is stable and
    #: stages drain in append order); it only trades ring-push amortis-
    #: ation against stamp granularity.  Under "drop" a flush larger
    #: than ``capacity`` guarantees shedding.
    flush_size: int = 8192
    #: record each worker's popped message ids in its report (tests
    #: use this to assert end-to-end FIFO order; costs memory).
    capture_indices: bool = False
    #: what to do when a worker dies: "fail", "reroute" or "restart".
    recovery: str = "fail"
    #: seeded fault-injection schedule (None = fault-free).
    faults: Optional[FaultPlan] = None
    #: seconds a lossless push may see *no ring progress* before the
    #: stall is escalated to supervision (None = retry-count backstop).
    #: A worker that has already exited is detected on the first
    #: full-ring retry via its process state, so this bounds only
    #: consumers that are alive but not draining.  Escalation is an
    #: assessment, not a condemnation -- a live, beating worker just
    #: gets the push retried -- so this can be far tighter than the
    #: liveness deadline.
    push_deadline: Optional[float] = 2.0
    #: seconds of heartbeat silence before a worker is condemned.
    liveness_deadline: float = 5.0
    #: worker-side bound: seconds of no ring progress before a real
    #: worker process exits instead of waiting forever on a dead
    #: producer (must exceed the source's longest routing/replay gap).
    drain_deadline: Optional[float] = 120.0
    #: restarts allowed per worker before escalating to a clean abort.
    restart_limit: int = 3

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.flush_size < 1:
            raise ValueError(
                f"flush_size must be >= 1, got {self.flush_size}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.service_cost < 0:
            raise ValueError(
                f"service_cost must be >= 0, got {self.service_cost}"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got "
                f"{self.recovery!r}"
            )
        if self.recovery == "restart" and self.policy == "drop":
            raise ValueError(
                "recovery='restart' requires a lossless policy: source-side "
                "drops are timing-dependent, so a replayed span could not "
                "be byte-identical"
            )
        if self.push_deadline is not None and self.push_deadline <= 0:
            raise ValueError(
                f"push_deadline must be > 0, got {self.push_deadline}"
            )
        if self.liveness_deadline <= 0:
            raise ValueError(
                f"liveness_deadline must be > 0, got {self.liveness_deadline}"
            )
        if self.drain_deadline is not None and self.drain_deadline <= 0:
            raise ValueError(
                f"drain_deadline must be > 0, got {self.drain_deadline}"
            )
        if self.restart_limit < 1:
            raise ValueError(
                f"restart_limit must be >= 1, got {self.restart_limit}"
            )


@dataclass
class RuntimeResult:
    """Outcome of one sharded run: replay metrics + runtime telemetry."""

    #: backend that actually ran ("process" or "simulated").
    mode: str
    policy: str
    num_workers: int
    num_messages: int
    #: per-worker counts as *routed* by the source (post-mask: after a
    #: reroute, traffic counts at the deputy that actually received it).
    routed_loads: np.ndarray
    #: per-worker counts as *processed* by the workers (a dead worker's
    #: entry is its last published checkpoint).
    worker_loads: np.ndarray
    #: per-worker messages shed at the source (all zero unless "drop").
    dropped_per_worker: np.ndarray
    #: times the source found a full ring and had to wait/shed.
    stalls: int
    checkpoint_positions: np.ndarray
    imbalance_series: np.ndarray
    #: merged end-to-end sojourn sketch (enqueue -> processed).
    latency: LatencyStore
    wall_seconds: float
    #: source-side wall breakdown; the stages partition wall_seconds:
    #: "route" (reading the next chunk, partitioner decisions, balance
    #: metrics), "scatter" (counting-sort grouping + staging appends),
    #: "flush_stall" (ring pushes, including every stall the
    #: backpressure policy absorbed), "drain" (end-of-stream wait for
    #: the workers to finish and report), "recovery" (assessment waits,
    #: respawns and span replays).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: staging-buffer flushes performed (ring pushes issued).
    flushes: int = 0
    worker_reports: List[Dict[str, Any]] = field(default_factory=list)
    #: "ok" (fault-free or fully recovered), "degraded" (completed with
    #: dead workers) or "failed" (cleanly aborted, partial results).
    status: str = "ok"
    #: one dict per detected failure (see FailureEvent.to_dict).
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: workers dead at the end of the run.
    failed_workers: Tuple[int, ...] = ()
    #: workers masked out by reroute recovery.
    masked_workers: Tuple[int, ...] = ()
    #: per-worker messages lost at that worker: a dead worker's
    #: delivered-but-uncheckpointed pipeline, a survivor's
    #: fault-discarded messages.
    lost_per_worker: Optional[np.ndarray] = None
    #: messages routed but never delivered to any ring (aborts only).
    undelivered: int = 0
    #: worker respawns performed by restart recovery.
    restarts: int = 0
    #: pushes that tripped their no-progress deadline.
    stall_timeouts: int = 0
    #: the injected fault plan, in --fault grammar (provenance).
    injected_faults: Tuple[str, ...] = ()

    @property
    def dropped(self) -> int:
        """Total messages shed by the drop policy."""
        return int(self.dropped_per_worker.sum())

    @property
    def processed(self) -> int:
        """Total messages the workers actually processed."""
        return int(self.worker_loads.sum())

    @property
    def sent(self) -> int:
        """Total messages routed by the source."""
        return int(self.routed_loads.sum())

    @property
    def lost(self) -> int:
        """Total messages lost to failures (0 on a clean lossless run)."""
        pipeline = (
            int(self.lost_per_worker.sum())
            if self.lost_per_worker is not None
            else 0
        )
        return pipeline + int(self.undelivered)

    @property
    def conservation_ok(self) -> bool:
        """Whether ``sent == processed + dropped + lost`` holds exactly."""
        return self.sent == self.processed + self.dropped + self.lost

    @property
    def messages_per_second(self) -> float:
        """End-to-end throughput (processed messages over wall time)."""
        return self.processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def p99_sojourn(self) -> float:
        """p99 end-to-end sojourn in seconds (0.0 if nothing processed)."""
        return self.latency.quantile(0.99) if self.latency.count else 0.0


# ---------------------------------------------------------------------------
# Availability probe
# ---------------------------------------------------------------------------

#: Whether real worker processes + shared memory work here; None = unknown.
_RUNTIME_USABLE: Optional[bool] = None


def _probe_child(value: Any) -> None:
    """Child half of the probe: flip the shared flag to prove we ran."""
    value.value = 1


def runtime_available() -> bool:
    """Whether the real multi-process backend can run in this environment.

    Probes once per process: create a tiny ``shared_memory`` block *and*
    spawn one child process that demonstrably executes.  Sandboxes that
    block either make "auto" resolve to the simulated backend, exactly
    as ``repro.core.parallel.pool_usable`` gates the sweep executor.
    """
    global _RUNTIME_USABLE
    if _RUNTIME_USABLE is None:
        _RUNTIME_USABLE = _probe()
    return _RUNTIME_USABLE


def _probe() -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(create=True, size=64)
    except OSError:
        return False
    try:
        flag = multiprocessing.Value("i", 0)
        child = multiprocessing.Process(target=_probe_child, args=(flag,))
        child.start()
        child.join(timeout=30.0)
        if child.is_alive():  # pragma: no cover - hung probe child
            reap_process(child)
            return False
        return child.exitcode == 0 and flag.value == 1
    except OSError:
        return False
    finally:
        shm.close()
        try:
            shm.unlink()
        except OSError:  # pragma: no cover - already unlinked
            pass


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class _Backend(ABC):
    """What both backends share: lanes, rings, push, respawn.

    The progress block (W beat slots, then W checkpoint records; one
    writer each) and the W rings come from one allocator,
    :meth:`_allocate`.
    A subclass says where that memory lives and how a worker runs --
    start, alive, condemn, finish, close -- and nothing else, so the
    supervision and recovery logic upstream is mode-blind.
    """

    mode = ""
    #: whether consumers progress only when the source drains them
    #: (then there is no point polling beats that cannot advance).
    drives_consumers = False

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        self.config = config
        self.num_workers = num_workers
        self.rings: List[SpscRing] = []
        self.beats: Any = None
        self.records: Any = None
        try:
            self.beats, self.records = progress_lanes(
                self._allocate(progress_nbytes(num_workers)), num_workers
            )
            for record in self.records:
                init_record(record)
            for w in range(num_workers):
                backing = self._allocate(ring_nbytes(config.capacity))
                self.rings.append(
                    SpscRing.from_buffer(
                        backing,
                        config.capacity,
                        initialize=True,
                        doorbell=self._doorbell(w),
                    )
                )
            for w in range(num_workers):
                self._start(w, worker_faults[w])
        except BaseException:
            self.close()
            raise

    def _allocate(self, nbytes: int) -> Any:
        """``nbytes`` of zeroed backing (private memory here)."""
        return memoryview(np.zeros(nbytes, dtype=np.uint8))

    def _doorbell(self, worker: int) -> Any:
        """The semaphore ``worker``'s ring posts on (None = none)."""
        return None

    @abstractmethod
    def _start(self, worker: int, faults: Tuple[FaultSpec, ...]) -> None:
        """Run a fresh worker ``worker`` over its ring and lanes."""

    @abstractmethod
    def alive(self, worker: int) -> bool:
        """Whether ``worker`` has not (observably) died."""

    @abstractmethod
    def condemn(self, worker: int) -> None:
        """Stop ``worker`` for good (bounded; safe on a dead worker)."""

    @abstractmethod
    def finish(self, worker: int) -> Dict[str, Any]:
        """``worker``'s final report once its done ring is drained.

        Raises :class:`WorkerDeadError` if it dies or is condemned first.
        """

    def _drain_hook(self, worker: int) -> Optional[Callable[[], int]]:
        """What a stalled push runs instead of waiting (None = wait)."""
        return None

    def stall_remaining(self, worker: int) -> float:
        """Seconds left in ``worker``'s injected stall, if visible.

        The source cannot see a real worker's fault machine; silence on
        the beat lane is then its only stall signal.
        """
        return 0.0

    def push(
        self, worker: int, indices: np.ndarray, stamps: np.ndarray
    ) -> PushOutcome:
        return push_with_backpressure(
            self.rings[worker],
            indices,
            stamps,
            self.config.policy,
            drain=self._drain_hook(worker),
            deadline=self.config.push_deadline,
            alive=lambda: self.alive(worker),
        )

    def checkpoint(self, worker: int) -> Checkpoint:
        """``worker``'s last published checkpoint record."""
        return read_record(self.records[worker])

    def respawn(self, worker: int, faults: Tuple[FaultSpec, ...]) -> None:
        """Replace dead ``worker`` over its reset ring and beat.

        The replacement starts from the dead worker's checkpoint
        record, which is left as it is.
        """
        self.condemn(worker)
        self.rings[worker].reset()
        self.beats[worker] = 0
        self._start(worker, faults)

    def close(self) -> None:
        # Drop the numpy views before any backing mapping closes.
        self.rings.clear()
        self.beats = None
        self.records = None


class _SimulatedBackend(_Backend):
    """Rings + worker loops in one process; drains replace waiting.

    A full ring's push runs the worker's drain step instead of waiting,
    so the block policy cannot deadlock in one thread.  Condemning a
    loop kills it, exactly as the process backend reaps a child.
    """

    mode = "simulated"
    drives_consumers = True

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        self.loops: Dict[int, WorkerLoop] = {}
        super().__init__(num_workers, config, worker_faults)

    def _start(self, worker: int, faults: Tuple[FaultSpec, ...]) -> None:
        self.loops[worker] = WorkerLoop(
            worker,
            self.rings[worker],
            beats=self.beats,
            record=self.records[worker],
            **loop_keywords(self.config, faults),
        )

    def _drain_hook(self, worker: int) -> Optional[Callable[[], int]]:
        return self.loops[worker].step

    def alive(self, worker: int) -> bool:
        return not self.loops[worker].dead

    def stall_remaining(self, worker: int) -> float:
        # Supervision telemetry read (REPRO002 noqa): the supervisor
        # needs the stall horizon to pick sleep-it-out vs condemn.
        return self.loops[worker].stall_remaining(
            time.perf_counter()  # repro: noqa[REPRO002]
        )

    def condemn(self, worker: int) -> None:
        self.loops[worker].kill()

    def finish(self, worker: int) -> Dict[str, Any]:
        loop = self.loops[worker]
        try:
            loop.drain_until_done(deadline=self.config.liveness_deadline)
        except RingStallError:
            # A drain that stopped progressing is a wedged loop (e.g. a
            # stall-forever fault): condemn it like the process backend
            # would a silent child.
            loop.kill()
            raise WorkerDeadError(worker, "wedged") from None
        if loop.dead:
            raise WorkerDeadError(worker, "exit")
        return loop.report()


class _ProcessBackend(_Backend):
    """Real worker processes over shared-memory rings.

    Shared-memory block 0 backs the progress block, block ``1 + w``
    worker ``w``'s ring; a respawned worker attaches to the same blocks
    and waits on the same doorbell, ``doorbells[w]``.
    """

    mode = "process"

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        self._shms: List[Any] = []
        #: the current process of each worker, and every one ever spawned.
        self.processes: Dict[int, multiprocessing.Process] = {}
        self._spawned: List[multiprocessing.Process] = []
        #: reports that arrived while the source waited on another worker.
        self._reports: Dict[int, Dict[str, Any]] = {}
        self.results: Any = multiprocessing.Queue()
        #: one counting semaphore per worker slot: its ring's doorbell.
        self.doorbells = [multiprocessing.Semaphore(0) for _ in range(num_workers)]
        super().__init__(num_workers, config, worker_faults)

    def _allocate(self, nbytes: int) -> Any:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._shms.append(shm)
        return shm.buf

    def _doorbell(self, worker: int) -> Any:
        return self.doorbells[worker]

    def _start(self, worker: int, faults: Tuple[FaultSpec, ...]) -> None:
        spec = WorkerSpec(
            worker_id=worker,
            num_workers=self.num_workers,
            ring_name=self._shms[1 + worker].name,
            progress_name=self._shms[0].name,
            config=self.config,
            faults=tuple(faults),
        )
        proc = multiprocessing.Process(
            target=worker_main,
            args=(spec, self.results, self.doorbells[worker]),
            daemon=True,
        )
        proc.start()
        self._spawned.append(proc)
        self.processes[worker] = proc

    def alive(self, worker: int) -> bool:
        return self.processes[worker].is_alive()

    def condemn(self, worker: int) -> None:
        reap_process(self.processes[worker], DEFAULT_REAP_TIMEOUT)

    def finish(self, worker: int) -> Dict[str, Any]:
        """Wait for ``worker``'s report while judging its liveness.

        A :class:`LivenessDetector` over the beat lanes condemns a
        worker that stays silent past ``liveness_deadline``; the absolute
        cap :data:`_JOIN_TIMEOUT` condemns one that beats but never
        finishes.  A worker that reported must then exit cleanly.
        Liveness clocks are supervision telemetry (REPRO002 noqa).
        """
        proc = self.processes[worker]
        detector = LivenessDetector(self.beats, self.config.liveness_deadline)
        started = time.perf_counter()  # repro: noqa[REPRO002]
        while True:
            report = self._report(worker, _FINISH_POLL)
            if report is None and not proc.is_alive():
                # A dead worker's report may still sit in the queue.
                report = self._report(worker, _REPORT_GRACE)
                if report is None:
                    raise WorkerDeadError(worker, "exit", exitcode=proc.exitcode)
            if report is not None:
                proc.join(timeout=_JOIN_TIMEOUT)
                if proc.exitcode != 0:
                    reap_process(proc, DEFAULT_REAP_TIMEOUT)
                    raise RuntimeError(
                        f"worker pid {proc.pid} did not exit cleanly after "
                        f"reporting (exit code {proc.exitcode})"
                    )
                return report
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if detector.expired(worker, now):
                self.condemn(worker)
                raise WorkerDeadError(worker, "wedged")
            if now - started >= _JOIN_TIMEOUT:
                self.condemn(worker)
                raise WorkerDeadError(worker, "finish-timeout")

    def _report(self, worker: int, timeout: float) -> Optional[Dict[str, Any]]:
        """``worker``'s report, stashing others' that arrive first.

        None once the queue stays empty for ``timeout`` seconds.
        """
        import queue as queue_module

        while worker not in self._reports:
            try:
                report = self.results.get(timeout=timeout)
            except queue_module.Empty:
                return None
            self._reports[int(report["worker_id"])] = report
        return self._reports.pop(worker)

    def close(self) -> None:
        for proc in self._spawned:
            reap_process(proc, DEFAULT_REAP_TIMEOUT)
        self.results.close()
        self.results.cancel_join_thread()
        super().close()
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._shms.clear()


# ---------------------------------------------------------------------------
# Supervision: the source's recovery brain
# ---------------------------------------------------------------------------


class _StageClock:
    """The source's wall clock, partitioned into named stages.

    Exactly one stage is current at any moment, and :meth:`enter` books
    the time since the last switch to the stage it leaves -- so the
    stage seconds sum to the clock's total by construction: no second
    lands in two stages, or in none.  Reads are runtime telemetry,
    never routing inputs (REPRO002 noqa).
    """

    __slots__ = ("seconds", "stage", "mark")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(_STAGES, 0.0)
        self.stage = _STAGES[0]
        #: perf_counter reading at the last switch.
        self.mark = time.perf_counter()  # repro: noqa[REPRO002]

    def enter(self, stage: str) -> str:
        """Switch to ``stage``; returns the stage left (to restore)."""
        now = time.perf_counter()  # repro: noqa[REPRO002]
        left = self.stage
        self.seconds[left] += now - self.mark
        self.stage = stage
        self.mark = now
        return left

    def stop(self) -> float:
        """Book the current stage; returns the total (the run's wall)."""
        self.enter(self.stage)
        return sum(self.seconds.values())


class _RouteLog:
    """Restart's replay base: each routed chunk's ids, grouped by worker.

    The scatter already groups every chunk's message ids by worker, each
    group in stream order, into an array it allocates afresh per chunk;
    the log keeps those arrays, uncopied, from the oldest chunk a
    restart could still need.  A worker's lost span is then read off the
    log: no partitioner copy and no re-routing, so restart does not
    depend on routing being repeatable.  :meth:`trim` drops what no
    restart can need any more.
    """

    def __init__(self) -> None:
        #: ``(start, bounds, grouped)`` of every retained chunk: worker
        #: ``w``'s ids are ``grouped[bounds[w]:bounds[w + 1]]``.
        self.chunks: List[Tuple[int, List[int], np.ndarray]] = []

    def trim(self, horizon: int) -> None:
        """Drop the chunks wholly before stream id ``horizon``.

        ``horizon`` must not exceed the first id any restart could still
        have to re-deliver.
        """
        drop = 0
        for start, _bounds, grouped in self.chunks[:-1]:
            if start + grouped.size > horizon:
                break
            drop += 1
        del self.chunks[:drop]

    def lost_span(
        self, worker: int, after: int, count: int
    ) -> Iterator[np.ndarray]:
        """``worker``'s next ``count`` stream ids after id ``after``.

        Yields them a chunk at a time, in stream order.
        """
        for start, bounds, grouped in self.chunks:
            if count <= 0:
                return
            if start + grouped.size <= after + 1:
                continue
            ids = grouped[bounds[worker] : bounds[worker + 1]]
            ids = ids[np.searchsorted(ids, after, side="right") :][:count]
            if ids.size:
                count -= int(ids.size)
                yield ids
        if count > 0:
            raise AssertionError(
                f"worker {worker}'s lost span runs past the routed stream "
                f"({count} ids short)"
            )


class _Supervisor:
    """Delivery accounting + failure assessment + recovery execution.

    Owns every piece of state the conservation law needs: ``delivered``
    (distinct stream messages that first entered each worker's ring --
    restart replays deliberately do *not* increment it, so
    ``delivered[w]`` stays the length of the sub-stream a restarted
    worker must have consumed, across repeated failures), ``dropped``
    (source-side sheds), the dead set, and the failure log.  Under
    restart recovery it also keeps the :class:`_RouteLog` the replays
    are read from.  Time spent assessing and recovering is booked to
    the ``recovery`` stage of the run's clock.
    """

    def __init__(
        self,
        backend: _Backend,
        partitioner: "Partitioner",
        config: RuntimeConfig,
        series: StreamingLoadSeries,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
        clock: _StageClock,
    ) -> None:
        self.backend = backend
        self.partitioner = partitioner
        self.config = config
        self.series = series
        self.num_workers = partitioner.num_workers
        self.worker_faults = worker_faults
        self.clock = clock
        self.delivered = np.zeros(self.num_workers, dtype=np.int64)
        self.dropped = np.zeros(self.num_workers, dtype=np.int64)
        self.stalls = 0
        self.stall_timeouts = 0
        self.restarts = 0
        self.restarts_per_worker = [0] * self.num_workers
        self.failures: List[FailureEvent] = []
        self.dead: Set[int] = set()
        self.aborted: Optional[RunAborted] = None
        #: per-worker silence episodes: wall moment the current failure
        #: assessment started (cleared on any delivery progress).
        self._episode: Dict[int, float] = {}
        self._episode_beat: Dict[int, int] = {}
        #: restart's replay base (None under the other policies).
        self.route_log: Optional[_RouteLog] = (
            _RouteLog() if config.recovery == "restart" else None
        )

    def log_chunk(
        self,
        start: int,
        bounds: List[int],
        grouped: np.ndarray,
        stage_ids: np.ndarray,
        stage_fill: List[int],
    ) -> None:
        """Log a routed chunk's grouped ids (restart only), then trim."""
        log = self.route_log
        assert log is not None
        log.chunks.append((start, bounds, grouped))
        if len(log.chunks) > _LOG_CHUNKS:
            log.trim(self._horizon(start, stage_ids, stage_fill))

    def _horizon(
        self, start: int, stage_ids: np.ndarray, stage_fill: List[int]
    ) -> int:
        """The oldest stream id a restart could still re-deliver.

        A worker behind on its deliveries may need any id after its
        checkpoint; one that has consumed everything delivered to it
        only its staged ids, or none routed before ``start``.
        """
        horizon = start
        for w in range(self.num_workers):
            checkpoint = self.backend.checkpoint(w)
            if checkpoint.consumed < self.delivered[w]:
                horizon = min(horizon, checkpoint.last_id + 1)
            elif stage_fill[w]:
                horizon = min(horizon, int(stage_ids[w, 0]))
        return horizon

    # -- delivery -----------------------------------------------------------

    def deliver(
        self, worker: int, indices: np.ndarray, stamps: np.ndarray
    ) -> None:
        """Supervised first-time delivery to ``worker`` (or its deputy).

        Retries, reroutes or restarts through failures according to the
        recovery policy; on the ``fail`` policy raises
        :class:`RunAborted` after exact partial accounting.
        """
        offset = 0
        total = int(indices.size)
        target = int(worker)
        while offset < total:
            target = self.partitioner.remap_worker(target)
            pushed, dropped, stalled = self._push(
                target, indices[offset:], stamps[offset:]
            )
            self.delivered[target] += pushed
            self.dropped[target] += dropped
            offset += pushed + dropped
            if pushed or not stalled:
                self._clear_episode(target)
            if stalled:
                self._fail_over(target)

    def _push(
        self, worker: int, indices: np.ndarray, stamps: np.ndarray
    ) -> Tuple[int, int, bool]:
        """One push, with its stalls booked: ``(pushed, dropped, stalled)``."""
        try:
            outcome = self.backend.push(worker, indices, stamps)
        except RingStallError as exc:
            self.stall_timeouts += 1
            self.stalls += exc.stalls
            return exc.pushed, 0, True
        self.stalls += outcome.stalls
        return outcome.pushed, outcome.dropped, False

    # -- the recovery switch ------------------------------------------------

    def _fail_over(
        self, worker: int, reason: Optional[str] = None, final: bool = False
    ) -> bool:
        """Record a death of ``worker`` and apply the recovery policy.

        Every place a death is found lands here: a stalled push or
        replay (``reason=None``: assess first; returns False if the
        worker is alive after all), and the end-of-stream drain
        (``final``).  Raises :class:`RunAborted` when the run cannot go
        on.  After an abort, later deaths are recorded as ``fail``; at
        end of stream a restarted worker's ring is marked done again.
        """
        resume = self.clock.enter("recovery")
        try:
            if reason is None:
                reason = self._assess(worker)
                if reason == "retry":
                    return False
            action = self.config.recovery if self.aborted is None else "fail"
            event = self._record(worker, reason, action)
            if action == "restart":
                self._restart(worker, reason, event)
                if final:
                    self.backend.rings[worker].mark_done()
                return True
            self.dead.add(worker)
            if action == "fail":
                raise RunAborted(worker, reason)
            try:
                self.partitioner.mask_worker(worker)
            except RuntimeError as exc:
                # Nobody left to reroute to.  At end of stream nothing
                # is left to deliver, so the mask is moot and the run
                # ends degraded; mid-stream it cannot continue.
                if not final:
                    raise RunAborted(
                        worker, f"reroute impossible ({exc})"
                    ) from exc
            return True
        finally:
            self.clock.enter(resume)

    def _assess(self, worker: int) -> str:
        """Why a push to ``worker`` cannot progress.

        Returns ``"retry"`` (worker showed signs of life; push again),
        or a death reason (``"exit"``/``"wedged"``) after condemning.
        Bounded: the silence episode persists across calls until the
        worker makes actual delivery progress, so repeated
        stall->retry->stall cycles still converge on the liveness
        deadline.  All clock reads are supervision telemetry (REPRO002
        noqa).
        """
        now = time.perf_counter()  # repro: noqa[REPRO002]
        started = self._episode.setdefault(worker, now)
        if worker not in self._episode_beat:
            self._episode_beat[worker] = int(self.backend.beats[worker])
        deadline = self.config.liveness_deadline
        while True:
            if not self.backend.alive(worker):
                self._clear_episode(worker)
                return "exit"
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if now - started >= deadline:
                self.backend.condemn(worker)
                self._clear_episode(worker)
                return "wedged"
            remaining = self.backend.stall_remaining(worker)
            if remaining > 0.0:
                if (
                    math.isinf(remaining)
                    or (now - started) + remaining >= deadline
                ):
                    # The stall provably outlives the liveness budget:
                    # condemn now instead of sleeping toward it.
                    self.backend.condemn(worker)
                    self._clear_episode(worker)
                    return "wedged"
                time.sleep(remaining + 1e-4)
                continue
            if self.backend.drives_consumers:
                # An alive, unstalled simulated loop progresses whenever
                # the push's drain hook runs it -- retry immediately.
                return "retry"
            beat = int(self.backend.beats[worker])
            if beat != self._episode_beat[worker]:
                self._episode_beat[worker] = beat
                return "retry"
            time.sleep(_ASSESS_POLL)

    def _clear_episode(self, worker: int) -> None:
        self._episode.pop(worker, None)
        self._episode_beat.pop(worker, None)

    def _record(self, worker: int, reason: str, action: str) -> int:
        """Log a failure of ``worker``; returns its index in the log."""
        self.failures.append(
            FailureEvent(
                worker=worker,
                reason=reason,
                action=action,
                at_routed=int(self.series.loads.sum()),
                delivered=int(self.delivered[worker]),
                checkpointed=self.backend.checkpoint(worker).count,
            )
        )
        return len(self.failures) - 1

    def _restart(self, worker: int, reason: str, event: int) -> None:
        """Respawn ``worker`` from its checkpoint; re-deliver what it lost.

        The lost span is the worker's messages after the checkpoint's
        last id: ``delivered[worker]`` minus the checkpoint's consumed
        count of them (``delivered`` never counts replays, so this holds
        across repeated failures), read off the route log.  A
        death during the replay goes back through :meth:`_fail_over`,
        which restarts again from the then-current checkpoint --
        bounded by ``restart_limit`` per worker.  Failure ``event``
        gets the resume count and the messages re-delivered.
        """
        self.restarts_per_worker[worker] += 1
        if self.restarts_per_worker[worker] > self.config.restart_limit:
            self.dead.add(worker)
            raise RunAborted(
                worker,
                f"exceeded restart limit ({self.config.restart_limit})",
            )
        self.restarts += 1
        self.worker_faults[worker] = consume_cause(
            self.worker_faults[worker], reason
        )
        resume = self.backend.checkpoint(worker)
        self.backend.respawn(worker, self.worker_faults[worker])
        self._clear_episode(worker)
        assert self.route_log is not None
        span = self.route_log.lost_span(
            worker, resume.last_id, int(self.delivered[worker]) - resume.consumed
        )
        replayed = 0
        try:
            for ids in span:
                # Replay stamps are fresh by necessity; sojourns of
                # replayed messages measure re-delivery, not the
                # original enqueue (REPRO002 noqa).
                stamps = np.full(
                    ids.size,
                    time.perf_counter(),  # repro: noqa[REPRO002]
                )
                while ids.size:
                    pushed, _dropped, stalled = self._push(worker, ids, stamps)
                    replayed += pushed
                    ids, stamps = ids[pushed:], stamps[pushed:]
                    if stalled and self._fail_over(worker):
                        return
        finally:
            self.failures[event] = replace(
                self.failures[event],
                resumed_from=resume.count,
                replayed=replayed,
            )

    # -- end of stream ------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        """Drain every surviving worker to completion and gather reports.

        Deaths found here (a fault firing during the final drain, a
        wedged drain) go through the same recovery switch as mid-stream
        ones, as ``final`` deaths.
        """
        for w in range(self.num_workers):
            if w not in self.dead:
                self.backend.rings[w].mark_done()
        reports: Dict[int, Dict[str, Any]] = {}
        for w in range(self.num_workers):
            while w not in self.dead and w not in reports:
                try:
                    reports[w] = self.backend.finish(w)
                except WorkerDeadError as exc:
                    try:
                        self._fail_over(w, exc.reason, final=True)
                    except RunAborted as abort:
                        self.aborted = self.aborted or abort
        return [reports[w] for w in sorted(reports)]


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def _resolve_mode(mode: str) -> str:
    if mode == "auto":
        return "process" if runtime_available() else "simulated"
    if mode == "process" and not runtime_available():
        raise RuntimeError(
            "mode='process' requested but process spawning or shared "
            "memory is unavailable here; use mode='simulated' or 'auto'"
        )
    return mode


def run_runtime(
    keys: StreamLike,
    partitioner: "Partitioner",
    config: Optional[RuntimeConfig] = None,
    *,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
) -> RuntimeResult:
    """Run a stream through the sharded runtime; see the module docstring.

    Routing is chunk-for-chunk identical to
    :func:`repro.core.engine.replay_stream` on the same ``keys`` and a
    fresh ``partitioner``; the returned ``routed_loads``,
    ``checkpoint_positions`` and ``imbalance_series`` are the replay's,
    and under the lossless ``block`` policy ``worker_loads`` equals
    ``routed_loads``.
    ``keys`` may be a materialised array or a bounded-memory
    :class:`~repro.core.chunks.ChunkSource` (one fresh pass on the
    source's own chunk grid; ``timestamps`` requires an array input).
    Injected faults and recovery behaviour are configured on
    ``config`` (``faults``, ``recovery`` and the deadline knobs).
    """
    config = config or RuntimeConfig()
    m = stream_length(keys)
    times: Optional[np.ndarray] = None
    if timestamps is not None:
        times = np.asarray(timestamps, dtype=np.float64)
        if times.size != m:
            raise ValueError(
                f"timestamps has {times.size} entries for {m} messages"
            )
    num_workers = partitioner.num_workers
    plan = config.faults or FaultPlan()
    for spec in plan.specs:
        if spec.worker >= num_workers:
            raise ValueError(
                f"fault {spec.describe()!r} targets worker {spec.worker} "
                f"but only {num_workers} workers exist"
            )
    worker_faults = {w: plan.for_worker(w) for w in range(num_workers)}
    mode = _resolve_mode(config.mode)
    backend: _Backend = (
        _ProcessBackend(num_workers, config, worker_faults)
        if mode == "process"
        else _SimulatedBackend(num_workers, config, worker_faults)
    )

    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    flushes = 0
    flush = int(config.flush_size)
    # Coalescing staging: per-worker id rows that fill across chunks and
    # flush to the ring only when full or at end-of-stream.  One stamp
    # lane is shared by every flush -- the ring copies on push -- so the
    # per-flush cost is one clock read plus one vector fill, not a
    # fresh allocation.
    stage_ids = np.empty((num_workers, flush), dtype=np.int64)
    stage_fill = [0] * num_workers
    stamp_lane = np.empty(flush, dtype=np.float64)
    # The run's wall clock starts here (backend spawn stays outside it),
    # in the route stage: reading the first chunk is routing work.
    clock = _StageClock()
    sup = _Supervisor(backend, partitioner, config, series, worker_faults, clock)
    restartable = sup.route_log is not None

    def flush_worker(w: int) -> None:
        """Deliver worker ``w``'s staged ids (one shared stamp per flush)."""
        nonlocal flushes
        n = stage_fill[w]
        if n == 0:
            return
        resume = clock.enter("flush_stall")
        # The switch's clock reading doubles as the enqueue stamp.
        stamp_lane[:n] = clock.mark
        sup.deliver(w, stage_ids[w, :n], stamp_lane[:n])
        clock.enter(resume)
        flushes += 1
        stage_fill[w] = 0

    try:
        try:
            for start, _stop, key_chunk, time_chunk in iter_keyed_chunks(
                keys, config.chunk_size, times
            ):
                assignments = partitioner.route_chunk(key_chunk, time_chunk)
                # Reroute recovery: decisions for masked workers forward
                # to their deputies (the identity when nothing is masked).
                assignments = partitioner.remap_masked(assignments)
                series.update(assignments)
                clock.enter("scatter")
                # Scatter: group the chunk's message ids by worker with the
                # stable counting sort, then append each worker's segment to
                # its staging row, flushing whenever a row fills.  Stability
                # plus append order keeps every worker's sub-stream in
                # arrival order (FIFO end to end) at any flush size.
                _counts, boundaries, grouped = counting_scatter(
                    assignments, num_workers, base=start
                )
                bounds = boundaries.tolist()
                if restartable:
                    # Before any flush of this chunk: a death found by
                    # one may need this chunk's ids replayed.
                    sup.log_chunk(start, bounds, grouped, stage_ids, stage_fill)
                for w in range(num_workers):
                    lo, hi = bounds[w], bounds[w + 1]
                    while lo < hi:
                        fill = stage_fill[w]
                        take = min(hi - lo, flush - fill)
                        stage_ids[w, fill : fill + take] = grouped[
                            lo : lo + take
                        ]
                        stage_fill[w] = fill + take
                        lo += take
                        if stage_fill[w] == flush:
                            flush_worker(w)
                # Reading (or generating) the next chunk is routing work.
                clock.enter("route")
            clock.enter("flush_stall")
            for w in range(num_workers):
                flush_worker(w)
        except RunAborted as exc:
            # Clean abort (fail policy / exhausted recovery): stop
            # routing, collect whatever the survivors processed, and
            # label the result.  Undelivered remainders are accounted
            # below -- the abort is loud but never lossy in bookkeeping.
            sup.aborted = exc
        clock.enter("drain")
        reports = sup.collect()
        wall = clock.stop()
        # Read the checkpoint records before close() drops the shared-
        # memory views: they hold each dead worker's survivable count.
        worker_loads = np.array(
            [backend.checkpoint(w).count for w in range(num_workers)],
            dtype=np.int64,
        )
    finally:
        backend.close()

    positions, imbalances = series.finish()
    routed = series.loads.copy()
    lost = np.zeros(num_workers, dtype=np.int64)
    for report in reports:
        worker_loads[report["worker_id"]] = report["count"]
        lost[report["worker_id"]] = report["fault_dropped"]
    # Workers dead after collect() (restarted-and-recovered ones are not)
    # lose their delivered-but-uncheckpointed pipeline.
    dead = sorted(sup.dead)
    lost[dead] = sup.delivered[dead] - worker_loads[dead]
    if config.policy != "drop" and not sup.failures and not plan.specs:
        # The lossless policy promises exactly this; a mismatch means a
        # ring protocol bug, which must never be reported as a result.
        if not np.array_equal(worker_loads + sup.dropped, routed):
            raise AssertionError(
                f"worker counts {worker_loads.tolist()} do not match routed "
                f"loads {routed.tolist()} under policy "
                f"{config.policy!r}"
            )
    if sup.aborted is not None:
        status = "failed"
    elif sup.dead:
        status = "degraded"
    else:
        status = "ok"
    result = RuntimeResult(
        mode=mode,
        policy=config.policy,
        num_workers=num_workers,
        num_messages=m,
        routed_loads=routed,
        worker_loads=worker_loads,
        dropped_per_worker=sup.dropped,
        stalls=sup.stalls,
        checkpoint_positions=positions,
        imbalance_series=imbalances,
        latency=LatencyStore.merge_all(
            LatencyStore.from_dict(report["latency"]) for report in reports
        ),
        wall_seconds=wall,
        stage_seconds=clock.seconds,
        flushes=flushes,
        worker_reports=reports,
        status=status,
        failures=[event.to_dict() for event in sup.failures],
        failed_workers=tuple(dead),
        masked_workers=partitioner.masked_workers,
        lost_per_worker=lost,
        undelivered=int(
            routed.sum() - sup.delivered.sum() - sup.dropped.sum()
        ),
        restarts=sup.restarts,
        stall_timeouts=sup.stall_timeouts,
        injected_faults=tuple(s.describe() for s in plan.specs),
    )
    if not result.conservation_ok:
        raise AssertionError(
            f"conservation violated: routed {result.sent} != processed "
            f"{result.processed} + dropped {result.dropped} + lost "
            f"{result.lost}"
        )
    return result
