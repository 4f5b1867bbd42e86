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
or a bounded-memory :class:`~repro.core.chunks.ChunkSource`.  Per-stage
wall time (route / scatter / flush-stall / drain / recovery) is
measured and reported in ``RuntimeResult.stage_seconds``.

**Determinism contract.**  Every routing decision happens in the source,
on the same chunk boundaries, through the same partitioner state
evolution as the single-process replay.  Workers only *count* what
arrives.  Under a lossless policy (``block``/``spin``) the per-worker
counts are therefore byte-identical to ``replay_stream(...).final_loads``
for every registered scheme -- by construction, not by luck -- no matter
how the OS schedules the worker processes.  Ring timing can change
*when* a message is processed, never *where*.  (Consequently the
runtime wires no completion feedback back into partitioners: ``jbsq``
here is its deterministic replay path, least-loaded-of-d over counters.)

**Supervision & recovery.**  The source doubles as supervisor: workers
heartbeat into the second lane of the progress block on every drain
step, a full-ring push escalates
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
* ``restart`` -- respawn the worker over the same (reset) ring and
  deterministically replay everything it had ever been delivered: the
  replay re-routes the stream prefix from a forked
  :class:`~repro.core.chunks.ChunkSource` through a pristine copy of
  the partitioner, so the respawned worker rebuilds the exact
  sub-stream the dead one lost and final per-worker counts are
  byte-identical to a fault-free run.  Faults (injected or genuine)
  during the replay recurse, bounded by ``restart_limit``.

The conservation law ``sent == processed + dropped + lost`` is asserted
on every path: ``lost`` is dead workers' delivered-but-uncheckpointed
pipeline plus fault-discarded messages, and aborted runs additionally
report the never-delivered remainder (``undelivered``).

Two interchangeable backends:

* **process** -- real worker processes over
  ``multiprocessing.shared_memory`` rings; requires working process
  spawning and /dev/shm (:func:`runtime_available` probes once).
* **simulated** -- the same rings and worker loops in-process; "wait
  for the consumer" becomes "run the consumer" via the backpressure
  ``drain`` hook, so the block policy cannot deadlock in one thread.
  This is the fallback for 1-core/locked-down containers, mirroring
  ``repro.core.parallel``'s serial fallback.  Supervision is mode-
  blind: the simulated backend condemns wedged loops and respawns
  killed ones exactly like the process backend does.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
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
    fork_source,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.metrics import StreamingLoadSeries
from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.runtime.backpressure import (
    POLICIES,
    RingStallError,
    push_with_backpressure,
)
from repro.runtime.faults import FaultPlan, FaultSpec, consume_cause
from repro.runtime.ring import SpscRing, ring_nbytes
from repro.runtime.supervision import (
    DEFAULT_REAP_TIMEOUT,
    RECOVERY_POLICIES,
    FailureEvent,
    RunAborted,
    WorkerDeadError,
    reap_process,
)
from repro.runtime.worker import WorkerLoop, WorkerSpec, worker_main

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


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of one runtime deployment (not of the routed decisions)."""

    #: slots per worker ring.
    capacity: int = 8192
    #: backpressure policy: "block", "spin" or "drop".
    policy: str = "block"
    #: seconds of simulated per-message service cost in each worker.
    service_cost: float = 0.0
    #: source-side routing chunk (MUST stay replay_stream's default for
    #: count identity; exposed for tests that stress wrap-around).
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: messages between worker checkpoint publications.
    checkpoint_interval: int = 4096
    #: "process", "simulated", or "auto" (process when available).
    mode: str = "auto"
    #: sojourn-sketch relative error.
    relative_error: float = DEFAULT_RELATIVE_ERROR
    #: largest batch a worker drains per step.
    max_batch: int = 4096
    #: seconds to wait for each worker report/join before giving up.
    join_timeout: float = 120.0
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
    #: source-side wall breakdown: "route" (partitioner decisions +
    #: balance metrics), "scatter" (counting-sort grouping + staging
    #: appends), "flush_stall" (ring pushes, including every stall the
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

    @property
    def transport_overhead_ratio(self) -> float:
        """Source wall time over pure routing time (>= 1.0; 1.0 = free).

        The tracked "transport tax": how much slower the sharded path is
        than the routing decisions alone.  0.0 when the route stage was
        too fast to measure.
        """
        route = self.stage_seconds.get("route", 0.0)
        return self.wall_seconds / route if route > 0 else 0.0

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


class _SimulatedBackend:
    """Rings + worker loops in one process; drains replace waiting.

    Exposes the same supervision surface as the process backend --
    heartbeat lanes, liveness, condemnation, respawn -- so recovery
    logic upstream is mode-blind.  ``drives_consumers`` tells the
    supervisor that consumers only progress when *it* drains them
    (there is no point polling heartbeats that cannot advance on their
    own).
    """

    mode = "simulated"
    drives_consumers = True

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        self.config = config
        self.num_workers = num_workers
        lanes = np.zeros(2 * num_workers, dtype=np.int64)
        self.counts = lanes[:num_workers]
        self.beats = lanes[num_workers:]
        self.rings = [
            SpscRing.create_local(config.capacity) for _ in range(num_workers)
        ]
        self.loops = [
            self._build_loop(w, worker_faults.get(w, ()))
            for w in range(num_workers)
        ]

    def _build_loop(
        self, worker: int, faults: Tuple[FaultSpec, ...]
    ) -> WorkerLoop:
        config = self.config
        return WorkerLoop(
            worker,
            self.rings[worker],
            self.counts,
            service_cost=config.service_cost,
            checkpoint_interval=config.checkpoint_interval,
            relative_error=config.relative_error,
            max_batch=config.max_batch,
            capture_indices=config.capture_indices,
            beats=self.beats,
            faults=tuple(faults),
        )

    def push(
        self,
        worker: int,
        indices: np.ndarray,
        stamps: np.ndarray,
        deadline: Optional[float] = None,
    ) -> Any:
        return push_with_backpressure(
            self.rings[worker],
            indices,
            stamps,
            self.config.policy,
            drain=self.loops[worker].step,
            deadline=deadline,
        )

    def worker_alive(self, worker: int) -> bool:
        return not self.loops[worker].dead

    def checkpointed(self, worker: int) -> int:
        return int(self.counts[worker])

    def stall_remaining(self, worker: int) -> float:
        # Supervision telemetry read (REPRO002 noqa): the supervisor
        # needs the stall horizon to pick sleep-it-out vs condemn.
        return self.loops[worker].stall_remaining(
            time.perf_counter()  # repro: noqa[REPRO002]
        )

    def condemn(self, worker: int) -> None:
        self.loops[worker].kill()

    def respawn(self, worker: int, faults: Tuple[FaultSpec, ...]) -> None:
        self.rings[worker].reset()
        self.counts[worker] = 0
        self.beats[worker] = 0
        self.loops[worker] = self._build_loop(worker, faults)

    def finish_one(
        self, worker: int, silence_deadline: float, overall_deadline: float
    ) -> Dict[str, Any]:
        loop = self.loops[worker]
        if loop.dead:
            raise WorkerDeadError(worker, "exit")
        try:
            loop.drain_until_done(deadline=silence_deadline)
        except RingStallError:
            # A drain that stopped progressing is a wedged loop (e.g. a
            # stall-forever fault): condemn it like the process backend
            # would a silent child.
            loop.kill()
            raise WorkerDeadError(worker, "wedged") from None
        if loop.dead:
            raise WorkerDeadError(worker, "exit")
        return loop.report()

    def finalize_clean(self, workers: Sequence[int]) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessBackend:
    """Real worker processes over shared-memory rings."""

    mode = "process"
    drives_consumers = False

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        from multiprocessing import shared_memory

        self.config = config
        self.num_workers = num_workers
        self._shms: List[Any] = []
        self.rings: List[SpscRing] = []
        self.processes: List[multiprocessing.Process] = []
        self._retired: List[multiprocessing.Process] = []
        self._specs: List[WorkerSpec] = []
        self._collected: Dict[int, Dict[str, Any]] = {}
        self.results: Any = None
        self.counts: Any = None
        self.beats: Any = None
        self._lanes: Any = None
        try:
            self._progress_shm = shared_memory.SharedMemory(
                create=True, size=2 * num_workers * 8
            )
            self._shms.append(self._progress_shm)
            lanes = np.ndarray(
                (2 * num_workers,),
                dtype=np.int64,
                buffer=self._progress_shm.buf,
            )
            lanes[:] = 0
            self._lanes = lanes
            self.counts = lanes[:num_workers]
            self.beats = lanes[num_workers:]
            ring_shms = []
            for _ in range(num_workers):
                shm = shared_memory.SharedMemory(
                    create=True, size=ring_nbytes(config.capacity)
                )
                self._shms.append(shm)
                ring_shms.append(shm)
                self.rings.append(
                    SpscRing.from_buffer(shm.buf, config.capacity, initialize=True)
                )
            self.results = multiprocessing.Queue()
            for w in range(num_workers):
                spec = WorkerSpec(
                    worker_id=w,
                    num_workers=num_workers,
                    ring_name=ring_shms[w].name,
                    progress_name=self._progress_shm.name,
                    capacity=config.capacity,
                    service_cost=config.service_cost,
                    checkpoint_interval=config.checkpoint_interval,
                    relative_error=config.relative_error,
                    max_batch=config.max_batch,
                    capture_indices=config.capture_indices,
                    faults=tuple(worker_faults.get(w, ())),
                    drain_deadline=config.drain_deadline,
                )
                self._specs.append(spec)
                self.processes.append(self._spawn(spec))
        except BaseException:
            self.close()
            raise

    def _spawn(self, spec: WorkerSpec) -> multiprocessing.Process:
        proc = multiprocessing.Process(
            target=worker_main, args=(spec, self.results), daemon=True
        )
        proc.start()
        return proc

    def push(
        self,
        worker: int,
        indices: np.ndarray,
        stamps: np.ndarray,
        deadline: Optional[float] = None,
    ) -> Any:
        return push_with_backpressure(
            self.rings[worker],
            indices,
            stamps,
            self.config.policy,
            deadline=deadline,
            alive=self.processes[worker].is_alive,
        )

    def worker_alive(self, worker: int) -> bool:
        return self.processes[worker].is_alive()

    def checkpointed(self, worker: int) -> int:
        return int(self.counts[worker])

    def stall_remaining(self, worker: int) -> float:
        # The source cannot see a real worker's fault machine; silence
        # on the beat lane is its only stall signal.
        return 0.0

    def condemn(self, worker: int) -> None:
        reap_process(self.processes[worker], DEFAULT_REAP_TIMEOUT)

    def respawn(self, worker: int, faults: Tuple[FaultSpec, ...]) -> None:
        old = self.processes[worker]
        reap_process(old, DEFAULT_REAP_TIMEOUT)
        self._retired.append(old)
        self.rings[worker].reset()
        self.counts[worker] = 0
        self.beats[worker] = 0
        spec = replace(self._specs[worker], faults=tuple(faults))
        self._specs[worker] = spec
        self.processes[worker] = self._spawn(spec)

    def finish_one(
        self, worker: int, silence_deadline: float, overall_deadline: float
    ) -> Dict[str, Any]:
        import queue as queue_module

        if worker in self._collected:
            return self._collected.pop(worker)
        # Liveness clocks below are supervision telemetry, never routing
        # inputs (REPRO002 noqa on each read).
        started = time.perf_counter()  # repro: noqa[REPRO002]
        silent_since = started
        last_beat = int(self.beats[worker])
        while True:
            try:
                report = self.results.get(timeout=_FINISH_POLL)
            except queue_module.Empty:
                pass
            else:
                wid = int(report["worker_id"])
                if wid == worker:
                    return report
                self._collected[wid] = report
                continue
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if not self.processes[worker].is_alive():
                report = self._drain_report_race(worker)
                if report is not None:
                    return report
                raise WorkerDeadError(
                    worker,
                    "exit",
                    exitcode=self.processes[worker].exitcode,
                )
            beat = int(self.beats[worker])
            if beat != last_beat:
                last_beat = beat
                silent_since = now
            if now - silent_since >= silence_deadline:
                self.condemn(worker)
                raise WorkerDeadError(worker, "wedged")
            if now - started >= overall_deadline:
                self.condemn(worker)
                raise WorkerDeadError(worker, "finish-timeout")

    def _drain_report_race(self, worker: int) -> Optional[Dict[str, Any]]:
        """A dead worker's report may still sit in the queue's buffer."""
        import queue as queue_module

        try:
            while True:
                report = self.results.get(timeout=0.2)
                wid = int(report["worker_id"])
                if wid == worker:
                    return report
                self._collected[wid] = report
        except queue_module.Empty:
            return None

    def finalize_clean(self, workers: Sequence[int]) -> None:
        """Join workers that reported cleanly; a bad exit is a bug."""
        for w in workers:
            proc = self.processes[w]
            proc.join(timeout=self.config.join_timeout)
            if proc.is_alive():  # pragma: no cover - reported but hung
                reap_process(proc, DEFAULT_REAP_TIMEOUT)
                raise RuntimeError(
                    f"worker pid {proc.pid} failed to exit after reporting"
                )
            if proc.exitcode != 0:
                raise RuntimeError(
                    f"worker pid {proc.pid} exited with code {proc.exitcode}"
                )

    def close(self) -> None:
        for proc in list(self.processes) + self._retired:
            reap_process(proc, DEFAULT_REAP_TIMEOUT)
        if self.results is not None:
            self.results.close()
            self.results.cancel_join_thread()
            self.results = None
        # Drop the numpy views before closing the mappings they borrow.
        self.rings.clear()
        self.counts = None
        self.beats = None
        self._lanes = None
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


class _Supervisor:
    """Delivery accounting + failure assessment + recovery execution.

    Owns every piece of state the conservation law needs: ``delivered``
    (distinct stream messages that first entered each worker's ring --
    restart replays deliberately do *not* increment it, which is what
    makes the replay span ``delivered[w]`` correct even across repeated
    failures), ``dropped`` (source-side sheds), the dead set, and the
    failure log.
    """

    def __init__(
        self,
        backend: Any,
        partitioner: "Partitioner",
        config: RuntimeConfig,
        keys: StreamLike,
        times: Optional[np.ndarray],
        series: StreamingLoadSeries,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        self.backend = backend
        self.partitioner = partitioner
        self.config = config
        self.keys = keys
        self.times = times
        self.series = series
        self.num_workers = partitioner.num_workers
        self.worker_faults = worker_faults
        self.delivered = np.zeros(self.num_workers, dtype=np.int64)
        self.dropped = np.zeros(self.num_workers, dtype=np.int64)
        self.stalls = 0
        self.stall_timeouts = 0
        self.restarts = 0
        self.restarts_per_worker = [0] * self.num_workers
        self.failures: List[FailureEvent] = []
        self.dead: Set[int] = set()
        self.aborted: Optional[RunAborted] = None
        self.recovery_seconds = 0.0
        #: per-worker silence episodes: wall moment the current failure
        #: assessment started (cleared on any delivery progress).
        self._episode: Dict[int, float] = {}
        self._episode_beat: Dict[int, int] = {}
        #: pristine partitioner copy for deterministic span replay.
        self._pristine: Optional["Partitioner"] = (
            copy.deepcopy(partitioner) if config.recovery == "restart" else None
        )

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
            try:
                outcome = self.backend.push(
                    target,
                    indices[offset:],
                    stamps[offset:total],
                    deadline=self.config.push_deadline,
                )
            except RingStallError as exc:
                self.stall_timeouts += 1
                self.stalls += exc.stalls
                self.delivered[target] += exc.pushed
                offset += exc.pushed
                if exc.pushed:
                    self._clear_episode(target)
                self._recover(target)
                continue
            self.stalls += outcome.stalls
            self.delivered[target] += outcome.pushed
            self.dropped[target] += outcome.dropped
            offset += outcome.pushed + outcome.dropped
            self._clear_episode(target)

    # -- failure assessment -------------------------------------------------

    def _recover(self, worker: int) -> None:
        """Assess a stalled push target and apply the recovery policy."""
        before = time.perf_counter()  # repro: noqa[REPRO002]
        try:
            verdict = self._assess(worker)
            if verdict == "retry":
                return
            self._record(worker, verdict, self.config.recovery)
            if self.config.recovery == "fail":
                self.dead.add(worker)
                raise RunAborted(worker, verdict)
            if self.config.recovery == "reroute":
                self._mask(worker)
                return
            self._restart(worker, verdict)
        finally:
            self.recovery_seconds += (
                time.perf_counter() - before  # repro: noqa[REPRO002]
            )

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
            if not self.backend.worker_alive(worker):
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

    def _record(self, worker: int, reason: str, action: str) -> None:
        self.failures.append(
            FailureEvent(
                worker=worker,
                reason=reason,
                action=action,
                at_routed=int(self.series.loads.sum()),
                delivered=int(self.delivered[worker]),
                checkpointed=int(self.backend.checkpointed(worker)),
            )
        )

    # -- recovery actions ---------------------------------------------------

    def _mask(self, worker: int) -> None:
        self.dead.add(worker)
        try:
            self.partitioner.mask_worker(worker)
        except RuntimeError as exc:
            # Nobody left to reroute to: the run cannot continue.
            raise RunAborted(worker, f"reroute impossible ({exc})") from exc

    def _restart(self, worker: int, reason: str) -> None:
        """Respawn ``worker`` and replay its lost span deterministically.

        Loops (not recurses) on failures during the replay itself: the
        span is re-derived from ``delivered`` each attempt, which never
        counts replayed messages, so every attempt rebuilds the same
        prefix.  Bounded by ``restart_limit`` per worker.
        """
        while True:
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
            self.backend.respawn(worker, self.worker_faults[worker])
            self.dead.discard(worker)
            self._clear_episode(worker)
            span = int(self.delivered[worker])
            done = 0
            replay_failed = False
            while done < span:
                sent, stalled = self._replay_slice(worker, span, done)
                done += sent
                if stalled:
                    verdict = self._assess(worker)
                    if verdict == "retry":
                        continue
                    self._record(worker, verdict, "restart")
                    reason = verdict
                    replay_failed = True
                    break
            if not replay_failed:
                return

    def _replay_slice(
        self, worker: int, span: int, skip: int
    ) -> Tuple[int, bool]:
        """Re-deliver ``worker``'s messages ``[skip, span)`` of its span.

        Re-routes the stream prefix from a forked source through a
        pristine partitioner copy -- the same chunk grid and state
        evolution as the original pass, hence the same assignments --
        and pushes only ``worker``'s share.  Returns ``(sent,
        stalled)``; a stalled push ends the slice with partial progress
        for the caller to assess.
        """
        assert self._pristine is not None
        fresh = copy.deepcopy(self._pristine)
        sent = 0
        seen = 0
        for start, _stop, key_chunk, time_chunk in iter_keyed_chunks(
            fork_source(self.keys), self.config.chunk_size, self.times
        ):
            assignments = fresh.route_chunk(key_chunk, time_chunk)
            mine = np.flatnonzero(assignments == worker)
            if mine.size:
                lo = max(skip - seen, 0)
                hi = min(span - seen, int(mine.size))
                seen += int(mine.size)
                if hi > lo:
                    ids = (start + mine[lo:hi]).astype(np.int64)
                    # Replay stamps are fresh by necessity; sojourns of
                    # replayed messages measure re-delivery, not the
                    # original enqueue (REPRO002 noqa).
                    stamps = np.full(
                        ids.size,
                        time.perf_counter(),  # repro: noqa[REPRO002]
                    )
                    try:
                        outcome = self.backend.push(
                            worker,
                            ids,
                            stamps,
                            deadline=self.config.push_deadline,
                        )
                    except RingStallError as exc:
                        self.stall_timeouts += 1
                        self.stalls += exc.stalls
                        return sent + exc.pushed, True
                    self.stalls += outcome.stalls
                    sent += outcome.pushed
            if seen >= span:
                break
        return sent, False

    # -- end of stream ------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        """Drain every surviving worker to completion and gather reports.

        Failures discovered here (a fault firing during the final
        drain, a wedged drain) run through the same recovery policies;
        reroute at end-of-stream degenerates to masking alone, since a
        dead ring's contents are unrecoverable without replay.
        """
        for w in range(self.num_workers):
            if w not in self.dead:
                self.backend.rings[w].mark_done()
        reports: Dict[int, Dict[str, Any]] = {}
        for w in range(self.num_workers):
            while w not in self.dead:
                try:
                    reports[w] = self.backend.finish_one(
                        w,
                        silence_deadline=self.config.liveness_deadline,
                        overall_deadline=self.config.join_timeout,
                    )
                    break
                except WorkerDeadError as exc:
                    action = (
                        self.config.recovery if self.aborted is None else "fail"
                    )
                    self._record(w, exc.reason, action)
                    if action == "restart":
                        before = time.perf_counter()  # repro: noqa[REPRO002]
                        try:
                            self._restart(w, exc.reason)
                        except RunAborted as abort:
                            self.aborted = abort
                            self.dead.add(w)
                            break
                        finally:
                            self.recovery_seconds += (
                                time.perf_counter()  # repro: noqa[REPRO002]
                                - before
                            )
                        # The respawn reset the ring's done flag; the
                        # stream is over, so re-signal end-of-stream.
                        self.backend.rings[w].mark_done()
                        continue
                    self.dead.add(w)
                    if action == "reroute":
                        try:
                            self.partitioner.mask_worker(w)
                        except RuntimeError:
                            # Last survivor died at end-of-stream: there
                            # is nothing left to deliver, so masking is
                            # moot; the loss accounting still applies.
                            pass
                    elif self.aborted is None:
                        self.aborted = RunAborted(w, exc.reason)
                    break
        self.backend.finalize_clean(sorted(reports))
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
    and under a lossless policy ``worker_loads`` equals ``routed_loads``.
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
    backend: Any = (
        _ProcessBackend(num_workers, config, worker_faults)
        if mode == "process"
        else _SimulatedBackend(num_workers, config, worker_faults)
    )

    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    sup = _Supervisor(
        backend, partitioner, config, keys, times, series, worker_faults
    )
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
    route_seconds = 0.0
    scatter_seconds = 0.0
    flush_seconds = 0.0

    def flush_worker(w: int) -> None:
        """Deliver worker ``w``'s staged ids (one shared stamp per flush)."""
        nonlocal flushes, flush_seconds
        n = stage_fill[w]
        if n == 0:
            return
        # Wall time + enqueue stamps are runtime telemetry, never
        # routing inputs (REPRO002 noqa on each read in this loop): the
        # e2e throughput, sojourn, and stage-breakdown numbers are the
        # point of this engine, and no load count or partitioner
        # decision depends on them.
        before = time.perf_counter()  # repro: noqa[REPRO002]
        recovery_before = sup.recovery_seconds
        stamp_lane[:n] = before
        sup.deliver(w, stage_ids[w, :n], stamp_lane[:n])
        after = time.perf_counter()  # repro: noqa[REPRO002]
        # Recovery time (assessments, respawns, replays) is accounted in
        # its own stage, not as flush stall.
        flush_seconds += (after - before) - (
            sup.recovery_seconds - recovery_before
        )
        flushes += 1
        stage_fill[w] = 0

    try:
        start_wall = time.perf_counter()  # repro: noqa[REPRO002]
        try:
            for start, _stop, key_chunk, time_chunk in iter_keyed_chunks(
                keys, config.chunk_size, times
            ):
                tick = time.perf_counter()  # repro: noqa[REPRO002]
                assignments = partitioner.route_chunk(key_chunk, time_chunk)
                # Reroute recovery: decisions for masked workers forward
                # to their deputies (the identity when nothing is masked).
                assignments = partitioner.remap_masked(assignments)
                series.update(assignments)
                routed_tick = time.perf_counter()  # repro: noqa[REPRO002]
                route_seconds += routed_tick - tick
                flushed_before = flush_seconds
                recovered_before = sup.recovery_seconds
                # Scatter: group the chunk's message ids by worker with the
                # stable counting sort, then append each worker's segment to
                # its staging row, flushing whenever a row fills.  Stability
                # plus append order keeps every worker's sub-stream in
                # arrival order (FIFO end to end) at any flush size.
                _counts, boundaries, grouped = counting_scatter(
                    assignments, num_workers, base=start
                )
                bounds = boundaries.tolist()
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
                scatter_tick = time.perf_counter()  # repro: noqa[REPRO002]
                # flush_worker books flush stall and recovery separately;
                # both are excluded here so no second lands in two stages.
                scatter_seconds += (scatter_tick - routed_tick) - (
                    flush_seconds - flushed_before
                ) - (sup.recovery_seconds - recovered_before)
            for w in range(num_workers):
                flush_worker(w)
        except RunAborted as exc:
            # Clean abort (fail policy / exhausted recovery): stop
            # routing, collect whatever the survivors processed, and
            # label the result.  Undelivered remainders are accounted
            # below -- the abort is loud but never lossy in bookkeeping.
            sup.aborted = exc
        drain_tick = time.perf_counter()  # repro: noqa[REPRO002]
        recovery_before_drain = sup.recovery_seconds
        reports = sup.collect()
        end_wall = time.perf_counter()  # repro: noqa[REPRO002]
        drain_seconds = (end_wall - drain_tick) - (
            sup.recovery_seconds - recovery_before_drain
        )
        wall = end_wall - start_wall
        # Snapshot the checkpoint lane before close() drops the shared-
        # memory views: dead workers' loads are read from it below.
        checkpoints = np.asarray(backend.counts, dtype=np.int64).copy()
    finally:
        backend.close()

    positions, imbalances = series.finish()
    routed = series.loads.copy()
    worker_loads = np.zeros(num_workers, dtype=np.int64)
    fault_dropped = np.zeros(num_workers, dtype=np.int64)
    for report in reports:
        worker_loads[report["worker_id"]] = report["count"]
        fault_dropped[report["worker_id"]] = report.get("fault_dropped", 0)
    for w in sup.dead:
        # A dead worker's survivable count is its last checkpoint; the
        # sup.dead snapshot is taken after collect(), so restarted-and-
        # recovered workers are not in it.
        worker_loads[w] = checkpoints[w]
    lost = np.zeros(num_workers, dtype=np.int64)
    for w in range(num_workers):
        if w in sup.dead:
            lost[w] = sup.delivered[w] - worker_loads[w]
        else:
            lost[w] = fault_dropped[w]
    undelivered = int(routed.sum() - sup.delivered.sum() - sup.dropped.sum())
    latency = LatencyStore.merge_all(
        LatencyStore.from_dict(report["latency"]) for report in reports
    )
    clean = not sup.failures and not plan.specs
    if config.policy != "drop" and clean:
        # The lossless policies promise exactly this; a mismatch means a
        # ring protocol bug, which must never be reported as a result.
        if not np.array_equal(worker_loads + sup.dropped, routed):
            raise AssertionError(
                f"worker counts {worker_loads.tolist()} do not match routed "
                f"loads {routed.tolist()} under policy "
                f"{config.policy!r}"
            )
    total_lost = int(lost.sum()) + undelivered
    if int(routed.sum()) != int(
        worker_loads.sum() + sup.dropped.sum() + total_lost
    ):
        raise AssertionError(
            f"conservation violated: routed {int(routed.sum())} != "
            f"processed {int(worker_loads.sum())} + dropped "
            f"{int(sup.dropped.sum())} + lost {total_lost}"
        )
    if sup.aborted is not None:
        status = "failed"
    elif sup.dead:
        status = "degraded"
    else:
        status = "ok"
    return RuntimeResult(
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
        latency=latency,
        wall_seconds=wall,
        stage_seconds={
            "route": route_seconds,
            "scatter": scatter_seconds,
            "flush_stall": flush_seconds,
            "drain": drain_seconds,
            "recovery": sup.recovery_seconds,
        },
        flushes=flushes,
        worker_reports=reports,
        status=status,
        failures=[event.to_dict() for event in sup.failures],
        failed_workers=tuple(sorted(sup.dead)),
        masked_workers=partitioner.masked_workers,
        lost_per_worker=lost,
        undelivered=undelivered,
        restarts=sup.restarts,
        stall_timeouts=sup.stall_timeouts,
        injected_faults=tuple(s.describe() for s in plan.specs),
    )
