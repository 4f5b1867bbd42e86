"""Supervision primitives: liveness, condemnation, failure records.

The sharded runtime's source is also its supervisor: it is the only
process with a view of every worker's heartbeat lane, every ring, and
the routing state needed to recover.  This module holds the pieces of
that role that are independent of the engine's run loop:

* :class:`LivenessDetector` -- turns the single-writer beat lanes
  (:mod:`repro.runtime.worker`) into per-worker *silence* durations.
  A worker bumps its beat on every drain step, including idle ones, so
  silence -- not idleness -- is the death signal: a slow worker keeps
  beating and must not be condemned, a crashed or stalled one goes
  quiet.  The process backend's end-of-stream drain condemns a worker
  once its detector expires.
* :class:`WorkerDeadError` -- the typed verdict a backend raises when
  a worker it was waiting on is gone (``reason`` says how it was
  established: ``"exit"`` for an observed death, ``"wedged"`` for a
  condemned silence, ``"finish-timeout"`` for the absolute drain cap).
* :class:`FailureEvent` -- one detected failure plus the recovery
  action taken, with the exact accounting (messages routed, delivered,
  checkpointed) needed to audit conservation afterwards, and for a
  restart what recovery cost (the count it resumed at, the messages it
  re-delivered).
* :data:`RECOVERY_POLICIES` -- ``fail`` (clean abort, partial but
  well-labeled results), ``reroute`` (mask the dead worker out of the
  partitioner and continue degraded), ``restart`` (respawn from the
  worker's checkpoint and replay the span it lost deterministically).
* :func:`reap_process` -- the join -> terminate -> kill escalation
  every child teardown path uses, so no wedged worker can leak a
  process or its shared-memory mappings.

**Every wait here is bounded.**  Liveness deadlines, reap timeouts and
the engine's push deadlines together guarantee that no recovery path
can hang -- the property the REPRO006 lint rule enforces statically
over this package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "RECOVERY_POLICIES",
    "FailureEvent",
    "LivenessDetector",
    "WorkerDeadError",
    "reap_process",
]

#: recognised recovery policies (RuntimeConfig.recovery).
RECOVERY_POLICIES: Tuple[str, ...] = ("fail", "reroute", "restart")

#: seconds each escalation step of :func:`reap_process` waits.
DEFAULT_REAP_TIMEOUT = 5.0


class WorkerDeadError(RuntimeError):
    """A worker the runtime was waiting on is dead or condemned.

    ``reason`` is ``"exit"`` (the process/loop observably died),
    ``"wedged"`` (heartbeats went silent past the liveness deadline and
    the worker was condemned), or ``"finish-timeout"`` (the absolute
    end-of-stream drain cap expired).  ``exitcode`` carries the child's
    exit status when one was observed.
    """

    def __init__(
        self,
        worker: int,
        reason: str,
        message: Optional[str] = None,
        exitcode: Optional[int] = None,
    ) -> None:
        super().__init__(
            message or f"worker {worker} is dead ({reason})"
        )
        self.worker = int(worker)
        self.reason = str(reason)
        self.exitcode = exitcode


class RunAborted(RuntimeError):
    """Internal control flow of a run that cannot go on.

    Raised by the engine's recovery switch (the ``fail`` policy, an
    impossible reroute, an exhausted restart limit) to unwind the
    routing loop; ``run_runtime`` catches it and returns a partial,
    ``status="failed"`` result instead of propagating -- a *clean*
    abort, never a hang and never a silent loss.
    """

    def __init__(self, worker: int, reason: str) -> None:
        super().__init__(f"run aborted: worker {worker} {reason}")
        self.worker = int(worker)
        self.reason = str(reason)


@dataclass(frozen=True)
class FailureEvent:
    """One detected worker failure and the recovery action applied."""

    #: the worker that failed.
    worker: int
    #: how death was established ("exit", "wedged", "finish-timeout").
    reason: str
    #: recovery action applied ("fail", "reroute", "restart").
    action: str
    #: messages the source had routed when the failure was detected.
    at_routed: int
    #: distinct stream messages delivered into the worker's ring so far.
    delivered: int
    #: the worker's last published checkpoint (its survivable count).
    checkpointed: int
    #: restart only: the checkpointed count the respawned worker resumed at.
    resumed_from: Optional[int] = None
    #: messages recovery re-delivered to the respawned worker.
    replayed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for reports/JSON artifacts."""
        return {
            "worker": self.worker,
            "reason": self.reason,
            "action": self.action,
            "at_routed": self.at_routed,
            "delivered": self.delivered,
            "checkpointed": self.checkpointed,
            "resumed_from": self.resumed_from,
            "replayed": self.replayed,
        }


class LivenessDetector:
    """Per-worker heartbeat silence over the shared beat lanes.

    The detector never writes the lanes (workers are their single
    writers); it snapshots the last observed beat per worker and the
    wall-clock moment it last *changed*.  ``silent_for`` is then the
    seconds since that moment -- 0.0 whenever a fresh beat is observed.
    All clock reads are supervision telemetry, never routing inputs
    (REPRO002 noqa below).
    """

    __slots__ = ("beats", "deadline", "_last", "_changed_at")

    def __init__(self, beats: np.ndarray, deadline: float) -> None:
        if deadline <= 0:
            raise ValueError(f"liveness deadline must be > 0, got {deadline}")
        self.beats = beats
        self.deadline = float(deadline)
        self._last = np.array(beats, dtype=np.int64, copy=True)
        self._changed_at = np.full(int(beats.size), -1.0)

    def silent_for(self, worker: int, now: Optional[float] = None) -> float:
        """Seconds since ``worker``'s beat lane last advanced."""
        if now is None:
            now = time.perf_counter()  # repro: noqa[REPRO002]
        beat = int(self.beats[worker])
        if beat != self._last[worker] or self._changed_at[worker] < 0:
            self._last[worker] = beat
            self._changed_at[worker] = now
            return 0.0
        return float(now - self._changed_at[worker])

    def expired(self, worker: int, now: Optional[float] = None) -> bool:
        """Whether ``worker`` has been silent past the deadline."""
        return self.silent_for(worker, now) >= self.deadline


def reap_process(proc: Any, timeout: float = DEFAULT_REAP_TIMEOUT) -> Optional[int]:
    """Join ``proc`` with bounded escalation: join -> terminate -> kill.

    Returns the exit code (None only if the child survived even SIGKILL
    through three timeout windows, which on a healthy kernel cannot
    happen).  Safe to call on already-dead or already-closed processes.
    """
    try:
        if proc.is_alive():
            proc.join(timeout=timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=timeout)
        if proc.is_alive():  # pragma: no cover - SIGTERM always suffices here
            proc.kill()
            proc.join(timeout=timeout)
        return proc.exitcode
    except ValueError:  # pragma: no cover - process object already closed
        return None
