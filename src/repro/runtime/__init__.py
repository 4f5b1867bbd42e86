"""Sharded multi-process runtime: source-routed rings, private merges.

Public surface of :mod:`repro.runtime`:

* :func:`run_runtime` / :class:`RuntimeConfig` / :class:`RuntimeResult`
  -- run a stream (a materialised array or a bounded-memory
  :class:`~repro.core.chunks.ChunkSource`) through W sharded workers
  (real processes over shared-memory rings, or the in-process
  simulated-rings fallback), with coalescing staging buffers and a
  per-stage wall breakdown in ``RuntimeResult.stage_seconds``;
* supervision & recovery -- heartbeat liveness, deadline-aware pushes
  (:class:`RingStallError`), seeded fault injection
  (:class:`FaultPlan` / :func:`parse_fault`), and the ``fail`` /
  ``reroute`` / ``restart`` recovery policies with exact
  ``sent == processed + dropped + lost`` conservation accounting;
* :class:`SpscRing` -- the bounded single-producer/single-consumer ring;
* :func:`push_with_backpressure` -- block/spin/drop policies with
  exact drop accounting;
* :func:`bench_throughput_e2e` -- the ``<scheme>@e2e`` bench harness;
* :func:`runtime_available` -- whether real worker processes can spawn.

``python -m repro.runtime`` is the CLI; see ARCHITECTURE.md's
"Sharded runtime" and "Supervision & recovery" sections for the design
contract.
"""

from repro.runtime.backpressure import (
    POLICIES,
    PushOutcome,
    RingStallError,
    push_with_backpressure,
)
from repro.runtime.bench import DEFAULT_E2E_SCHEMES, bench_throughput_e2e, e2e_entry
from repro.runtime.engine import (
    MODES,
    RuntimeConfig,
    RuntimeResult,
    run_runtime,
    runtime_available,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    parse_fault,
    validate_fault_spec,
)
from repro.runtime.ring import HEADER_SLOTS, SpscRing, ring_nbytes
from repro.runtime.supervision import (
    RECOVERY_POLICIES,
    FailureEvent,
    LivenessDetector,
    WorkerDeadError,
    reap_process,
)
from repro.runtime.worker import WorkerLoop, WorkerSpec, worker_main

__all__ = [
    "DEFAULT_E2E_SCHEMES",
    "FAULT_KINDS",
    "FailureEvent",
    "FaultPlan",
    "FaultSpec",
    "HEADER_SLOTS",
    "LivenessDetector",
    "MODES",
    "POLICIES",
    "PushOutcome",
    "RECOVERY_POLICIES",
    "RingStallError",
    "RuntimeConfig",
    "RuntimeResult",
    "SpscRing",
    "WorkerDeadError",
    "WorkerLoop",
    "WorkerSpec",
    "bench_throughput_e2e",
    "e2e_entry",
    "parse_fault",
    "push_with_backpressure",
    "reap_process",
    "ring_nbytes",
    "run_runtime",
    "runtime_available",
    "validate_fault_spec",
    "worker_main",
]
