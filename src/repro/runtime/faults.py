"""Seeded fault injection for the sharded runtime.

A fault-tolerant runtime is only as trustworthy as the failures it has
actually been driven through, so faults here are *first-class, seeded
inputs* rather than ad-hoc monkeypatches: a :class:`FaultPlan` is plain
picklable data that travels inside :class:`~repro.runtime.worker.
WorkerSpec` to real worker processes, fires at exact message counts (or
wall-clock offsets), and composes per worker.  The same plan replayed
against the same stream produces the same failure — which is what lets
``python -m repro.runtime --verify --fault kill:w=1@n=5000 --recovery
restart`` assert byte-identical per-worker counts against a fault-free
run.

Grammar (the CLI's ``--fault`` values, repeatable)::

    <kind>:w=<worker>@n=<messages>[:<param>=<value>...]
    <kind>:w=<worker>@t=<seconds>[:<param>=<value>...]

with four kinds:

* ``kill``  -- the worker dies abruptly: in process mode it ``_exit``\\ s
  without reporting, closing, or checkpointing (a crash, not a
  shutdown); in simulated mode it permanently stops consuming.
* ``stall`` -- the worker stops draining *and heartbeating* for
  ``duration`` seconds (default: forever).  A stall longer than the
  supervisor's liveness deadline is indistinguishable from death and
  gets escalated exactly like one.
* ``slow``  -- per-message service cost is multiplied by ``factor``
  from the trigger on (a degraded-but-alive worker: it keeps
  heartbeating, so supervision must *not* kill it).
* ``drop``  -- the worker silently discards the next ``count``
  messages: consumed from the ring but never counted or measured.
  The discards surface as *lost* messages in the engine's conservation
  accounting (``processed + dropped + lost == sent``).

Triggers: ``@n=N`` fires when the worker's processed count reaches
``N`` (exact: the drain loop clips its batches so the boundary is never
overshot); ``@t=T`` fires ``T`` seconds after the worker starts
(inherently wall-clock -- fault injection simulates real-world timing,
so the reads are signed off for REPRO002).

:meth:`FaultPlan.random` is the seeded chaos generator: a
``default_rng(seed)``-driven schedule over the same grammar, used by
the ``--chaos`` verification mode and the hypothesis chaos-matrix
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultState",
    "consume_cause",
    "parse_fault",
    "validate_fault_spec",
]

#: recognised fault kinds.
FAULT_KINDS: Tuple[str, ...] = ("kill", "stall", "slow", "drop")

#: optional per-kind parameters and their defaults.
_PARAM_DEFAULTS: Dict[str, Dict[str, float]] = {
    "kill": {},
    "stall": {"duration": math.inf},
    "slow": {"factor": 4.0},
    "drop": {"count": 1_000},
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault on one worker (plain picklable data)."""

    #: "kill", "stall", "slow" or "drop".
    kind: str
    #: target worker id.
    worker: int
    #: fire when the worker's processed count reaches this (n-trigger).
    at_messages: Optional[int] = None
    #: fire this many seconds after worker start (t-trigger).
    at_seconds: Optional[float] = None
    #: stall: seconds of unresponsiveness (inf = until killed).
    duration: float = math.inf
    #: slow: service-cost multiplier from the trigger on.
    factor: float = 4.0
    #: drop: messages silently discarded after the trigger.
    count: int = 1_000

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.worker < 0:
            raise ValueError(f"fault worker must be >= 0, got {self.worker}")
        if (self.at_messages is None) == (self.at_seconds is None):
            raise ValueError(
                "exactly one trigger is required: @n=<messages> or "
                "@t=<seconds>"
            )
        if self.at_messages is not None and self.at_messages < 0:
            raise ValueError(
                f"@n trigger must be >= 0, got {self.at_messages}"
            )
        if self.at_seconds is not None and self.at_seconds < 0:
            raise ValueError(f"@t trigger must be >= 0, got {self.at_seconds}")
        if self.duration <= 0:
            raise ValueError(f"stall duration must be > 0, got {self.duration}")
        if self.factor <= 0:
            raise ValueError(f"slow factor must be > 0, got {self.factor}")
        if self.count < 1:
            raise ValueError(f"drop count must be >= 1, got {self.count}")

    @property
    def lethal(self) -> bool:
        """Whether firing removes the worker (kill, or stall-forever)."""
        return self.kind == "kill" or (
            self.kind == "stall" and math.isinf(self.duration)
        )

    def describe(self) -> str:
        """The spec back in ``--fault`` grammar form."""
        trigger = (
            f"@n={self.at_messages}"
            if self.at_messages is not None
            else f"@t={self.at_seconds:g}"
        )
        extras = ""
        if self.kind == "stall" and not math.isinf(self.duration):
            extras = f":duration={self.duration:g}"
        elif self.kind == "slow":
            extras = f":factor={self.factor:g}"
        elif self.kind == "drop":
            extras = f":count={self.count}"
        return f"{self.kind}:w={self.worker}{trigger}{extras}"


def _parse_value(param: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"fault parameter {param}={raw!r} is not a number"
        ) from None


def parse_fault(spec: str) -> FaultSpec:
    """Parse one ``--fault`` string (see the module docstring grammar)."""
    text = spec.strip()
    parts = text.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"malformed fault spec {spec!r}: expected "
            "'<kind>:w=<worker>@n=<messages>' or '...@t=<seconds>'"
        )
    kind = parts[0]
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    target = parts[1]
    if "@" not in target:
        raise ValueError(
            f"malformed fault spec {spec!r}: missing '@n=' or '@t=' trigger"
        )
    worker_part, trigger_part = target.split("@", 1)
    if not worker_part.startswith("w="):
        raise ValueError(
            f"malformed fault spec {spec!r}: target must be 'w=<worker>'"
        )
    try:
        worker = int(worker_part[2:])
    except ValueError:
        raise ValueError(
            f"malformed fault spec {spec!r}: worker id "
            f"{worker_part[2:]!r} is not an integer"
        ) from None
    at_messages: Optional[int] = None
    at_seconds: Optional[float] = None
    if trigger_part.startswith("n="):
        try:
            at_messages = int(trigger_part[2:])
        except ValueError:
            raise ValueError(
                f"malformed fault spec {spec!r}: @n trigger "
                f"{trigger_part[2:]!r} is not an integer"
            ) from None
    elif trigger_part.startswith("t="):
        at_seconds = _parse_value("t", trigger_part[2:])
    else:
        raise ValueError(
            f"malformed fault spec {spec!r}: trigger must be '@n=<messages>'"
            " or '@t=<seconds>'"
        )
    defaults = _PARAM_DEFAULTS[kind]
    params: Dict[str, float] = dict(defaults)
    for extra in parts[2:]:
        if "=" not in extra:
            raise ValueError(
                f"malformed fault spec {spec!r}: parameter {extra!r} is "
                "not '<name>=<value>'"
            )
        name, raw = extra.split("=", 1)
        if name not in defaults:
            valid = ", ".join(sorted(defaults)) or "none"
            raise ValueError(
                f"fault kind {kind!r} does not accept parameter {name!r} "
                f"(valid: {valid})"
            )
        params[name] = _parse_value(name, raw)
    return FaultSpec(
        kind=kind,
        worker=worker,
        at_messages=at_messages,
        at_seconds=at_seconds,
        duration=float(params.get("duration", math.inf)),
        factor=float(params.get("factor", 4.0)),
        count=int(params.get("count", 1_000)),
    )


def validate_fault_spec(spec: str) -> Optional[str]:
    """Why ``spec`` fails the fault grammar, or None if it parses.

    The REPRO005 lint rule calls this to validate fault-spec literals in
    code and docs the same way it validates scheme specs.
    """
    try:
        parse_fault(spec)
    except ValueError as exc:
        return str(exc)
    return None


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seeded schedule of faults across the worker set."""

    specs: Tuple[FaultSpec, ...] = ()
    #: seed recorded for provenance (set by :meth:`random`).
    seed: int = 0

    @classmethod
    def parse(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from ``--fault`` grammar strings."""
        return cls(specs=tuple(parse_fault(s) for s in specs), seed=seed)

    @classmethod
    def random(
        cls,
        seed: int,
        num_workers: int,
        num_messages: int,
        kinds: Sequence[str] = FAULT_KINDS,
        max_faults: int = 2,
    ) -> "FaultPlan":
        """A seeded chaos schedule: 1..max_faults faults over the run.

        Message triggers land in the middle 80% of the per-worker share
        of the stream so they reliably fire; stalls get a short finite
        duration so a plan never *requires* supervision to terminate
        (killing a stalled worker stays the supervisor's choice).
        """
        if num_workers < 2:
            raise ValueError("chaos plans need at least 2 workers")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        share = max(num_messages // num_workers, 1)
        n_faults = int(rng.integers(1, max_faults + 1))
        specs: List[FaultSpec] = []
        for _ in range(n_faults):
            kind = str(rng.choice(np.asarray(kinds, dtype=object)))
            worker = int(rng.integers(0, num_workers))
            at = int(rng.integers(max(share // 10, 1), max(share, 2)))
            specs.append(
                FaultSpec(
                    kind=kind,
                    worker=worker,
                    at_messages=at,
                    duration=float(rng.uniform(0.01, 0.05)),
                    factor=float(rng.uniform(2.0, 8.0)),
                    count=int(rng.integers(1, share + 1)),
                )
            )
        return cls(specs=tuple(specs), seed=seed)

    def for_worker(self, worker: int) -> Tuple[FaultSpec, ...]:
        """The subset of the plan aimed at ``worker`` (schedule order)."""
        return tuple(s for s in self.specs if s.worker == worker)

    def workers(self) -> Tuple[int, ...]:
        """Distinct targeted worker ids, ascending."""
        return tuple(sorted({s.worker for s in self.specs}))

    def describe(self) -> str:
        return " ".join(s.describe() for s in self.specs) or "(no faults)"


def _trigger_order(spec: FaultSpec) -> Tuple[float, float]:
    """The order a worker's :class:`FaultState` fires its specs in:
    n-triggers by count, then s-triggers by time."""
    return (
        spec.at_messages if spec.at_messages is not None else math.inf,
        spec.at_seconds if spec.at_seconds is not None else math.inf,
    )


def consume_cause(
    specs: Sequence[FaultSpec], reason: str
) -> Tuple[FaultSpec, ...]:
    """``specs`` minus the fault that just killed its worker.

    Restart recovery calls this before respawning so the cause of death
    is consumed while every *later* fault on the same worker stays
    armed (it fires again during or after the replay, and recovery
    handles it recursively, bounded by the restart limit).  ``reason``
    picks the kind: ``"exit"`` consumes a kill, ``"wedged"`` a stall;
    if no kind-matching spec exists a lethal spec is consumed instead,
    and a worker that died with no matching fault at all (a genuine
    crash) keeps its specs unchanged.  Of the candidates, the one that
    fired is the earliest to trigger -- plan order breaks ties -- since
    a worker fires its specs in trigger order.
    """
    kinds = {"exit": ("kill",), "wedged": ("stall",)}.get(reason, ())
    specs = tuple(specs)
    candidates = [i for i, s in enumerate(specs) if s.kind in kinds]
    if not candidates:
        candidates = [i for i, s in enumerate(specs) if s.lethal]
    if not candidates:
        return specs
    idx = min(candidates, key=lambda i: (_trigger_order(specs[i]), i))
    return specs[:idx] + specs[idx + 1 :]


@dataclass
class FaultState:
    """One worker's live fault machine, advanced by its drain loop.

    The loop calls :meth:`message_budget` before each pop (so n-triggers
    land on exact boundaries), :meth:`poll` once per step to fire due
    specs, and consults the state fields that firing mutates.  All
    timing is relative to ``started_at`` (the worker's own start), so
    the machine itself never reads a clock.
    """

    specs: Tuple[FaultSpec, ...] = ()
    started_at: float = 0.0
    #: set by a fired kill (the loop turns this into death).
    killed: bool = False
    #: product of fired slow factors.
    service_factor: float = 1.0
    #: messages still to silently discard (fired drops).
    drop_remaining: int = 0
    #: absolute deadline of the current stall (None = not stalled).
    stalled_until: Optional[float] = None
    _pending: List[FaultSpec] = field(default_factory=list)
    fired: List[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._pending = sorted(self.specs, key=_trigger_order)

    def message_budget(self, count: int) -> Optional[int]:
        """Messages processable before the next n-trigger must fire.

        None = unbounded (no pending n-trigger).  Zero means a trigger
        is due *now*; the loop must poll before popping anything.
        """
        budgets = [
            s.at_messages - count
            for s in self._pending
            if s.at_messages is not None
        ]
        if not budgets:
            return None
        return max(min(budgets), 0)

    def stall_remaining(self, now: float) -> float:
        """Seconds of stall left at ``now`` (0.0 = not stalled)."""
        if self.stalled_until is None:
            return 0.0
        remaining = self.stalled_until - now
        if remaining <= 0:
            self.stalled_until = None
            return 0.0
        return remaining

    def fast_forward(self, count: int) -> None:
        """Count on from a checkpoint: n-triggers below ``count`` fired.

        A restarted worker resumes at its checkpointed ``count``; every
        spec whose trigger lies below it fired in the dead incarnation,
        and its effects are already in the checkpoint (a drop's discards
        end before the count moves past its trigger), except a slow
        factor, which lasts.  A trigger *at* ``count`` had not fired yet
        -- the checkpoint was published before the poll that fires it
        -- so it stays pending and fires at the same sub-stream message
        as before.
        """
        still: List[FaultSpec] = []
        for spec in self._pending:
            if spec.at_messages is None or spec.at_messages >= count:
                still.append(spec)
                continue
            self.fired.append(spec)
            if spec.kind == "slow":
                self.service_factor *= spec.factor
        self._pending = still

    def fired_at(self, count: int) -> bool:
        """Whether a spec triggered at exactly ``count`` has fired.

        A checkpoint at ``count`` would then resume that spec as
        pending (see :meth:`fast_forward`) and fire it twice.
        """
        return any(spec.at_messages == count for spec in self.fired)

    def poll(self, count: int, now: float) -> None:
        """Fire every spec whose trigger has been reached."""
        if not self._pending:
            return
        elapsed = now - self.started_at
        still: List[FaultSpec] = []
        for spec in self._pending:
            due = (
                spec.at_messages is not None and count >= spec.at_messages
            ) or (spec.at_seconds is not None and elapsed >= spec.at_seconds)
            if not due:
                still.append(spec)
                continue
            self.fired.append(spec)
            if spec.kind == "kill":
                self.killed = True
            elif spec.kind == "stall":
                deadline = (
                    math.inf
                    if math.isinf(spec.duration)
                    else now + spec.duration
                )
                self.stalled_until = deadline
            elif spec.kind == "slow":
                self.service_factor *= spec.factor
            elif spec.kind == "drop":
                self.drop_remaining += spec.count
        self._pending = still
