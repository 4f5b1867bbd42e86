"""What the source does when a worker's ring is full.

A bounded ring plus a slow consumer forces a choice, and the right one
depends on the deployment: a batch replay wants **block** (lossless,
throughput throttled to the slowest worker), and a latency-critical
path with an upstream retry wants **drop** (lossy, load shed at the
source, every drop accounted).

:func:`push_with_backpressure` drives one per-worker push to
completion under the chosen policy and returns exact drop accounting.
The ``drain`` hook is how the simulated-rings mode stays lossless in a
single process: with producer and consumer sharing a thread, "wait for
the consumer" must mean "run the consumer", so the engine passes each
worker's drain step as the callback and ``block`` calls it instead of
sleeping.

**No wait here is unbounded.**  A crashed or wedged consumer must never
hang the source.  A consumer that has already *exited* is caught by the
optional ``alive`` probe, consulted on every full-ring retry before the
wait: the first retry against a dead consumer raises.  A consumer that
is alive but not draining (wedged) is clipped twice: by ``deadline`` --
seconds of *no ring progress* (progress resets it) -- and by a
retry-count backstop when no deadline is given.  Every path raises
:class:`RingStallError` carrying exact partial-progress accounting
(``pushed``/``stalls``), which is what lets the supervision layer
(:mod:`repro.runtime.supervision`) resume or reroute the remainder of
the push after recovery instead of guessing what made it into the ring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "POLICIES",
    "PushOutcome",
    "RingStallError",
    "push_with_backpressure",
]

from repro.runtime.ring import SpscRing

#: recognised backpressure policies.
POLICIES: Tuple[str, ...] = ("block", "drop")

#: seconds the block policy sleeps between full-ring retries.
_BLOCK_SLEEP = 50e-6
#: full-ring retries before declaring the consumer dead when no
#: deadline is configured.  With the block policy's sleep this bounds
#: the wait to ~60 s of wall time without ever reading a clock.
_MAX_RETRIES = 1_200_000


class RingStallError(RuntimeError):
    """A full ring made no progress through the deadline/retry budget.

    The likely cause is a dead or wedged worker; blocking forever would
    hang the source, so the push gives up loudly instead.  ``pushed``
    and ``stalls`` carry the partial progress of the failed call: the
    leading ``pushed`` messages *are* in the ring (the consumer may or
    may not have processed them), everything after is still the
    caller's to deliver -- exactly what recovery needs to resume.
    """

    def __init__(
        self, message: str, *, pushed: int = 0, stalls: int = 0
    ) -> None:
        super().__init__(message)
        self.pushed = int(pushed)
        self.stalls = int(stalls)


@dataclass
class PushOutcome:
    """Exact accounting of one backpressured push."""

    pushed: int
    dropped: int
    #: times the producer found the ring full and had to wait/shed.
    stalls: int


def push_with_backpressure(
    ring: SpscRing,
    indices: np.ndarray,
    stamps: np.ndarray,
    policy: str,
    drain: Optional[Callable[[], int]] = None,
    deadline: Optional[float] = None,
    alive: Optional[Callable[[], bool]] = None,
) -> PushOutcome:
    """Push every message (or account for every drop) under ``policy``.

    ``block`` guarantees ``dropped == 0``: the call returns
    only once the ring accepted all messages, or raises
    :class:`RingStallError` as soon as ``alive`` reports the consumer
    gone, or once the ring has made no progress for ``deadline``
    seconds (or through the retry backstop when ``deadline`` is None).
    ``drop`` pushes what fits immediately and sheds the rest, never
    consulting ``alive``.  ``drain``, when given, replaces waiting
    entirely (simulated-rings mode).
    """
    if policy not in POLICIES:
        raise ValueError(
            f"policy must be one of {POLICIES}, got {policy!r}"
        )
    if deadline is not None and deadline < 0:
        raise ValueError(f"deadline must be >= 0, got {deadline}")
    total = int(indices.size)
    offset = 0
    stalls = 0
    retries = 0
    stall_started: Optional[float] = None
    while offset < total:
        pushed = ring.try_push(indices[offset:], stamps[offset:])
        if pushed:
            offset += pushed
            retries = 0
            stall_started = None
            continue
        stalls += 1
        if policy == "drop":
            return PushOutcome(pushed=offset, dropped=total - offset, stalls=stalls)
        if drain is not None:
            if drain() > 0:
                continue
            # A drain that cannot progress on a full ring means the
            # in-process consumer is dead or stalled; retrying would
            # loop forever in one thread, so fail over to supervision.
            raise RingStallError(
                "simulated-ring drain made no progress on a full ring",
                pushed=offset,
                stalls=stalls,
            )
        if alive is not None and not alive():
            # The consumer has exited: no amount of waiting will free a
            # slot, so escalate now instead of sleeping out the deadline.
            raise RingStallError(
                "ring is full and its consumer has exited",
                pushed=offset,
                stalls=stalls,
            )
        if deadline is not None:
            # The stall clock is runtime supervision telemetry, never a
            # routing input (REPRO002 noqa): it bounds how long a push
            # may wait on an unresponsive consumer, and is only read
            # while the ring is already stalled.
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if stall_started is None:
                stall_started = now
            elif now - stall_started >= deadline:
                raise RingStallError(
                    f"ring made no progress for {deadline:g}s "
                    "(worker dead or wedged?)",
                    pushed=offset,
                    stalls=stalls,
                )
        retries += 1
        if deadline is None and retries > _MAX_RETRIES:
            raise RingStallError(
                f"ring stayed full through {retries} retries "
                "(worker process dead?)",
                pushed=offset,
                stalls=stalls,
            )
        time.sleep(_BLOCK_SLEEP)
    return PushOutcome(pushed=total, dropped=0, stalls=stalls)
