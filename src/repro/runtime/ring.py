"""Bounded SPSC ring buffers over shared (or private) memory.

One ring connects the source process to one worker process: the source
is the single producer, the worker the single consumer.  The layout is
a fixed-capacity circular buffer of message slots plus a small header
of monotonically increasing int64 cursors:

* ``tail`` -- messages *published*; written only by the producer;
* ``head`` -- messages *consumed*; written only by the consumer;
* ``done`` -- end-of-stream flag, set once by the producer after the
  last push (the clean-shutdown signal the worker drains against).

Because each cursor has exactly one writer, no compare-and-swap is
needed anywhere (the same no-CAS discipline the per-worker accumulators
use, see :mod:`repro.runtime.worker`): the producer writes slot data
first and publishes by bumping ``tail`` with a single aligned int64
store; the consumer copies slot data out and releases by bumping
``head``.  Cursors never wrap -- slot positions are ``cursor %
capacity`` -- so ``tail - head`` is always the exact occupancy
(seqlock-style monotonic counters rather than wrapping indices, which
would need an extra full/empty disambiguation bit).

Each slot carries the message's stream *index* (int64) and its
enqueue timestamp (float64).  Routing decisions never travel through
the ring -- the source decides them (see :mod:`repro.runtime.engine`)
-- so ring timing can never change who processed what, only when.

The same class runs over two backings:

* :meth:`SpscRing.create_local` -- private numpy arrays, used by the
  simulated-rings fallback mode (single process, no /dev/shm needed);
* :meth:`SpscRing.from_buffer` -- views over a
  ``multiprocessing.shared_memory`` block, used by the real
  multi-process engine.  :func:`ring_nbytes` sizes the block.

**Doorbell.**  A ring may carry a *doorbell*: a counting semaphore
(``multiprocessing.Semaphore(0)`` in the process engine) that the
producer posts on every :meth:`~SpscRing.try_push` that publishes and on
:meth:`~SpscRing.mark_done`.  An idle consumer blocks in
:meth:`~SpscRing.wait` instead of polling.  The semaphore counts posts,
so a post made before the consumer waits is never lost -- at worst a
stale post wakes it to find the ring empty, and it waits again.  A ring
without a doorbell (the simulated backend's) waits by a short sleep.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["SpscRing", "ring_nbytes", "HEADER_SLOTS"]

#: int64 header slots; cursors sit one cache line (8 slots) apart so
#: the producer's tail stores never false-share the consumer's head.
HEADER_SLOTS = 24
_HEAD = 0
_TAIL = 8
_DONE = 16

#: bytes per slot: int64 message index + float64 enqueue timestamp.
_SLOT_BYTES = 16
#: longest sleep of a doorbell-less :meth:`SpscRing.wait`.
_POLL_SLEEP = 20e-6


def ring_nbytes(capacity: int) -> int:
    """Bytes a shared-memory block needs to host one ring."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    return HEADER_SLOTS * 8 + int(capacity) * _SLOT_BYTES


class SpscRing:
    """A bounded single-producer/single-consumer message ring.

    The producer side uses :meth:`try_push` and :meth:`mark_done`; the
    consumer side :meth:`try_pop`, :meth:`exhausted` and :meth:`wait`.
    Only an idle consumer's :meth:`wait` blocks here -- the producer's
    full-ring strategies live in :mod:`repro.runtime.backpressure` so
    they can be tested and configured independently of the buffer
    mechanics.
    """

    __slots__ = ("capacity", "doorbell", "_header", "_indices", "_stamps")

    def __init__(
        self,
        capacity: int,
        header: np.ndarray,
        indices: np.ndarray,
        stamps: np.ndarray,
        doorbell: Optional[Any] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if header.shape != (HEADER_SLOTS,) or header.dtype != np.int64:
            raise ValueError("header must be int64 with HEADER_SLOTS entries")
        if indices.shape != (capacity,) or stamps.shape != (capacity,):
            raise ValueError("data lanes must have one entry per slot")
        self.capacity = int(capacity)
        #: counting semaphore the producer posts (None = consumer polls).
        self.doorbell = doorbell
        self._header = header
        self._indices = indices
        self._stamps = stamps

    # -- construction -------------------------------------------------------

    @classmethod
    def create_local(cls, capacity: int) -> "SpscRing":
        """A ring over private memory (the simulated-rings backing)."""
        return cls(
            capacity,
            np.zeros(HEADER_SLOTS, dtype=np.int64),
            np.zeros(capacity, dtype=np.int64),
            np.zeros(capacity, dtype=np.float64),
        )

    @classmethod
    def from_buffer(
        cls,
        buf: memoryview,
        capacity: int,
        initialize: bool = False,
        doorbell: Optional[Any] = None,
    ) -> "SpscRing":
        """A ring viewing an existing (shared-memory) buffer.

        The creator passes ``initialize=True`` to zero the header before
        any worker attaches; attachers must leave it untouched.  Both
        sides pass the same ``doorbell`` (see the module docstring).
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        needed = ring_nbytes(capacity)
        if len(buf) < needed:
            raise ValueError(
                f"buffer holds {len(buf)} bytes; a capacity-{capacity} "
                f"ring needs {needed}"
            )
        header = np.ndarray((HEADER_SLOTS,), dtype=np.int64, buffer=buf)
        offset = HEADER_SLOTS * 8
        indices = np.ndarray(
            (capacity,), dtype=np.int64, buffer=buf, offset=offset
        )
        stamps = np.ndarray(
            (capacity,),
            dtype=np.float64,
            buffer=buf,
            offset=offset + capacity * 8,
        )
        if initialize:
            header[:] = 0
        return cls(capacity, header, indices, stamps, doorbell)

    # -- occupancy ----------------------------------------------------------

    @property
    def head(self) -> int:
        """Messages consumed so far (monotonic)."""
        return int(self._header[_HEAD])

    @property
    def tail(self) -> int:
        """Messages published so far (monotonic)."""
        return int(self._header[_TAIL])

    @property
    def size(self) -> int:
        """Messages currently buffered."""
        return self.tail - self.head

    @property
    def free(self) -> int:
        """Slots currently available to the producer."""
        return self.capacity - self.size

    # -- producer side ------------------------------------------------------

    def try_push(self, indices: np.ndarray, stamps: np.ndarray) -> int:
        """Publish as many leading messages as fit; returns the count.

        Writes slot data (wrapping at the capacity boundary) before the
        single tail store that makes the messages visible, so a
        concurrent consumer can never observe a published-but-unwritten
        slot.
        """
        n = min(int(indices.size), self.free)
        if n <= 0:
            return 0
        tail = self.tail
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        self._indices[pos : pos + first] = indices[:first]
        self._stamps[pos : pos + first] = stamps[:first]
        if n > first:
            self._indices[: n - first] = indices[first:n]
            self._stamps[: n - first] = stamps[first:n]
        self._header[_TAIL] = tail + n  # publish: single aligned store
        if self.doorbell is not None:
            self.doorbell.release()
        return n

    def mark_done(self) -> None:
        """Producer's end-of-stream signal (set after the last push)."""
        self._header[_DONE] = 1
        if self.doorbell is not None:
            self.doorbell.release()

    def reset(self) -> None:
        """Rewind the ring to empty-and-open (restart recovery only).

        Clears both cursors and the done flag.  This breaks the
        single-writer discipline on ``head``, so it is only legal while
        the consumer side is provably gone -- the supervisor calls it
        after reaping a dead worker and before attaching its
        replacement to the same backing memory.
        """
        self._header[_HEAD] = 0
        self._header[_TAIL] = 0
        self._header[_DONE] = 0

    # -- consumer side ------------------------------------------------------

    def try_pop(self, max_items: int) -> Tuple[np.ndarray, np.ndarray]:
        """Copy out up to ``max_items`` messages; returns (indices, stamps).

        Copies slot data before the single head store that releases the
        slots back to the producer.  Returns empty arrays when the ring
        is empty.
        """
        head = self.head
        n = min(int(max_items), self.tail - head)
        if n <= 0:
            empty_i: np.ndarray = np.empty(0, dtype=np.int64)
            empty_s: np.ndarray = np.empty(0, dtype=np.float64)
            return empty_i, empty_s
        pos = head % self.capacity
        first = min(n, self.capacity - pos)
        indices = np.empty(n, dtype=np.int64)
        stamps = np.empty(n, dtype=np.float64)
        indices[:first] = self._indices[pos : pos + first]
        stamps[:first] = self._stamps[pos : pos + first]
        if n > first:
            indices[first:] = self._indices[: n - first]
            stamps[first:] = self._stamps[: n - first]
        self._header[_HEAD] = head + n  # release: single aligned store
        return indices, stamps

    def wait(self, timeout: float) -> None:
        """Block the consumer until the next doorbell post or ``timeout``.

        Returns early on a post, which may predate the call (the posts
        are counted) or be stale; callers re-check the ring either way.
        Without a doorbell it sleeps briefly instead.
        """
        if self.doorbell is not None:
            self.doorbell.acquire(timeout=timeout)
        else:
            time.sleep(min(timeout, _POLL_SLEEP))

    @property
    def done(self) -> bool:
        """Whether the producer has signalled end-of-stream."""
        return bool(self._header[_DONE])

    @property
    def exhausted(self) -> bool:
        """End-of-stream signalled *and* every message drained."""
        # Order matters: read done before size, so a push racing this
        # check can only make `exhausted` spuriously False (another
        # drain iteration), never spuriously True (lost messages).
        done = self.done
        return done and self.size == 0

    def __repr__(self) -> str:
        return (
            f"SpscRing(capacity={self.capacity}, size={self.size}, "
            f"done={self.done})"
        )
