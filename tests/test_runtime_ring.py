"""Property-based tests (hypothesis) for the SPSC ring + backpressure.

The ring is the only channel between the source and the workers, so its
contracts are load-bearing for the runtime's count-identity guarantee
and tested as *properties* over arbitrary interleavings:

* **wrap-around correctness** -- pushes and pops that straddle the
  capacity boundary (monotonic cursors, modular slot positions) never
  corrupt or reorder slot data;
* **FIFO + conservation** -- any interleaving of pushes and pops yields
  exactly the pushed sequence, in order, with nothing lost or invented;
* **lossless block policy** -- with a draining consumer,
  ``push_with_backpressure(policy="block")`` delivers every message
  (``dropped == 0``) no matter how full the ring gets, while ``drop``
  accounts every shed message exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    PushOutcome,
    RingStallError,
    SpscRing,
    push_with_backpressure,
    ring_nbytes,
)

capacities = st.integers(min_value=1, max_value=17)

#: an op sequence: positive = try_push that many, negative = try_pop.
ops_strategy = st.lists(
    st.integers(min_value=-13, max_value=13).filter(lambda n: n != 0),
    min_size=1,
    max_size=60,
)


def _batch(start: int, n: int):
    """A recognisable (indices, stamps) batch: stamp = index / 8."""
    indices = np.arange(start, start + n, dtype=np.int64)
    return indices, indices.astype(np.float64) / 8.0


class TestRingProperties:
    @given(capacities, ops_strategy)
    @settings(max_examples=200)
    def test_fifo_and_conservation(self, capacity, ops):
        ring = SpscRing.create_local(capacity)
        pushed = 0
        popped_ids = []
        popped_stamps = []
        for op in ops:
            if op > 0:
                indices, stamps = _batch(pushed, op)
                accepted = ring.try_push(indices, stamps)
                # partial pushes accept a *prefix*, never a subsequence.
                assert 0 <= accepted <= min(op, capacity)
                pushed += accepted
            else:
                indices, stamps = ring.try_pop(-op)
                popped_ids.extend(indices.tolist())
                popped_stamps.extend(stamps.tolist())
            assert 0 <= ring.size <= capacity
            assert ring.tail - ring.head == ring.size
        indices, stamps = ring.try_pop(ring.size)
        popped_ids.extend(indices.tolist())
        popped_stamps.extend(stamps.tolist())
        # Conservation + FIFO: exactly the pushed prefix, in order,
        # stamps still paired with their indices.
        assert popped_ids == list(range(pushed))
        assert popped_stamps == [i / 8.0 for i in range(pushed)]
        assert ring.size == 0

    @given(capacities, st.integers(min_value=1, max_value=200))
    @settings(max_examples=100)
    def test_wrap_around_cycles(self, capacity, cycles):
        """Fill/drain the full capacity repeatedly across the seam."""
        ring = SpscRing.create_local(capacity)
        for cycle in range(min(cycles, 50)):
            start = cycle * capacity
            indices, stamps = _batch(start, capacity)
            assert ring.try_push(indices, stamps) == capacity
            assert ring.free == 0
            assert ring.try_push(*_batch(-1, 1)) == 0  # full: rejects
            out_i, out_s = ring.try_pop(capacity)
            np.testing.assert_array_equal(out_i, indices)
            np.testing.assert_array_equal(out_s, stamps)
        assert ring.head == ring.tail

    @given(capacities, ops_strategy)
    @settings(max_examples=100)
    def test_block_policy_never_loses(self, capacity, ops):
        """Block + a draining consumer delivers every single message."""
        ring = SpscRing.create_local(capacity)
        received = []

        def drain():
            indices, _ = ring.try_pop(3)
            received.extend(indices.tolist())
            return int(indices.size)

        sent = 0
        for op in ops:
            n = abs(op)
            outcome = push_with_backpressure(
                ring, *_batch(sent, n), "block", drain=drain
            )
            assert outcome == PushOutcome(pushed=n, dropped=0, stalls=outcome.stalls)
            sent += n
        while drain():
            pass
        assert received == list(range(sent))

    @given(capacities, ops_strategy)
    @settings(max_examples=100)
    def test_drop_policy_exact_accounting(self, capacity, ops):
        """pushed + dropped == offered for every drop-policy push."""
        ring = SpscRing.create_local(capacity)
        offered = 0
        delivered = []
        total_dropped = 0
        for i, op in enumerate(ops):
            n = abs(op)
            outcome = push_with_backpressure(ring, *_batch(offered, n), "drop")
            assert outcome.pushed + outcome.dropped == n
            offered += n
            total_dropped += outcome.dropped
            if i % 3 == 0:  # drain sometimes, so both branches exercise
                delivered.extend(ring.try_pop(capacity)[0].tolist())
        delivered.extend(ring.try_pop(capacity)[0].tolist())
        assert len(delivered) + total_dropped == offered
        # What survives is still strictly FIFO (a subsequence with only
        # *suffixes* of batches missing, hence strictly increasing).
        assert delivered == sorted(delivered)


class TestRingUnit:
    def test_layout_and_validation(self):
        assert ring_nbytes(4) == 24 * 8 + 4 * 16
        with pytest.raises(ValueError):
            ring_nbytes(0)
        with pytest.raises(ValueError):
            SpscRing.create_local(0)

    def test_from_buffer_roundtrip_and_size_check(self):
        buf = memoryview(bytearray(ring_nbytes(8)))
        ring = SpscRing.from_buffer(buf, 8, initialize=True)
        assert ring.try_push(*_batch(0, 5)) == 5
        again = SpscRing.from_buffer(buf, 8)
        assert again.size == 5
        out, _ = again.try_pop(5)
        assert out.tolist() == [0, 1, 2, 3, 4]
        assert ring.size == 0  # same backing memory
        with pytest.raises(ValueError):
            SpscRing.from_buffer(memoryview(bytearray(8)), 8)

    def test_done_and_exhausted(self):
        ring = SpscRing.create_local(4)
        ring.try_push(*_batch(0, 2))
        assert not ring.done and not ring.exhausted
        ring.mark_done()
        assert ring.done and not ring.exhausted
        ring.try_pop(4)
        assert ring.exhausted

    def test_empty_pop_returns_empty_arrays(self):
        ring = SpscRing.create_local(2)
        indices, stamps = ring.try_pop(5)
        assert indices.size == 0 and stamps.size == 0
        assert indices.dtype == np.int64 and stamps.dtype == np.float64


class TestBackpressureUnit:
    def test_rejects_unknown_policy(self):
        ring = SpscRing.create_local(2)
        with pytest.raises(ValueError, match="policy"):
            push_with_backpressure(ring, *_batch(0, 1), "yolo")

    def test_stalled_drain_raises(self):
        ring = SpscRing.create_local(2)
        ring.try_push(*_batch(0, 2))
        with pytest.raises(RingStallError):
            push_with_backpressure(
                ring, *_batch(2, 1), "block", drain=lambda: 0
            )

    def test_spin_policy_with_drain_is_lossless(self):
        ring = SpscRing.create_local(3)
        got = []

        def drain():
            indices, _ = ring.try_pop(2)
            got.extend(indices.tolist())
            return int(indices.size)

        outcome = push_with_backpressure(ring, *_batch(0, 10), "spin", drain=drain)
        assert outcome.dropped == 0 and outcome.pushed == 10
        while drain():
            pass
        assert got == list(range(10))
