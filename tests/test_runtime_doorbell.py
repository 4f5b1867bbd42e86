"""Doorbell wake-ups: idle workers block on a semaphore, never lose a post.

In the process engine each ring carries a counting semaphore that the
source posts on every publishing push and at end-of-stream; an idle
worker blocks on it (for at most ``_IDLE_WAIT`` seconds) instead of
polling.  These tests pin what that must not break:

* a post made before the worker waits is not lost (the semaphore
  counts), and a wait with no post still returns at its timeout;
* an idle process worker keeps beating -- once per wait, not once per
  poll -- so the liveness deadline still tells idle from dead;
* ``drain_until_done`` returns on the end-of-stream post, not on a
  timeout;
* a restarted worker waits on its slot's doorbell, and drains its
  replay over it.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.api import make_partitioner
from repro.core.engine import replay_stream
from repro.runtime import (
    FaultPlan,
    RuntimeConfig,
    SpscRing,
    WorkerLoop,
    run_runtime,
    runtime_available,
)
from repro.runtime import engine as engine_module
from repro.runtime import worker as worker_module
from repro.runtime.engine import _ProcessBackend
from repro.streams.datasets import get_dataset

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

needs_processes = pytest.mark.skipif(
    not runtime_available(), reason="process spawning or /dev/shm unavailable"
)


def _doorbell_ring(capacity=64):
    ring = SpscRing.create_local(capacity)
    ring.doorbell = multiprocessing.Semaphore(0)
    return ring


def _ids(n, start=0):
    return np.arange(start, start + n, dtype=np.int64), np.zeros(n)


class TestRingDoorbell:
    def test_post_before_wait_is_not_lost(self):
        ring = _doorbell_ring()
        ring.try_push(*_ids(3))
        ring.try_push(*_ids(2, start=3))
        ring.mark_done()
        # Three posts were made before anyone waited: three waits return
        # at once, however long their timeout.
        started = time.perf_counter()
        for _ in range(3):
            ring.wait(30.0)
        assert time.perf_counter() - started < 5.0

    def test_full_ring_push_does_not_post(self):
        ring = _doorbell_ring(capacity=2)
        assert ring.try_push(*_ids(2)) == 2
        assert ring.try_push(*_ids(1, start=2)) == 0  # full: publishes nothing
        assert ring.doorbell.acquire(timeout=0)
        assert not ring.doorbell.acquire(timeout=0)

    def test_wait_without_post_times_out(self):
        ring = _doorbell_ring()
        started = time.perf_counter()
        ring.wait(0.05)
        assert time.perf_counter() - started >= 0.04

    def test_ring_without_doorbell_polls_briefly(self):
        ring = SpscRing.create_local(4)
        started = time.perf_counter()
        ring.wait(30.0)
        assert time.perf_counter() - started < 1.0


class TestWorkerWaits:
    def test_drain_returns_promptly_after_mark_done(self, monkeypatch):
        # With a 60 s idle wait, only the posts can wake the loop in time.
        monkeypatch.setattr(worker_module, "_IDLE_WAIT", 60.0)
        ring = _doorbell_ring()
        loop = WorkerLoop(0, ring, np.zeros(1, dtype=np.int64))

        def produce():
            time.sleep(0.1)
            ring.try_push(*_ids(10))
            time.sleep(0.1)
            ring.mark_done()

        producer = threading.Thread(target=produce)
        started = time.perf_counter()
        producer.start()
        loop.drain_until_done(deadline=120.0)
        elapsed = time.perf_counter() - started
        producer.join(timeout=10.0)
        assert not producer.is_alive()
        assert loop.count == 10
        assert loop.latency.count == 10
        assert elapsed < 10.0

    def test_stale_posts_only_cause_extra_empty_steps(self):
        ring = _doorbell_ring()
        loop = WorkerLoop(0, ring, np.zeros(1, dtype=np.int64))
        for n in (4, 4, 4):
            ring.try_push(*_ids(n))
        while loop.step():
            pass  # drains all 12; the three posts stay banked
        ring.mark_done()
        loop.drain_until_done(deadline=5.0)
        assert loop.count == 12


@needs_processes
class TestProcessWorkers:
    def test_idle_worker_keeps_beating_without_polling(self):
        backend = _ProcessBackend(1, RuntimeConfig(mode="process"), {0: ()})
        try:
            deadline = time.perf_counter() + 30.0
            while int(backend.beats[0]) == 0:  # wait for the child to start
                assert time.perf_counter() < deadline, "worker never beat"
                time.sleep(0.01)
            first = int(backend.beats[0])
            time.sleep(0.3)
            beats = int(backend.beats[0]) - first
            # One beat per doorbell wait: it keeps beating (well inside
            # any liveness deadline) but far fewer times than a 20 us
            # poll would.
            assert beats >= 3
            assert beats <= 3 * 0.3 / worker_module._IDLE_WAIT + 10
            backend.rings[0].mark_done()
            assert backend.finish(0)["count"] == 0
        finally:
            backend.close()

    def test_restarted_worker_drains_replay_over_its_doorbell(self, monkeypatch):
        # A long idle wait (inherited by forked workers) leaves only the
        # doorbell to wake the respawned worker for its replay.
        monkeypatch.setattr(worker_module, "_IDLE_WAIT", 20.0)
        started_with = []
        original = _ProcessBackend._start

        def spy(self, worker, faults):
            started_with.append((worker, self.doorbells[worker]))
            original(self, worker, faults)

        monkeypatch.setattr(_ProcessBackend, "_start", spy)
        stream = get_dataset("WP").stream(40_000, seed=11)
        config = RuntimeConfig(
            mode="process",
            recovery="restart",
            faults=FaultPlan.parse(["kill:w=1@n=3000"]),
            liveness_deadline=60.0,
        )
        began = time.perf_counter()
        result = run_runtime(stream, make_partitioner("pkg", 4, seed=1), config)
        elapsed = time.perf_counter() - began
        assert result.status == "ok" and result.restarts == 1
        np.testing.assert_array_equal(
            result.worker_loads,
            replay_stream(stream, make_partitioner("pkg", 4, seed=1)).final_loads,
        )
        starts = [bell for w, bell in started_with if w == 1]
        assert len(starts) == 2 and starts[0] is starts[1]
        assert elapsed < 15.0


def test_only_the_process_backend_rings_doorbells():
    assert engine_module._SimulatedBackend(
        1, RuntimeConfig(mode="simulated"), {0: ()}
    ).rings[0].doorbell is None
