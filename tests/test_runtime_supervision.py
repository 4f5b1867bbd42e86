"""Supervision unit contracts: faults, liveness, deadlines, masking.

The chaos-matrix end-to-end runs live in ``test_runtime_chaos.py``;
this file pins the building blocks one at a time: the ``--fault``
grammar, the restart cause-consumption rule, heartbeat lanes and the
liveness detector, checkpoint records (torn writes, resuming a worker
from one), the route log restart replays from, deadline-bounded
pushes against a consumer that died mid-push, process reaping (with
the /dev/shm leak check), worker masking with deterministic deputies,
and the recovery knobs on ``RuntimeConfig``.
"""

import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.api import make_partitioner
from repro.core.chunks import counting_scatter
from repro.core.engine import route_chunked
from repro.partitioning.base import MASKED_LOAD
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    LivenessDetector,
    RingStallError,
    RuntimeConfig,
    SpscRing,
    WorkerDeadError,
    WorkerLoop,
    parse_fault,
    push_with_backpressure,
    reap_process,
    run_runtime,
    runtime_available,
    validate_fault_spec,
)
from repro.runtime.__main__ import main as runtime_main
from repro.runtime.engine import _RouteLog
from repro.runtime.faults import FaultState, consume_cause
from repro.runtime.worker import (
    RECORD_SLOTS,
    Checkpoint,
    init_record,
    read_record,
    write_record,
)
from repro.streams.datasets import get_dataset

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

STREAM = get_dataset("WP").stream(12_000, seed=42)

needs_processes = pytest.mark.skipif(
    not runtime_available(), reason="process spawning or /dev/shm unavailable"
)


class TestFaultGrammar:
    def test_parse_every_kind(self):
        kill = parse_fault("kill:w=1@n=5000")
        assert (kill.kind, kill.worker, kill.at_messages) == ("kill", 1, 5000)
        assert kill.lethal

        stall = parse_fault("stall:w=0@t=1.5:duration=0.25")
        assert stall.at_seconds == 1.5 and stall.duration == 0.25
        assert not stall.lethal  # finite stall recovers on its own

        slow = parse_fault("slow:w=2@n=100:factor=8")
        assert slow.factor == 8.0 and not slow.lethal

        drop = parse_fault("drop:w=3@n=500:count=200")
        assert drop.count == 200 and not drop.lethal

    def test_stall_forever_is_lethal(self):
        assert parse_fault("stall:w=0@n=1").lethal

    def test_describe_round_trips(self):
        for text in (
            "kill:w=1@n=5000",
            "stall:w=0@n=100:duration=0.25",
            "slow:w=2@t=1.5:factor=8",
            "drop:w=3@n=500:count=200",
        ):
            spec = parse_fault(text)
            assert parse_fault(spec.describe()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:w=1@n=5",  # unknown kind
            "kill",  # no target
            "kill:w=1",  # no trigger
            "kill:x=1@n=5",  # malformed target
            "kill:w=one@n=5",  # non-integer worker
            "kill:w=1@q=5",  # unknown trigger
            "kill:w=1@n=5:factor=2",  # kill takes no parameters
            "slow:w=1@n=5:speed=2",  # unknown parameter
        ],
    )
    def test_malformed_specs_raise_and_validate(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)
        assert validate_fault_spec(bad) is not None

    def test_validate_accepts_good_spec(self):
        assert validate_fault_spec("kill:w=1@n=5000") is None

    def test_plan_random_is_seeded(self):
        a = FaultPlan.random(seed=11, num_workers=4, num_messages=10_000)
        b = FaultPlan.random(seed=11, num_workers=4, num_messages=10_000)
        c = FaultPlan.random(seed=12, num_workers=4, num_messages=10_000)
        assert a.specs == b.specs
        assert 1 <= len(a.specs) <= 2
        assert a.describe() != c.describe() or a.specs == c.specs

    def test_plan_random_needs_two_workers(self):
        with pytest.raises(ValueError, match="2 workers"):
            FaultPlan.random(seed=1, num_workers=1, num_messages=100)

    def test_plan_slicing(self):
        plan = FaultPlan.parse(
            ["kill:w=1@n=10", "slow:w=0@n=5", "drop:w=1@n=2"], seed=3
        )
        assert plan.workers() == (0, 1)
        assert [s.kind for s in plan.for_worker(1)] == ["kill", "drop"]
        assert plan.for_worker(2) == ()


class TestConsumeCause:
    KILL = FaultSpec(kind="kill", worker=0, at_messages=10)
    STALL = FaultSpec(kind="stall", worker=0, at_messages=5)
    DROP = FaultSpec(kind="drop", worker=0, at_messages=1)

    def test_exit_consumes_first_kill(self):
        left = consume_cause((self.STALL, self.KILL, self.DROP), "exit")
        assert left == (self.STALL, self.DROP)

    def test_wedged_consumes_first_stall(self):
        left = consume_cause((self.KILL, self.STALL), "wedged")
        assert left == (self.KILL,)

    def test_fallback_consumes_first_lethal(self):
        # finish-timeout has no kind mapping: the first lethal goes.
        left = consume_cause((self.DROP, self.KILL), "finish-timeout")
        assert left == (self.DROP,)

    def test_consumes_the_earliest_trigger_not_the_first_listed(self):
        late = FaultSpec(kind="kill", worker=0, at_messages=1500)
        early = FaultSpec(kind="kill", worker=0, at_messages=500)
        assert consume_cause((late, early), "exit") == (late,)
        assert consume_cause((early, late), "exit") == (late,)

    def test_genuine_crash_keeps_specs(self):
        assert consume_cause((self.DROP,), "exit") == (self.DROP,)


class TestLivenessDetector:
    def test_silence_accrues_until_beat(self):
        beats = np.zeros(2, dtype=np.int64)
        detector = LivenessDetector(beats, deadline=1.0)
        assert detector.silent_for(0, now=10.0) >= 0.0
        assert detector.silent_for(0, now=10.6) == pytest.approx(0.6)
        assert not detector.expired(0, now=10.9)
        assert detector.expired(0, now=11.1)
        beats[0] += 1  # a beat resets the silence window
        assert detector.silent_for(0, now=11.2) == 0.0
        assert not detector.expired(0, now=12.1)

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            LivenessDetector(np.zeros(1, dtype=np.int64), deadline=0.0)


class TestHeartbeats:
    def _loop(self, **kwargs):
        ring = SpscRing.create_local(64)
        lanes = np.zeros(2, dtype=np.int64)
        loop = WorkerLoop(
            0, ring, lanes[:1], beats=lanes[1:], **kwargs
        )
        return ring, lanes, loop

    def test_idle_steps_beat(self):
        _ring, lanes, loop = self._loop()
        before = int(lanes[1])
        loop.step()
        loop.step()
        assert int(lanes[1]) == before + 2

    def test_stalled_loop_goes_silent(self):
        _ring, lanes, loop = self._loop(
            faults=(FaultSpec(kind="stall", worker=0, at_messages=0),)
        )
        loop.step()  # fires the stall
        silent = int(lanes[1])
        loop.step()
        loop.step()
        assert int(lanes[1]) == silent  # no beats while stalled
        assert math.isinf(loop.stall_remaining(time.perf_counter()))

    def test_stall_remaining_is_read_only(self):
        _ring, _lanes, loop = self._loop(
            faults=(
                FaultSpec(
                    kind="stall", worker=0, at_messages=0, duration=30.0
                ),
            )
        )
        loop.step()
        now = time.perf_counter()
        first = loop.stall_remaining(now)
        assert 0.0 < first <= 30.0
        # Observing must not clear the fault machine's stall state.
        assert loop.stall_remaining(now) == pytest.approx(first)


def _fresh_record():
    record = np.zeros(RECORD_SLOTS, dtype=np.int64)
    init_record(record)
    return record


class TestCheckpointRecord:
    def test_fresh_record_is_the_empty_checkpoint(self):
        assert read_record(_fresh_record()) == Checkpoint(0, 0, -1)

    def test_every_publish_reads_back(self):
        record = _fresh_record()
        for i in range(1, 6):
            write_record(record, Checkpoint(i, 2 * i, 10 * i))
            assert read_record(record) == Checkpoint(i, 2 * i, 10 * i)

    def test_torn_write_keeps_the_committed_checkpoint(self):
        # A kill between two stores of a publish: any prefix of its
        # stores short of the generation word (slot 0) must leave the
        # last committed checkpoint readable.
        record = _fresh_record()
        write_record(record, Checkpoint(5, 1, 40))
        before = record.copy()
        write_record(record, Checkpoint(9, 2, 80))
        after = record.copy()
        changed = [i for i in np.flatnonzero(before != after) if i != 0]
        assert changed
        for landed in range(len(changed) + 1):
            record[:] = before
            record[changed[:landed]] = after[changed[:landed]]
            assert read_record(record) == Checkpoint(5, 1, 40)
        record[:] = after
        assert read_record(record) == Checkpoint(9, 2, 80)

    def test_worker_resumes_from_its_record(self):
        # A restarted worker counts on from the record: faults below the
        # checkpointed count stay fired (a slow factor persists), one at
        # exactly the count fires at the same sub-stream message.
        record = _fresh_record()
        write_record(record, Checkpoint(300, 20, 999))
        ring = SpscRing.create_local(64)
        loop = WorkerLoop(
            0,
            ring,
            record=record,
            faults=(
                FaultSpec(kind="slow", worker=0, at_messages=50, factor=2.0),
                FaultSpec(kind="drop", worker=0, at_messages=100, count=20),
                FaultSpec(kind="drop", worker=0, at_messages=300, count=5),
            ),
        )
        assert (loop.count, loop.fault_dropped, loop.last_id) == (300, 20, 999)
        assert [s.at_messages for s in loop.fired_faults] == [50, 100]
        ring.try_push(np.arange(1000, 1010), np.zeros(10))
        ring.mark_done()
        loop.drain_until_done()
        assert (loop.count, loop.fault_dropped) == (305, 25)
        assert read_record(record) == Checkpoint(305, 25, 1009)

    def test_drained_worker_publishes(self):
        record = _fresh_record()
        ring = SpscRing.create_local(64)
        loop = WorkerLoop(0, ring, record=record, checkpoint_interval=1000)
        ring.try_push(np.arange(10), np.zeros(10))
        loop.step()
        assert read_record(record) == Checkpoint()
        loop.step()  # ring empty: a caught-up worker checkpoints
        assert read_record(record) == Checkpoint(10, 0, 9)


class TestRouteLog:
    """The routed chunks restart reads a worker's lost span from."""

    CHUNK = 100

    def _log(self, horizon):
        """A route log over STREAM, trimmed to ``horizon(start)``."""
        partitioner = make_partitioner("pkg", 4, seed=1)
        log = _RouteLog()
        for start in range(0, STREAM.size, self.CHUNK):
            assigned = partitioner.route_chunk(STREAM[start : start + self.CHUNK])
            _counts, bounds, grouped = counting_scatter(assigned, 4, base=start)
            log.chunks.append((start, bounds.tolist(), grouped))
            log.trim(horizon(start))
        return log

    def test_trim_keeps_only_the_chunk_at_the_horizon(self):
        log = self._log(lambda start: start)
        assert len(log.chunks) == 1

    def test_a_stuck_horizon_keeps_everything(self):
        log = self._log(lambda start: 0)
        assert len(log.chunks) == STREAM.size // self.CHUNK

    def test_lost_span_reads_the_workers_ids(self):
        log = self._log(lambda start: max(start - 1_000, 0))
        assert log.chunks[0][0] > 0
        assigned = route_chunked(
            STREAM, make_partitioner("pkg", 4, seed=1), chunk_size=self.CHUNK
        )
        mine = np.flatnonzero(assigned == 2)
        after = int(mine[mine < STREAM.size - 900][-1])
        expected = mine[mine > after][:25]
        got = np.concatenate(list(log.lost_span(2, after, expected.size)))
        np.testing.assert_array_equal(got, expected)
        with pytest.raises(AssertionError, match="past the routed stream"):
            list(log.lost_span(2, after, mine.size))


class TestPushDeadline:
    def test_deadline_raises_typed_error_with_partial_accounting(self):
        # The consumer is gone: a bounded push must raise RingStallError
        # carrying exactly how much entered the ring before the stall.
        ring = SpscRing.create_local(64)
        ids = np.arange(100, dtype=np.int64)
        stamps = np.zeros(100, dtype=np.float64)
        start = time.perf_counter()
        with pytest.raises(RingStallError) as err:
            push_with_backpressure(
                ring, ids, stamps, "block", deadline=0.1
            )
        assert time.perf_counter() - start < 5.0
        assert err.value.pushed == 64
        assert err.value.stalls >= 1

    def test_progress_resets_the_deadline(self):
        # A consumer that keeps draining never trips the deadline even
        # if the total push takes longer than it.
        ring = SpscRing.create_local(8)
        lanes = np.zeros(2, dtype=np.int64)
        loop = WorkerLoop(0, ring, lanes[:1], beats=lanes[1:])
        ids = np.arange(400, dtype=np.int64)
        stamps = np.zeros(400, dtype=np.float64)
        outcome = push_with_backpressure(
            ring, ids, stamps, "block", drain=loop.step, deadline=0.5
        )
        assert outcome.pushed == 400

    @pytest.mark.parametrize("policy", ["block", "spin"])
    def test_exited_consumer_raises_on_first_stalled_retry(self, policy):
        # The liveness probe says the consumer is gone: the push must
        # escalate on its first full-ring retry, not wait out the
        # deadline, with the same exact partial accounting.
        ring = SpscRing.create_local(64)
        ids = np.arange(100, dtype=np.int64)
        stamps = np.zeros(100, dtype=np.float64)
        start = time.perf_counter()
        with pytest.raises(RingStallError) as err:
            push_with_backpressure(
                ring, ids, stamps, policy, deadline=10.0, alive=lambda: False
            )
        assert time.perf_counter() - start < 1.0
        assert err.value.pushed == 64
        assert err.value.stalls == 1

    def test_live_consumer_probe_keeps_the_deadline(self):
        # A consumer reported alive but not draining is still bounded by
        # the deadline alone; the probe is consulted on every retry.
        probes = []

        def alive():
            probes.append(1)
            return True

        ring = SpscRing.create_local(64)
        ids = np.arange(100, dtype=np.int64)
        stamps = np.zeros(100, dtype=np.float64)
        start = time.perf_counter()
        with pytest.raises(RingStallError) as err:
            push_with_backpressure(
                ring, ids, stamps, "block", deadline=0.1, alive=alive
            )
        assert time.perf_counter() - start >= 0.1
        assert err.value.pushed == 64
        assert len(probes) == err.value.stalls > 1

    def test_live_consumer_progress_resets_the_deadline(self):
        # A live consumer draining slower than the deadline, but never
        # pausing for a whole deadline, lets the push complete.
        ring = SpscRing.create_local(8)
        ids = np.arange(200, dtype=np.int64)
        stamps = np.zeros(200, dtype=np.float64)
        popped = []
        stop = threading.Event()

        def consume():
            while not stop.is_set() and len(popped) < ids.size:
                got, _ = ring.try_pop(8)
                popped.extend(got.tolist())
                time.sleep(0.02)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        try:
            start = time.perf_counter()
            outcome = push_with_backpressure(
                ring, ids, stamps, "block", deadline=0.3, alive=lambda: True
            )
            elapsed = time.perf_counter() - start
        finally:
            consumer.join(timeout=10.0)
            stop.set()
        assert outcome.pushed == 200 and outcome.dropped == 0
        assert elapsed > 0.3  # outlived the deadline without tripping it
        assert popped == ids.tolist()

    def test_drop_policy_never_consults_the_probe(self):
        probes = []

        def alive():
            probes.append(1)
            return False

        ring = SpscRing.create_local(64)
        ids = np.arange(100, dtype=np.int64)
        stamps = np.zeros(100, dtype=np.float64)
        outcome = push_with_backpressure(
            ring, ids, stamps, "drop", deadline=10.0, alive=alive
        )
        assert (outcome.pushed, outcome.dropped, outcome.stalls) == (64, 36, 1)
        assert probes == []

    @needs_processes
    def test_killed_consumer_mid_push_fails_cleanly(self):
        # Real worker process crashes mid-stream with a tiny ring: the
        # source's full-ring push sees the exited process on its first
        # retry, the fail policy aborts cleanly, and the result is
        # labeled with exact loss accounting.
        plan = FaultPlan.parse(["kill:w=1@n=100"], seed=3)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 2, seed=42),
            RuntimeConfig(
                mode="process",
                capacity=256,
                flush_size=256,
                recovery="fail",
                faults=plan,
                push_deadline=0.5,
                liveness_deadline=2.0,
            ),
        )
        assert result.status == "failed"
        assert result.stall_timeouts >= 1
        assert result.failures and result.failures[0]["worker"] == 1
        assert result.failures[0]["reason"] in ("exit", "wedged")
        assert result.conservation_ok
        assert result.undelivered > 0  # the abort stranded routed traffic


def _sleep_forever() -> None:  # module-level: Process targets must pickle
    time.sleep(3600)


class TestReaping:
    @needs_processes
    def test_reap_escalates_and_returns_exitcode(self):
        proc = multiprocessing.Process(target=_sleep_forever, daemon=True)
        proc.start()
        assert proc.is_alive()
        exitcode = reap_process(proc, timeout=2.0)
        assert not proc.is_alive()
        assert exitcode is not None and exitcode != 0

    @needs_processes
    def test_reap_tolerates_already_dead(self):
        proc = multiprocessing.Process(target=_noop, daemon=True)
        proc.start()
        proc.join(timeout=10.0)
        assert reap_process(proc, timeout=1.0) == 0

    @needs_processes
    def test_no_shm_leftovers_after_faulted_runs(self):
        before = set(os.listdir("/dev/shm"))
        plan = FaultPlan.parse(["kill:w=1@n=200"], seed=3)
        for recovery in ("fail", "reroute", "restart"):
            run_runtime(
                STREAM,
                make_partitioner("pkg", 2, seed=42),
                RuntimeConfig(
                    mode="process",
                    capacity=512,
                    flush_size=512,
                    recovery=recovery,
                    faults=plan,
                    push_deadline=0.5,
                    liveness_deadline=2.0,
                ),
            )
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked


def _noop() -> None:
    pass


class TestMasking:
    def test_deputies_are_deterministic(self):
        p = make_partitioner("pkg", 4, seed=42)
        p.mask_worker(1)
        # alive = [0, 2, 3]; deputy = alive[1 % 3] = 2
        assert p.masked_workers == (1,)
        assert p.remap_worker(1) == 2
        assert p.remap_worker(0) == 0
        assignments = np.array([0, 1, 2, 3, 1], dtype=np.int64)
        np.testing.assert_array_equal(
            p.remap_masked(assignments), [0, 2, 2, 3, 2]
        )

    def test_mask_is_idempotent_and_composes(self):
        p = make_partitioner("sg", 4, seed=42)
        p.mask_worker(0)
        p.mask_worker(0)
        p.mask_worker(2)
        # alive = [1, 3]; 0 -> alive[0] = 1, 2 -> alive[0] = 1
        assert p.masked_workers == (0, 2)
        assert p.remap_worker(0) == 1
        assert p.remap_worker(2) == 1

    def test_cannot_mask_last_worker(self):
        p = make_partitioner("sg", 2, seed=42)
        p.mask_worker(0)
        with pytest.raises(RuntimeError, match="no workers would remain"):
            p.mask_worker(1)

    def test_mask_validates_worker_id(self):
        p = make_partitioner("sg", 2, seed=42)
        with pytest.raises(ValueError):
            p.mask_worker(2)

    def test_masks_survive_reset(self):
        p = make_partitioner("pkg", 4, seed=42)
        p.mask_worker(3)
        p.reset()
        assert p.masked_workers == (3,)
        assert p.remap_worker(3) != 3

    @pytest.mark.parametrize(
        "scheme", ["pkg", "ch-pkg", "least-loaded", "potc", "on-greedy"]
    )
    def test_estimator_poisoning_prefers_survivors(self, scheme):
        p = make_partitioner(scheme, 4, seed=42)
        p.mask_worker(1)
        assert p.loads[1] == MASKED_LOAD
        # A d-choice draw whose candidates include the dead worker
        # resolves to the live one.
        assert p._send_least_loaded([1, 3]) == 3
        p.route_chunk(STREAM[:500])
        # ...and the sentinel survives reset.
        p.reset()
        assert p.loads[1] == MASKED_LOAD
        assert p.loads[[0, 2, 3]].tolist() == [0, 0, 0]

    def test_unmasked_routing_is_untouched(self):
        masked = make_partitioner("pkg", 4, seed=42)
        clean = make_partitioner("pkg", 4, seed=42)
        keys = STREAM[:4000]
        first = masked.route_chunk(keys[:2000])
        clean_first = clean.route_chunk(keys[:2000])
        np.testing.assert_array_equal(first, clean_first)


class TestFaultState:
    def test_message_budget_clips_to_trigger(self):
        state = FaultState(
            specs=(FaultSpec(kind="drop", worker=0, at_messages=10),),
            started_at=0.0,
        )
        assert state.message_budget(0) == 10
        assert state.message_budget(7) == 3
        assert state.message_budget(12) == 0
        state.poll(12, now=0.0)
        assert state.drop_remaining == 1_000
        assert state.message_budget(12) is None

    def test_time_trigger_fires_on_elapsed(self):
        state = FaultState(
            specs=(FaultSpec(kind="slow", worker=0, at_seconds=5.0),),
            started_at=100.0,
        )
        state.poll(0, now=104.0)
        assert state.service_factor == 1.0
        state.poll(0, now=105.5)
        assert state.service_factor == 4.0


class TestRuntimeConfigRecovery:
    def test_restart_rejects_drop_policy(self):
        with pytest.raises(ValueError, match="lossless"):
            RuntimeConfig(policy="drop", recovery="restart")

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            RuntimeConfig(recovery="reboot")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"push_deadline": 0.0},
            {"liveness_deadline": -1.0},
            {"drain_deadline": 0.0},
            {"restart_limit": 0},
        ],
    )
    def test_deadlines_must_be_positive(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_fault_targeting_absent_worker_rejected(self):
        plan = FaultPlan.parse(["kill:w=9@n=10"], seed=0)
        with pytest.raises(ValueError, match="targets worker 9"):
            run_runtime(
                STREAM[:100],
                make_partitioner("sg", 2, seed=42),
                RuntimeConfig(mode="simulated", faults=plan),
            )


class TestCli:
    def test_fault_restart_verify_exits_zero(self, capsys):
        code = runtime_main(
            [
                "--schemes",
                "pkg",
                "--messages",
                "8000",
                "--mode",
                "simulated",
                "--verify",
                "--fault",
                "kill:w=1@n=500",
                "--recovery",
                "restart",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "recovered" in out

    def test_chaos_reroute_verify_exits_zero(self, capsys):
        code = runtime_main(
            [
                "--schemes",
                "pkg",
                "--messages",
                "8000",
                "--mode",
                "simulated",
                "--verify",
                "--chaos",
                "--recovery",
                "reroute",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "faults:" in out

    def test_malformed_fault_spec_is_usage_error(self):
        with pytest.raises(SystemExit):
            runtime_main(["--fault", "explode:w=1@n=5"])

    def test_fault_beyond_worker_count_is_usage_error(self):
        with pytest.raises(SystemExit):
            runtime_main(["--workers", "2", "--fault", "kill:w=5@n=10"])
