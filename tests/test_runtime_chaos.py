"""Chaos matrix: seeded fault schedules x recovery policies x backends.

Two invariants carry the whole fault-tolerance contract and every run
here asserts at least one of them:

* **Conservation** -- ``sent == processed + dropped + lost`` holds
  exactly for every schedule, every policy, every backend.  Nothing is
  silently lost and nothing is double-counted, even mid-crash.
* **Restart determinism** -- after ``recovery="restart"`` fully
  recovers a killed worker, the per-worker counts are byte-identical
  to the fault-free single-process replay: the respawned worker
  resumed at its predecessor's checkpoint and re-processed exactly the
  span it lost, which costs the same wherever the kill lands.

The hypothesis matrix drives randomly drawn (but seeded) fault plans
through the simulated backend; the fixed schedules then pin the
acceptance scenarios on real worker processes.  Deadlines are
tightened throughout so a recovery path that *would* hang fails fast
instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import available_schemes, make_partitioner
from repro.core.engine import replay_stream
from repro.runtime import (
    FaultPlan,
    RuntimeConfig,
    run_runtime,
    runtime_available,
)
from repro.streams.datasets import get_dataset
from repro.streams.distributions import ZipfKeyDistribution

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

STREAM = get_dataset("WP").stream(12_000, seed=42)
SMALL = STREAM[:6_000]

needs_processes = pytest.mark.skipif(
    not runtime_available(), reason="process spawning or /dev/shm unavailable"
)

#: the paper's headline schemes, exercised on real processes.
PROCESS_SCHEMES = ("pkg", "kg", "sg", "jbsq")


def simulated_config(recovery, faults, **overrides):
    """Small rings + tight deadlines: force mid-stream interaction."""
    kwargs = dict(
        mode="simulated",
        capacity=128,
        flush_size=128,
        recovery=recovery,
        faults=faults,
        push_deadline=0.5,
        liveness_deadline=1.0,
        drain_deadline=30.0,
    )
    kwargs.update(overrides)
    return RuntimeConfig(**kwargs)


def process_config(recovery, faults, **overrides):
    kwargs = dict(
        mode="process",
        capacity=512,
        flush_size=512,
        recovery=recovery,
        faults=faults,
        push_deadline=0.5,
        liveness_deadline=2.0,
        drain_deadline=60.0,
    )
    kwargs.update(overrides)
    return RuntimeConfig(**kwargs)


class TestChaosMatrixSimulated:
    """Randomly drawn fault plans must never break conservation."""

    @settings(max_examples=25, deadline=None)
    @given(
        chaos_seed=st.integers(min_value=0, max_value=10_000),
        recovery=st.sampled_from(["reroute", "restart"]),
        scheme=st.sampled_from(["pkg", "kg"]),
    )
    def test_conservation_always_holds(self, chaos_seed, recovery, scheme):
        plan = FaultPlan.random(
            seed=chaos_seed, num_workers=3, num_messages=SMALL.size
        )
        result = run_runtime(
            SMALL,
            make_partitioner(scheme, 3, seed=42),
            simulated_config(recovery, plan),
        )
        assert result.status in ("ok", "degraded", "failed")
        assert result.sent == SMALL.size
        assert result.conservation_ok, (
            f"seed={chaos_seed} recovery={recovery} scheme={scheme}: "
            f"sent={result.sent} processed={result.processed} "
            f"dropped={result.dropped} lost={result.lost}"
        )
        assert result.worker_loads.sum() == result.processed
        kinds = {s.kind for s in plan.specs}
        if (
            recovery == "restart"
            and result.status == "ok"
            and "drop" not in kinds
        ):
            # Fully recovered without loss-by-design faults: counts are
            # byte-identical to the fault-free replay.
            replay = replay_stream(
                SMALL, make_partitioner(scheme, 3, seed=42)
            )
            np.testing.assert_array_equal(
                result.worker_loads, replay.final_loads
            )

    @settings(max_examples=10, deadline=None)
    @given(chaos_seed=st.integers(min_value=0, max_value=10_000))
    def test_fail_policy_aborts_cleanly_or_completes(self, chaos_seed):
        # Under `fail`, a lethal fault yields a labeled partial result;
        # a non-lethal plan completes ok.  Either way: conservation.
        plan = FaultPlan.random(
            seed=chaos_seed, num_workers=3, num_messages=SMALL.size
        )
        result = run_runtime(
            SMALL,
            make_partitioner("pkg", 3, seed=42),
            simulated_config("fail", plan),
        )
        lethal = any(s.lethal for s in plan.specs)
        if result.status == "failed":
            assert lethal
            assert result.failures
        assert result.conservation_ok


class TestRestartIdentitySimulated:
    """Every registered scheme survives kill+restart byte-identically."""

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_kill_restart_matches_replay(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=200"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            simulated_config("restart", plan),
        )
        replay = replay_stream(STREAM, make_partitioner(scheme, 4, seed=42))
        assert result.status == "ok", result.failures
        assert result.conservation_ok
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        if replay.final_loads[1] >= 200:  # the trigger actually fired
            assert result.restarts >= 1
            assert result.failures[0]["worker"] == 1

    def test_double_kill_restarts_twice(self):
        # The re-armed schedule: the respawned worker dies again during
        # or after the replay; recovery handles it recursively.
        plan = FaultPlan.parse(
            ["kill:w=1@n=500", "kill:w=1@n=1500"], seed=42
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("restart", plan),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        assert result.status == "ok"
        assert result.restarts == 2
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)

    def test_restart_limit_aborts_cleanly(self):
        # More kills than the limit allows: a clean, conserved abort --
        # never a hang.
        plan = FaultPlan.parse(
            ["kill:w=1@n=100", "kill:w=1@n=200", "kill:w=1@n=300"],
            seed=42,
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("restart", plan, restart_limit=2),
        )
        assert result.status == "failed"
        assert result.restarts == 2
        assert result.conservation_ok


def modes():
    return [pytest.param("process", marks=needs_processes), "simulated"]


def make_config(mode, recovery, faults, **overrides):
    build = process_config if mode == "process" else simulated_config
    return build(recovery, faults, **overrides)


def assert_recovered(result, expected):
    """Status ok, conservation, and counts byte-identical to ``expected``."""
    assert result.status == "ok", result.failures
    assert result.conservation_ok
    assert (
        result.worker_loads.astype(np.int64).tobytes()
        == np.asarray(expected, dtype=np.int64).tobytes()
    )


class TestRestartFromCheckpoint:
    """Restart resumes at the dead worker's checkpoint, not at message 0.

    A small ``checkpoint_interval`` puts the checkpoint well into the
    worker's sub-stream, so every run below replays only the span after
    it: ``replayed == delivered - resumed_from`` when nothing was
    fault-dropped.
    """

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_every_scheme_resumes_mid_stream(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=1000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            simulated_config("restart", plan, checkpoint_interval=64),
        )
        replay = replay_stream(STREAM, make_partitioner(scheme, 4, seed=42))
        assert_recovered(result, replay.final_loads)
        if replay.final_loads[1] >= 1000:  # the trigger actually fired
            (event,) = result.failures
            assert event["resumed_from"] == event["checkpointed"] > 0
            assert event["replayed"] == event["delivered"] - event["resumed_from"]

    @pytest.mark.parametrize("mode", modes())
    def test_chunk_source_input(self, mode):
        # A source cannot seek, and restart never asks it to: the lost
        # span comes from the route log.  A small chunk grid makes the
        # log trim many times before and after the kill.
        source = ZipfKeyDistribution(1.2, 5_000).chunk_source(
            40_000, seed=3, chunk_size=1_000
        )
        plan = FaultPlan.parse(["kill:w=1@n=4000"], seed=42)
        result = run_runtime(
            source,
            make_partitioner("pkg", 4, seed=42),
            make_config(mode, "restart", plan, checkpoint_interval=256),
        )
        replay = replay_stream(source, make_partitioner("pkg", 4, seed=42))
        assert_recovered(result, replay.final_loads)
        (event,) = result.failures
        assert event["resumed_from"] >= 4000 - 256 - 512
        assert event["replayed"] == event["delivered"] - event["resumed_from"]

    @pytest.mark.parametrize("mode", modes())
    def test_drop_before_the_checkpoint_stays_fired(self, mode):
        # The drop fired (and ended) before the checkpoint: the resumed
        # worker must neither drop again nor forget the drops.
        plan = FaultPlan.parse(
            ["drop:w=1@n=100:count=50", "kill:w=1@n=1500"], seed=42
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            make_config(mode, "restart", plan, checkpoint_interval=256),
        )
        expected = replay_stream(
            STREAM, make_partitioner("pkg", 4, seed=42)
        ).final_loads.copy()
        expected[1] -= 50
        assert_recovered(result, expected)
        assert result.lost == 50
        (event,) = result.failures
        assert event["resumed_from"] > 100

    @pytest.mark.parametrize("mode", modes())
    def test_rare_worker_staged_across_many_chunks(self, mode):
        # Worker 1 gets 1% of the stream, so one flush of its staging
        # row spans ~200 chunks.  A caught-up worker's staged ids must
        # keep those chunks in the route log: the kill lands right after
        # the first flush delivers them.
        homes = make_partitioner("kg", 4, seed=42).route_chunk(np.arange(1_000))
        rare, common = np.flatnonzero(homes == 1), np.flatnonzero(homes != 1)
        rng = np.random.default_rng(5)
        keys = np.where(
            rng.random(120_000) < 0.01,
            rng.choice(rare, 120_000),
            rng.choice(common, 120_000),
        )
        plan = FaultPlan.parse(["kill:w=1@n=100"], seed=42)
        result = run_runtime(
            keys,
            make_partitioner("kg", 4, seed=42),
            make_config(
                mode, "restart", plan, chunk_size=256, capacity=512, flush_size=512
            ),
        )
        replay = replay_stream(keys, make_partitioner("kg", 4, seed=42))
        assert_recovered(result, replay.final_loads)
        assert result.restarts == 1

    def test_second_kill_during_the_replay(self):
        # The respawned worker resumes at 512 and dies again at 720,
        # while the replay of its span (more than the 128-slot ring
        # holds) is still being pushed.
        plan = FaultPlan.parse(
            ["kill:w=1@n=700", "kill:w=1@n=720"], seed=42
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("restart", plan, checkpoint_interval=512),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        assert_recovered(result, replay.final_loads)
        assert result.restarts == 2
        first, second = result.failures
        assert second["at_routed"] == first["at_routed"]  # no routing between
        assert first["resumed_from"] == second["resumed_from"] == 512
        assert first["replayed"] < second["replayed"]
        assert second["replayed"] == second["delivered"] - 512

    @pytest.mark.parametrize("mode", modes())
    def test_two_kills_on_one_worker(self, mode):
        plan = FaultPlan.parse(
            ["kill:w=1@n=500", "kill:w=1@n=1500"], seed=42
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            make_config(mode, "restart", plan, checkpoint_interval=128),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        assert_recovered(result, replay.final_loads)
        assert result.restarts == 2
        first, second = result.failures
        assert 0 < first["resumed_from"] < second["resumed_from"] <= 1500

    @pytest.mark.parametrize("mode", modes())
    @pytest.mark.parametrize("late_first", [False, True], ids=["in-order", "reversed"])
    def test_two_kills_fire_in_trigger_order(self, mode, late_first):
        # Restart consumes the kill that fired -- the earliest trigger --
        # whatever the plan order: the n=1500 kill must still fire after
        # the n=500 one, instead of the n=500 kill firing twice.
        specs = ["kill:w=1@n=500", "kill:w=1@n=1500"]
        plan = FaultPlan.parse(specs[::-1] if late_first else specs, seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            make_config(mode, "restart", plan, checkpoint_interval=128),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        assert_recovered(result, replay.final_loads)
        assert result.restarts == 2
        first, second = result.failures
        assert 0 < first["checkpointed"] <= 500 < second["checkpointed"] <= 1500


class TestRecoveryCostIsFlat:
    """Recovery cost does not grow with how far in the kill lands.

    Counts, not timings: the messages a restart re-delivers are bounded
    by what can sit between a checkpoint and the source -- a full ring,
    one checkpoint interval, one drain batch -- at every kill position
    of a 2M-message stream.
    """

    @pytest.fixture(scope="class")
    def long_stream(self):
        keys = get_dataset("WP").stream(2_000_000, seed=3)
        replay = replay_stream(keys, make_partitioner("pkg", 4, seed=3))
        return keys, replay.final_loads

    @pytest.mark.parametrize("mode", modes())
    def test_replay_is_bounded_at_every_kill_position(self, mode, long_stream):
        keys, expected = long_stream
        for at in (10_000, 200_000, 450_000):
            config = RuntimeConfig(
                mode=mode,
                recovery="restart",
                faults=FaultPlan.parse([f"kill:w=1@n={at}"], seed=3),
            )
            bound = (
                config.capacity + config.checkpoint_interval + config.max_batch
            )
            result = run_runtime(keys, make_partitioner("pkg", 4, seed=3), config)
            assert_recovered(result, expected)
            (event,) = result.failures
            assert event["delivered"] > at
            assert event["replayed"] <= bound, (at, event)
            assert event["replayed"] == event["delivered"] - event["resumed_from"]


class TestRerouteSimulated:
    def test_degraded_run_conserves_and_masks(self):
        plan = FaultPlan.parse(["kill:w=1@n=1000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("reroute", plan),
        )
        assert result.status == "degraded"
        assert result.masked_workers == (1,)
        assert result.conservation_ok
        assert result.lost > 0  # the dead worker's unprocessed span
        # Survivors absorbed the rerouted traffic: everything the dead
        # worker didn't lose was processed by the remaining three.
        assert result.processed == STREAM.size - result.lost

    def test_stall_forever_is_condemned_and_rerouted(self):
        plan = FaultPlan.parse(["stall:w=2@n=1000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("kg", 4, seed=42),
            simulated_config("reroute", plan),
        )
        assert result.status == "degraded"
        assert result.masked_workers == (2,)
        assert result.failures[0]["reason"] == "wedged"
        assert result.conservation_ok


@needs_processes
class TestProcessChaosMatrix:
    """The acceptance schedules on real worker processes."""

    @pytest.mark.parametrize("scheme", PROCESS_SCHEMES)
    def test_kill_restart_is_byte_identical(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=500"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            process_config("restart", plan),
        )
        replay = replay_stream(STREAM, make_partitioner(scheme, 4, seed=42))
        assert result.mode == "process"
        assert result.status == "ok", result.failures
        assert result.conservation_ok
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        if replay.final_loads[1] >= 500:
            assert result.restarts >= 1

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_kill_restart_from_checkpoint_every_scheme(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=1000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            process_config("restart", plan, checkpoint_interval=128),
        )
        replay = replay_stream(STREAM, make_partitioner(scheme, 4, seed=42))
        assert result.mode == "process"
        assert_recovered(result, replay.final_loads)
        if replay.final_loads[1] >= 1000:
            assert result.restarts == 1
            (event,) = result.failures
            assert event["resumed_from"] > 0
            assert event["replayed"] == event["delivered"] - event["resumed_from"]

    @pytest.mark.parametrize("scheme", PROCESS_SCHEMES)
    def test_kill_reroute_conserves_degraded(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=500"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            process_config("reroute", plan),
        )
        assert result.mode == "process"
        assert result.conservation_ok
        if result.restarts == 0 and result.failures:
            assert result.status == "degraded"
            assert result.masked_workers == (1,)
            assert result.worker_loads.sum() == result.processed

    def test_chaos_plan_on_processes(self):
        # One randomly drawn (seeded) schedule end-to-end on real
        # processes: whatever it drew, nothing leaks and the
        # conservation law holds.
        plan = FaultPlan.random(
            seed=7, num_workers=4, num_messages=STREAM.size
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            process_config("reroute", plan),
        )
        assert result.injected_faults == tuple(
            s.describe() for s in plan.specs
        )
        assert result.conservation_ok


class TestFailureCost:
    """Failure handling costs what the failure costs, and no more."""

    @needs_processes
    def test_exited_worker_is_detected_without_the_push_deadline(self):
        # Worker 1's ring fills after it exits, so the source's push
        # stalls on a dead consumer.  Detection must come from the
        # process state on the first full-ring retry; waiting out the
        # 30 s push deadline would blow the bound below.
        plan = FaultPlan.parse(["kill:w=1@n=2000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            process_config("restart", plan, push_deadline=30.0),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        assert result.status == "ok", result.failures
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        assert [f["reason"] for f in result.failures] == ["exit"]
        assert result.stall_timeouts == 1
        stages = result.stage_seconds
        assert stages["flush_stall"] + stages["recovery"] < 5.0

    @pytest.mark.parametrize(
        "mode",
        [pytest.param("process", marks=needs_processes), "simulated"],
    )
    def test_stage_seconds_do_not_exceed_wall(self, mode):
        # The stages partition the run's wall clock, so recovery must
        # not also be booked under scatter or flush, nor go missing.
        plan = FaultPlan.parse(["kill:w=1@n=2000"], seed=42)
        make_config = process_config if mode == "process" else simulated_config
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            make_config("restart", plan),
        )
        assert result.restarts == 1
        assert result.stage_seconds["recovery"] > 0.0
        assert abs(
            result.wall_seconds - sum(result.stage_seconds.values())
        ) <= 1e-3


class TestEndOfStreamRecovery:
    """Deaths found only by the final drain run the same recovery switch.

    Worker 1 dies 2000 messages before the end of its share.  The rings
    hold more than that, so no push ever stalls after the kill, and the
    death is found only when the source drains the workers.
    """

    @pytest.mark.parametrize(
        "mode",
        [pytest.param("process", marks=needs_processes), "simulated"],
    )
    @pytest.mark.parametrize(
        "recovery, status",
        [("restart", "ok"), ("reroute", "degraded"), ("fail", "failed")],
    )
    def test_final_drain_death(self, mode, recovery, status):
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        share = int(replay.final_loads[1])
        plan = FaultPlan.parse([f"kill:w=1@n={share - 2000}"], seed=42)
        make_config = process_config if mode == "process" else simulated_config
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            make_config(recovery, plan, capacity=4096),
        )
        assert result.status == status, result.failures
        assert result.conservation_ok
        assert [(f["reason"], f["action"]) for f in result.failures] == [
            ("exit", recovery)
        ]
        assert result.stall_timeouts == 0
        if recovery == "restart":
            assert (
                result.worker_loads.astype(np.int64).tobytes()
                == replay.final_loads.astype(np.int64).tobytes()
            )
