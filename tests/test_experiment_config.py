"""Tests for experiment configuration helpers and formatting."""

import pytest

from repro.experiments.config import ExperimentConfig, format_table, sci
from repro.queueing.cluster import LatencyStats, RunMetrics


class TestSci:
    def test_zero(self):
        assert sci(0) == "0"

    def test_small_plain(self):
        assert sci(0.8) == "0.8"

    def test_mid_one_decimal(self):
        assert sci(92.7) == "92.7"

    def test_large_scientific(self):
        assert sci(1.6e6) == "1.6e+06"

    def test_negative(self):
        assert sci(-1.2e5) == "-1.2e+05"


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["a", "bb"], [["x", "y"], ["long", "z"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_cells_stringified(self):
        text = format_table(["n"], [[42]])
        assert "42" in text


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.scale == 1.0
        assert tuple(cfg.workers) == (5, 10, 50, 100)

    def test_messages_scaling(self):
        from repro.streams import get_dataset

        spec = get_dataset("WP")
        assert ExperimentConfig(scale=0.5).messages_for(spec) == 500_000

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=-1)


class TestRunMetrics:
    def make(self, loads):
        return RunMetrics(
            scheme="PKG",
            cpu_delay=0.4e-3,
            duration=10.0,
            warmup=2.0,
            emitted=100,
            completed=90,
            throughput=9.0,
            latency=LatencyStats(),
            average_memory_counters=12.0,
            peak_memory_counters=20,
            aggregation_messages=5,
            worker_loads=loads,
        )

    def test_load_imbalance(self):
        m = self.make([10, 0, 2])
        assert m.load_imbalance == pytest.approx(10 - 4.0)

    def test_load_imbalance_empty(self):
        assert self.make([]).load_imbalance == 0.0

    def test_summary_contains_key_fields(self):
        text = self.make([1, 2, 3]).summary()
        assert "PKG" in text and "keys/s" in text
