"""Metric diffing: direction-aware classification and tolerances."""

import pytest

from repro.reports import ExperimentArtifact, Metric, RunManifest, SchemaError
from repro.reports.diffing import diff_artifacts, load_artifact_set


def artifact(metrics, experiment="table2"):
    return ExperimentArtifact(
        experiment=experiment,
        paper_section="Table II",
        manifest=RunManifest(
            seed=1, scale=1.0, git_sha="sha", created_utc="t"
        ),
        metrics=metrics,
    )


def one_change(old_metric, new_metric, **kwargs):
    report = diff_artifacts(
        {"table2": artifact([old_metric])},
        {"table2": artifact([new_metric])},
        **kwargs,
    )
    (change,) = report.changes
    return report, change


class TestClassification:
    def test_lower_is_better_regression(self):
        report, change = one_change(Metric("m", 1.0), Metric("m", 2.0))
        assert change.status == "regressed"
        assert report.has_regressions

    def test_lower_is_better_improvement(self):
        _, change = one_change(Metric("m", 2.0), Metric("m", 1.0))
        assert change.status == "improved"

    def test_higher_is_better_flips(self):
        _, change = one_change(
            Metric("m", 100.0, "higher"), Metric("m", 50.0, "higher")
        )
        assert change.status == "regressed"
        _, change = one_change(
            Metric("m", 50.0, "higher"), Metric("m", 100.0, "higher")
        )
        assert change.status == "improved"

    def test_within_tolerance_is_ok(self):
        report, change = one_change(
            Metric("m", 1.0), Metric("m", 1.2), tolerance=0.25
        )
        assert change.status == "ok"
        assert not report.has_regressions

    def test_absolute_floor_suppresses_noise_near_zero(self):
        # 2e-7 vs 1e-7 is a 2x relative change but far below the floor.
        _, change = one_change(Metric("m", 1e-7), Metric("m", 2e-7))
        assert change.status == "ok"

    def test_added_and_removed(self):
        report = diff_artifacts(
            {"table2": artifact([Metric("old_only", 1.0)])},
            {"table2": artifact([Metric("new_only", 1.0)])},
        )
        statuses = {c.name: c.status for c in report.changes}
        assert statuses == {"old_only": "removed", "new_only": "added"}
        assert not report.has_regressions  # informational, not failures

    def test_direction_flip_rejected(self):
        with pytest.raises(SchemaError, match="direction"):
            one_change(Metric("m", 1.0, "lower"), Metric("m", 1.0, "higher"))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            diff_artifacts({}, {}, tolerance=-0.1)


class TestReport:
    def test_format_mentions_regression_and_counts(self):
        report, _ = one_change(Metric("m", 1.0), Metric("m", 3.0))
        text = report.format()
        assert "! m: 1 -> 3" in text
        assert "1 regressed" in text

    def test_missing_experiment_counts_as_removed_metrics(self):
        report = diff_artifacts(
            {"table2": artifact([Metric("m", 1.0)])}, {}
        )
        (change,) = report.changes
        assert change.status == "removed"


class TestBenchSnapshotDiff:
    """BENCH_*.json snapshots diff like artifacts (the bench-smoke gate)."""

    def _snapshot(self, tmp_path, name, kps):
        from repro.reports.bench import write_bench_snapshot

        results = [
            {"name": scheme, "keys_per_second": value, "num_messages": 1000}
            for scheme, value in kps.items()
        ]
        directory = tmp_path / name
        directory.mkdir()
        return write_bench_snapshot(
            "partitioners", results, directory=directory,
            created_utc="2026-01-01T00:00:00Z",
        )

    def test_throughput_drop_regresses(self, tmp_path):
        old = load_artifact_set(
            self._snapshot(tmp_path, "old", {"pkg": 100.0, "kg": 50.0})
        )
        new = load_artifact_set(
            self._snapshot(tmp_path, "new", {"pkg": 60.0, "kg": 50.0})
        )
        report = diff_artifacts(old, new, tolerance=0.30)
        assert report.has_regressions
        (regression,) = report.regressions
        assert regression.name == "pkg.keys_per_second"
        assert regression.direction == "higher"

    def test_throughput_gain_improves(self, tmp_path):
        old = load_artifact_set(
            self._snapshot(tmp_path, "old", {"pkg": 100.0})
        )
        new = load_artifact_set(
            self._snapshot(tmp_path, "new", {"pkg": 500.0})
        )
        report = diff_artifacts(old, new, tolerance=0.30)
        assert not report.has_regressions
        assert [c.name for c in report.improvements] == ["pkg.keys_per_second"]

    def test_within_tolerance_ok(self, tmp_path):
        old = load_artifact_set(self._snapshot(tmp_path, "old", {"pkg": 100.0}))
        new = load_artifact_set(self._snapshot(tmp_path, "new", {"pkg": 80.0}))
        report = diff_artifacts(old, new, tolerance=0.30)
        assert not report.has_regressions

    def test_cli_diff_on_bench_snapshots(self, tmp_path, capsys):
        from repro.reports.__main__ import main

        old = self._snapshot(tmp_path, "old", {"pkg": 100.0, "kg": 50.0})
        new = self._snapshot(tmp_path, "new", {"pkg": 10.0, "kg": 55.0})
        code = main(["diff", str(old), str(new), "--tolerance", "0.30"])
        out = capsys.readouterr().out
        assert code == 1
        assert "pkg.keys_per_second" in out
