"""Compare two artifact sets and flag metric regressions.

``python -m repro.reports diff OLD NEW`` loads both artifact sets
(directories of ``*.json`` or single files), matches metrics by name,
and classifies each pair using the metric's declared direction.
``BENCH_*.json`` snapshots are accepted too: each scheme's
``keys_per_second`` becomes a higher-is-better metric, which is how the
CI ``bench-smoke`` job gates routing-throughput regressions against the
committed snapshot.  Classification:

* ``regressed`` -- the value moved in the *worse* direction by more
  than the relative tolerance (and more than the absolute floor, so
  noise around zero never fails a build);
* ``improved`` -- moved in the better direction by more than tolerance;
* ``ok`` -- within tolerance;
* ``added`` / ``removed`` -- present on only one side (informational).

The CLI exits non-zero iff any metric regressed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping

from repro.reports.schema import (
    BENCH_KIND,
    ExperimentArtifact,
    Metric,
    RunManifest,
    SchemaError,
    load_artifact,
    load_artifacts,
)

__all__ = [
    "MetricChange",
    "DiffReport",
    "diff_artifacts",
    "load_artifact_set",
    "bench_snapshot_artifact",
]

#: Ignore absolute movements below this: imbalance fractions of 1e-7 vs
#: 2e-7 are both "perfectly balanced", not a 2x regression.
DEFAULT_ABS_FLOOR = 1e-6


@dataclass(frozen=True)
class MetricChange:
    experiment: str
    name: str
    status: str  # "ok" | "improved" | "regressed" | "added" | "removed"
    old: float = float("nan")
    new: float = float("nan")
    direction: str = "lower"

    @property
    def relative_change(self) -> float:
        if self.status in ("added", "removed") or self.old == 0:
            return float("nan")
        return (self.new - self.old) / abs(self.old)

    def describe(self) -> str:
        if self.status == "added":
            return f"[{self.experiment}] {self.name}: added ({self.new:.4g})"
        if self.status == "removed":
            return f"[{self.experiment}] {self.name}: removed (was {self.old:.4g})"
        arrow = {"ok": "~", "improved": "+", "regressed": "!"}[self.status]
        return (
            f"[{self.experiment}] {arrow} {self.name}: "
            f"{self.old:.4g} -> {self.new:.4g} "
            f"({self.relative_change * 100:+.1f}%, better={self.direction})"
        )


@dataclass
class DiffReport:
    changes: List[MetricChange]
    tolerance: float

    @property
    def regressions(self) -> List[MetricChange]:
        return [c for c in self.changes if c.status == "regressed"]

    @property
    def improvements(self) -> List[MetricChange]:
        return [c for c in self.changes if c.status == "improved"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def format(self, verbose: bool = False) -> str:
        lines = []
        interesting = [c for c in self.changes if c.status != "ok" or verbose]
        for change in interesting:
            lines.append(change.describe())
        counts = {}
        for c in self.changes:
            counts[c.status] = counts.get(c.status, 0) + 1
        total = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(
            f"diff: {len(self.changes)} metrics compared "
            f"(tolerance {self.tolerance * 100:.0f}%): {total or 'none'}"
        )
        return "\n".join(lines)


def _classify(
    old: Metric, new: Metric, tolerance: float, abs_floor: float
) -> str:
    delta = new.value - old.value
    if abs(delta) <= abs_floor:
        return "ok"
    # Positive "worseness": movement in the bad direction.
    worse = delta if old.direction == "lower" else -delta
    scale = max(abs(old.value), abs_floor)
    if worse > tolerance * scale:
        return "regressed"
    if -worse > tolerance * scale:
        return "improved"
    return "ok"


def diff_artifacts(
    old: Mapping[str, ExperimentArtifact],
    new: Mapping[str, ExperimentArtifact],
    tolerance: float = 0.25,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> DiffReport:
    """Compare two artifact sets metric-by-metric."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    changes: List[MetricChange] = []
    for name in sorted(set(old) | set(new)):
        old_metrics = old[name].metric_map() if name in old else {}
        new_metrics = new[name].metric_map() if name in new else {}
        for metric_name in sorted(set(old_metrics) | set(new_metrics)):
            o = old_metrics.get(metric_name)
            n = new_metrics.get(metric_name)
            if o is None:
                changes.append(
                    MetricChange(name, metric_name, "added", new=n.value,
                                 direction=n.direction)
                )
            elif n is None:
                changes.append(
                    MetricChange(name, metric_name, "removed", old=o.value,
                                 direction=o.direction)
                )
            else:
                if o.direction != n.direction:
                    raise SchemaError(
                        f"metric {metric_name!r} changed direction between "
                        f"artifact sets ({o.direction} vs {n.direction})"
                    )
                status = _classify(o, n, tolerance, abs_floor)
                changes.append(
                    MetricChange(
                        name, metric_name, status,
                        old=o.value, new=n.value, direction=o.direction,
                    )
                )
    return DiffReport(changes=changes, tolerance=tolerance)


def bench_snapshot_artifact(data: Mapping) -> ExperimentArtifact:
    """View a ``BENCH_*.json`` snapshot as a diffable artifact.

    Every result entry's ``keys_per_second`` becomes one
    higher-is-better metric named ``<scheme>.keys_per_second``, so the
    standard diff gate (tolerance, direction, exit code) applies to
    throughput trajectories unchanged.  Suite-level entries carrying
    ``sweep_wall_clock_seconds`` (the experiments-sweep wall clock
    written by ``repro.reports run``) become lower-is-better metrics,
    so the parallel executor's end-to-end time is gated the same way.
    Any other entry field is a record, not a metric.
    """
    manifest = data.get("manifest", {}) or {}
    metrics = []
    for entry in data.get("results", []):
        if not isinstance(entry, dict) or not entry.get("name"):
            continue
        if "keys_per_second" in entry:
            metrics.append(
                Metric(
                    name=f"{entry['name']}.keys_per_second",
                    value=float(entry["keys_per_second"]),
                    direction="higher",
                )
            )
        if "sweep_wall_clock_seconds" in entry:
            # The job count is part of the metric name: wall clocks are
            # only like-for-like at the same fan-out width, so runs at
            # different widths diff as added/removed (informational)
            # instead of as regressions.
            name = f"{entry['name']}.sweep_wall_clock_seconds"
            if entry.get("jobs") is not None:
                name = f"{name}@jobs={int(entry['jobs'])}"
            metrics.append(
                Metric(
                    name=name,
                    value=float(entry["sweep_wall_clock_seconds"]),
                    direction="lower",
                )
            )
    return ExperimentArtifact(
        experiment=f"bench-{data.get('suite', 'unknown')}",
        paper_section="",
        manifest=RunManifest(
            seed=0,
            scale=1.0,
            git_sha=str(manifest.get("git_sha", "unknown")) or "unknown",
            created_utc=str(manifest.get("created_utc", "unknown")) or "unknown",
        ),
        records=[e for e in data.get("results", []) if isinstance(e, dict)],
        metrics=metrics,
    )


def load_artifact_set(path) -> Dict[str, ExperimentArtifact]:
    """Load an artifact set: a directory, artifact file, or bench snapshot."""
    path = Path(path)
    if path.is_dir():
        return load_artifacts(path)
    if not path.exists():
        raise SchemaError(f"artifact path {path} does not exist")
    try:
        kind = json.loads(path.read_text()).get("kind")
    except (ValueError, AttributeError):
        kind = None
    if kind == BENCH_KIND:
        from repro.reports.bench import load_bench_snapshot

        artifact = bench_snapshot_artifact(load_bench_snapshot(path))
        return {artifact.experiment: artifact}
    artifact = load_artifact(path)
    return {artifact.experiment: artifact}
