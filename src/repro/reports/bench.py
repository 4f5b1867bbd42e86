"""BENCH_*.json snapshots: the repo's perf trajectory.

Two suites, both written at the repo root so every PR's numbers are one
``git log -p BENCH_partitioners.json`` away:

* ``BENCH_partitioners.json`` -- raw routing throughput (keys/s) of
  every registered scheme on a fixed WP stream, measured by
  :func:`bench_partitioners` (also exposed as
  ``python -m repro.reports bench``);
* ``BENCH_experiments.json`` -- wall-clock duration of each experiment
  harness, recorded by ``python -m repro.reports run``.

Each file has exactly one writer; the pytest-benchmark suite
(``benchmarks/``) times the same harnesses but writes nothing back.
End-to-end runtime throughput and latency are measured by
``perfbench/run.py``, not recorded here.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.reports.schema import (
    BENCH_KIND,
    SCHEMA_VERSION,
    SchemaError,
    git_sha,
    jsonify,
)

__all__ = [
    "bench_partitioners",
    "write_bench_snapshot",
    "load_bench_snapshot",
    "repo_root",
]


def repo_root() -> Path:
    """The repository root (``src/repro/reports`` -> three levels up)."""
    return Path(__file__).resolve().parents[3]


def bench_path(suite: str, directory=None) -> Path:
    base = Path(directory) if directory is not None else repo_root()
    return base / f"BENCH_{suite}.json"


def write_bench_snapshot(
    suite: str,
    results: Sequence[Dict],
    directory=None,
    created_utc: Optional[str] = None,
) -> Path:
    """Write ``BENCH_<suite>.json`` with provenance and result entries.

    ``results`` is a list of dicts; each must at least carry ``name``.
    """
    import repro

    for entry in results:
        if not isinstance(entry, dict) or not entry.get("name"):
            raise SchemaError(f"bench result entries need a 'name': {entry!r}")
    if created_utc is None:
        from repro.reports.pipeline import utc_now_iso

        created_utc = utc_now_iso()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "suite": suite,
        "source": "repro.reports",
        "manifest": {
            "git_sha": git_sha(),
            "created_utc": created_utc,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "repro_version": repro.__version__,
        },
        "results": jsonify(sorted(results, key=lambda e: e["name"])),
    }
    path = bench_path(suite, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise SchemaError(
            f"bench suite {suite!r} contains non-finite values: {exc}"
        ) from exc
    path.write_text(text + "\n")
    return path


def load_bench_snapshot(path) -> Dict:
    """Load and sanity-check a BENCH_*.json snapshot."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != BENCH_KIND:
        raise SchemaError(f"{path}: not a bench snapshot")
    if data.get("schema_version", 0) > SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema_version newer than supported")
    return data


def bench_partitioners(
    num_messages: int = 200_000,
    num_workers: int = 10,
    seed: int = 42,
    dataset: str = "WP",
    schemes: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Route one fixed stream through every scheme and time it.

    Streams are routed through the chunked execution core
    (:func:`repro.core.engine.route_chunked`), i.e. the same path the
    simulations replay on.  Returns bench result entries (``name``,
    ``keys_per_second``, ``duration_seconds``, ``num_messages``)
    suitable for :func:`write_bench_snapshot`.
    """
    from repro.api import available_schemes, make_partitioner
    from repro.core.engine import route_chunked
    from repro.streams.datasets import get_dataset

    keys = get_dataset(dataset).stream(num_messages, seed=seed)
    results = []
    for scheme in schemes if schemes is not None else available_schemes():
        partitioner = make_partitioner(scheme, num_workers, seed=seed)
        start = time.perf_counter()
        route_chunked(keys, partitioner)
        duration = time.perf_counter() - start
        results.append(
            {
                "name": scheme,
                "keys_per_second": keys.size / duration if duration > 0 else 0.0,
                "duration_seconds": duration,
                "num_messages": int(keys.size),
                "num_workers": num_workers,
            }
        )
    return results
