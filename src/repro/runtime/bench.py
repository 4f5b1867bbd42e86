"""End-to-end runtime benchmark: messages/s and p99 sojourn per scheme.

Where :func:`repro.reports.bench.bench_partitioners` times *routing*
alone (keys/s through ``route_chunk``), :func:`bench_throughput_e2e`
times the whole sharded pipeline: route in the source, cross a ring,
get processed by a worker.  Entries land in the same
``BENCH_partitioners.json`` trajectory under ``<scheme>@e2e`` names,
each carrying ``e2e_messages_per_second`` (higher is better), the
per-stage wall breakdown (``route_seconds`` / ``scatter_seconds`` /
``flush_stall_seconds`` / ``drain_seconds``), the
``transport_overhead_ratio`` (source wall over pure routing wall --
the tracked "transport tax", lower is better) and ``p99_sojourn_seconds``
(lower is better) -- all wired into the direction-aware diff gate in
:mod:`repro.reports.diffing`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.engine import RuntimeConfig, RuntimeResult, run_runtime

__all__ = ["DEFAULT_E2E_SCHEMES", "bench_throughput_e2e", "e2e_entry"]

#: the paper's headline schemes plus the queueing-layer baseline.
DEFAULT_E2E_SCHEMES = ("pkg", "kg", "sg", "jbsq")


def e2e_entry(
    scheme: str, result: RuntimeResult, streaming: bool = False
) -> Dict[str, Any]:
    """One ``<scheme>@e2e`` bench entry from a runtime result."""
    return {
        "name": f"{scheme}@e2e",
        "e2e_messages_per_second": result.messages_per_second,
        "p99_sojourn_seconds": result.p99_sojourn(),
        "duration_seconds": result.wall_seconds,
        # One "<stage>_seconds" entry per stage of the wall clock.
        **{
            f"{stage}_seconds": seconds
            for stage, seconds in result.stage_seconds.items()
        },
        "transport_overhead_ratio": result.transport_overhead_ratio,
        "flushes": result.flushes,
        "num_messages": result.num_messages,
        "num_workers": result.num_workers,
        "mode": result.mode,
        "policy": result.policy,
        "dropped": result.dropped,
        "streaming": bool(streaming),
        "status": result.status,
        "lost": result.lost,
        "restarts": result.restarts,
        "stall_timeouts": result.stall_timeouts,
    }


def bench_throughput_e2e(
    schemes: Sequence[str] = DEFAULT_E2E_SCHEMES,
    num_messages: int = 50_000,
    num_workers: int = 4,
    seed: int = 42,
    dataset: str = "WP",
    config: Optional[RuntimeConfig] = None,
    streaming: bool = False,
) -> List[Dict]:
    """Run one fixed stream through the runtime per scheme and time it.

    Returns bench entries for :func:`repro.reports.bench.
    write_bench_snapshot` / ``merge_bench_results``.  The recorded
    ``mode`` matters when reading trajectories: simulated-mode numbers
    from a 1-core container are not comparable to process-mode numbers
    from a real host, so the entry carries it alongside the values.
    With ``streaming=True`` the keys are generated chunk-wise by the
    dataset's :class:`~repro.core.chunks.ChunkSource` (byte-identical
    stream, bounded memory) instead of materialised up front.
    """
    from repro.api import make_partitioner
    from repro.streams.datasets import get_dataset

    config = config or RuntimeConfig()
    spec = get_dataset(dataset)
    # One stream for every scheme: a ChunkSource re-iterates byte-
    # identically (chunks() starts a fresh pass), so both forms are
    # safely shared across schemes.
    keys = (
        spec.chunk_source(num_messages, seed=seed)
        if streaming
        else spec.stream(num_messages, seed=seed)
    )
    results = []
    for scheme in schemes:
        partitioner = make_partitioner(scheme, num_workers, seed=seed)
        result = run_runtime(keys, partitioner, config)
        results.append(e2e_entry(scheme, result, streaming=streaming))
    return results
