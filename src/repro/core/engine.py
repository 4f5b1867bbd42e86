"""The unified chunked execution engine (and the discrete-event loop).

One replay implementation for every path in the repo, behind the
paper's Section V simulations (Q1-Q3):

* :func:`replay_stream` -- single partitioner, one pass;
* :func:`replay_per_source` -- S independent per-source partitioner
  instances merged back into arrival order;
* :func:`replay_interleaved` -- S sources sharing the paper's
  local/global/probing load-estimation modes over one precomputed hash
  matrix, with :func:`simulate_multisource_pkg` building that matrix
  for PKG and :func:`assign_sources` splitting the stream over the
  sources;
* :class:`EventLoop` -- the deterministic event heap both worker-queue
  simulators of :mod:`repro.queueing` (the open/closed-loop queues and
  the fig5 word-count cluster) schedule on.

Every replay returns one :class:`ReplayResult`: the true worker loads
and the checkpoint imbalance series ``I(t) = max_i Li(t) - avg_i Li(t)``.

All stream replays drive fixed-size key chunks through
``Partitioner.route_chunk`` and feed a
:class:`~repro.core.metrics.StreamingLoadSeries`, so metrics
bookkeeping exists exactly once.  The sequential inner loops
(Greedy-d argmin, first-sight binding, interleaved multi-source
routing) dispatch to the C kernels of :mod:`repro._native` when a
compiler is available and to the pure-Python implementations below
otherwise; both are decision-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._native import get_kernels
from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    KeyStream,
    StreamLike,
    as_key_array,
    hashed_choices,
    iter_chunks,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.metrics import StreamingLoadSeries
from repro.hashing import HashFamily, HashFunction, canonical_keys

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = [
    "EventLoop",
    "ReplayResult",
    "replay_stream",
    "replay_per_source",
    "replay_interleaved",
    "assign_sources",
    "simulate_multisource_pkg",
    "route_chunked",
    "greedy_route_chunk",
    "hashed_greedy_route_chunk",
    "least_loaded_chunk",
    "bind_route_chunk",
    "InterleavedRouter",
]


# ---------------------------------------------------------------------------
# Chunk kernels: native dispatch + pure-Python fallbacks
# ---------------------------------------------------------------------------

def greedy_route_chunk(choices: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Route one chunk with the Greedy-d process, updating ``loads``.

    ``choices`` is the chunk's ``(m, d)`` candidate matrix; each message
    goes to its least-loaded candidate (ties to the earliest), and the
    chosen worker's entry in ``loads`` (int64, mutated in place) is
    incremented before the next message decides.
    """
    choices = np.ascontiguousarray(choices, dtype=np.int64)
    m, d = choices.shape
    out = np.empty(m, dtype=np.int64)
    kernels = get_kernels()
    if kernels is not None:
        kernels.greedy_route(choices, loads, out)
        return out
    view = loads.tolist()
    if d == 2:
        col1, col2 = choices[:, 0].tolist(), choices[:, 1].tolist()
        for i in range(m):
            a, b = col1[i], col2[i]
            w = a if view[a] <= view[b] else b
            view[w] += 1
            out[i] = w
    else:
        cols = [choices[:, j].tolist() for j in range(d)]
        for i in range(m):
            best = cols[0][i]
            best_load = view[best]
            for j in range(1, d):
                c = cols[j][i]
                if view[c] < best_load:
                    best, best_load = c, view[c]
            view[best] += 1
            out[i] = best
    loads[:] = view
    return out


def hashed_greedy_route_chunk(
    family: HashFamily, keys: KeyStream, loads: np.ndarray
) -> np.ndarray:
    """Hash ``keys`` with ``family`` and route them Greedy-d over ``loads``.

    The candidates of each key are its ``family`` buckets among the
    ``loads.size`` workers.  Integer keys take the fused native kernel
    when it is available: hash, choose and count in one pass, without
    materialising the ``(m, d)`` candidate matrix.  Any other keys (or
    ``REPRO_NO_NATIVE``) go through :func:`hashed_choices` and
    :func:`greedy_route_chunk`; both paths are decision-identical.
    """
    arr = canonical_keys(as_key_array(keys))
    kernels = get_kernels()
    if kernels is None or not np.issubdtype(arr.dtype, np.integer):
        return greedy_route_chunk(hashed_choices(family, arr, loads.size), loads)
    # int64 has the bit pattern the numpy path's astype(np.uint64) hashes.
    keys64 = np.ascontiguousarray(arr, dtype=np.int64)
    out = np.empty(keys64.size, dtype=np.int64)
    kernels.hash_greedy_route(keys64, family.mixes, loads, out)
    return out


def least_loaded_chunk(m: int, loads: np.ndarray) -> np.ndarray:
    """Route ``m`` messages to the globally least-loaded worker each."""
    out = np.empty(int(m), dtype=np.int64)
    kernels = get_kernels()
    if kernels is not None:
        kernels.least_loaded(int(m), loads, out)
        return out
    view = loads.tolist()
    num_workers = len(view)
    for i in range(int(m)):
        best = 0
        best_load = view[0]
        for w in range(1, num_workers):
            if view[w] < best_load:
                best, best_load = w, view[w]
        view[best] += 1
        out[i] = best
    loads[:] = view
    return out


def bind_route_chunk(
    codes: np.ndarray,
    choices: Optional[np.ndarray],
    num_workers: int,
    table: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """First-sight binding over one chunk (PoTC / On-Greedy inner loop).

    ``codes`` are dense int64 key ids indexing ``table`` (entry < 0 =
    unbound).  A bound key keeps its worker; an unbound one binds to the
    least-loaded of its row in ``choices`` (or of all ``num_workers``
    when ``choices`` is None).  ``loads`` is charged per message.
    ``table`` and ``loads`` are mutated in place.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    m = codes.size
    out = np.empty(m, dtype=np.int64)
    if choices is not None:
        choices = np.ascontiguousarray(choices, dtype=np.int64)
    kernels = get_kernels()
    if kernels is not None:
        kernels.bind_route(codes, choices, int(num_workers), table, loads, out)
        return out
    load_list = loads.tolist()
    table_list = table.tolist()
    code_list = codes.tolist()
    cols = (
        [choices[:, j].tolist() for j in range(choices.shape[1])]
        if choices is not None
        else None
    )
    for i in range(m):
        code = code_list[i]
        worker = table_list[code]
        if worker < 0:
            if cols is not None:
                worker = cols[0][i]
                best_load = load_list[worker]
                for col in cols[1:]:
                    c = col[i]
                    if load_list[c] < best_load:
                        worker, best_load = c, load_list[c]
            else:
                worker = 0
                best_load = load_list[0]
                for w in range(1, int(num_workers)):
                    if load_list[w] < best_load:
                        worker, best_load = w, load_list[w]
            table_list[code] = worker
        load_list[worker] += 1
        out[i] = worker
    loads[:] = load_list
    table[:] = table_list
    return out


class InterleavedRouter:
    """Chunk-resumable multi-source Greedy-d routing with shared modes.

    Holds the cross-chunk state of the paper's estimation modes: the
    true load vector, each source's private view (local/probing), and
    each source's probe clock (probing).  :meth:`route` consumes one
    chunk of precomputed candidates and returns its assignments.
    """

    MODES = ("local", "global", "probing")

    def __init__(
        self,
        num_sources: int,
        num_workers: int,
        mode: str = "local",
        probe_period: float = 0.0,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if mode == "probing" and probe_period <= 0:
            raise ValueError("probing mode requires a positive probe_period")
        self.mode = mode
        self.num_sources = int(num_sources)
        self.num_workers = int(num_workers)
        self.probe_period = float(probe_period)
        self.true_loads = np.zeros(num_workers, dtype=np.int64)
        self.views: Optional[np.ndarray] = (
            None
            if mode == "global"
            else np.zeros((num_sources, num_workers), dtype=np.int64)
        )
        self.next_probe: Optional[np.ndarray] = (
            np.full(num_sources, probe_period, dtype=np.float64)
            if mode == "probing"
            else None
        )

    def route(
        self,
        choices: np.ndarray,
        sources: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Route one chunk; ``times`` is required in probing mode."""
        choices = np.ascontiguousarray(choices, dtype=np.int64)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        m, d = choices.shape
        if m and (
            int(sources.min()) < 0 or int(sources.max()) >= self.num_sources
        ):
            # Out-of-range ids would index outside the views matrix --
            # in the C kernel that is an out-of-bounds write, so reject
            # before dispatch rather than corrupt memory.
            raise ValueError(
                f"source ids must lie in [0, {self.num_sources}), got "
                f"[{int(sources.min())}, {int(sources.max())}]"
            )
        if self.mode == "probing":
            if times is None:
                raise ValueError("probing mode needs per-message times")
            times = np.ascontiguousarray(times, dtype=np.float64)
        else:
            times = None
        out = np.empty(m, dtype=np.int64)
        kernels = get_kernels()
        if kernels is not None:
            kernels.interleaved_route(
                choices,
                sources,
                self.num_workers,
                self.views,
                self.true_loads,
                times,
                self.probe_period,
                self.next_probe,
                out,
            )
            return out
        self._route_python(choices, sources, times, out)
        return out

    def _route_python(
        self,
        choices: np.ndarray,
        sources: np.ndarray,
        times: Optional[np.ndarray],
        out: np.ndarray,
    ) -> None:
        m, d = choices.shape
        true_loads = self.true_loads.tolist()
        if self.views is None:
            view_rows = None
        else:
            view_rows = [row.tolist() for row in self.views]
        probe_clock = (
            self.next_probe.tolist() if self.next_probe is not None else None
        )
        time_list = times.tolist() if times is not None else None
        if time_list is not None:
            # probing mode: route() guarantees both exist alongside times.
            assert probe_clock is not None and view_rows is not None
        src = sources.tolist()
        cols = [choices[:, j].tolist() for j in range(d)]
        for i in range(m):
            s = src[i]
            view = view_rows[s] if view_rows is not None else true_loads
            if time_list is not None and time_list[i] >= probe_clock[s]:
                view = view_rows[s] = true_loads.copy()
                while probe_clock[s] <= time_list[i]:
                    probe_clock[s] += self.probe_period
            best = cols[0][i]
            best_load = view[best]
            for j in range(1, d):
                c = cols[j][i]
                if view[c] < best_load:
                    best, best_load = c, view[c]
            view[best] += 1
            if view is not true_loads:
                true_loads[best] += 1
            out[i] = best
        self.true_loads[:] = true_loads
        if view_rows is not None:
            assert self.views is not None
            for s, row in enumerate(view_rows):
                self.views[s] = row
        if probe_clock is not None:
            assert self.next_probe is not None
            self.next_probe[:] = probe_clock


# ---------------------------------------------------------------------------
# Replay: the one engine behind every stream path
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Outcome of replaying a stream through a partitioning scheme."""

    scheme: str
    num_workers: int
    num_sources: int
    num_messages: int
    final_loads: np.ndarray
    checkpoint_positions: np.ndarray
    imbalance_series: np.ndarray
    #: per-message worker assignment (kept only on request; large)
    assignments: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def final_imbalance(self) -> float:
        """``I(m)`` at the end of the stream."""
        return float(self.final_loads.max() - self.final_loads.mean())

    @property
    def average_imbalance(self) -> float:
        """Mean I(t) over checkpoints -- the Table II statistic."""
        if self.imbalance_series.size == 0:
            return 0.0
        return float(self.imbalance_series.mean())

    @property
    def average_imbalance_fraction(self) -> float:
        """Average imbalance / total messages -- the Figure 2 y-axis."""
        if self.num_messages == 0:
            return 0.0
        return self.average_imbalance / self.num_messages

    @property
    def final_imbalance_fraction(self) -> float:
        if self.num_messages == 0:
            return 0.0
        return self.final_imbalance / self.num_messages

    @property
    def imbalance_fraction_series(self) -> np.ndarray:
        """I(t) normalised by messages-so-far (the Figure 3 y-axis)."""
        positions = np.maximum(self.checkpoint_positions, 1)
        return self.imbalance_series / positions

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.scheme}: W={self.num_workers} S={self.num_sources} "
            f"m={self.num_messages} avg I={self.average_imbalance:.2f} "
            f"(fraction {self.average_imbalance_fraction:.3e})"
        )


def _as_times(
    timestamps: Optional[Sequence[float]], num_messages: int
) -> Optional[np.ndarray]:
    if timestamps is None:
        return None
    times = np.asarray(timestamps, dtype=np.float64)
    if times.size != num_messages:
        raise ValueError(
            f"timestamps has {times.size} entries for {num_messages} messages"
        )
    return times


def _source_ids(
    source_ids: Optional[np.ndarray], num_messages: int, num_sources: int
) -> np.ndarray:
    """Per-message source ids: round-robin by default, else validated."""
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    if source_ids is None:
        return np.arange(num_messages, dtype=np.int64) % num_sources
    source_ids = np.asarray(source_ids, dtype=np.int64)
    if source_ids.size != num_messages:
        raise ValueError("source_ids must have one entry per message")
    if num_messages and (
        int(source_ids.min()) < 0 or int(source_ids.max()) >= num_sources
    ):
        raise ValueError("source_ids references a source outside [0, S)")
    return source_ids


def assign_sources(
    num_messages: int,
    num_sources: int,
    source_keys: Optional[np.ndarray] = None,
    seed: int = 0,
) -> np.ndarray:
    """Which source PEI handles each message.

    With ``source_keys=None`` messages are spread round-robin (shuffle
    grouping upstream, the paper's default: "read by multiple
    independent sources via shuffle grouping").  Otherwise messages are
    key-grouped on ``source_keys`` -- the skewed split of Q3, where the
    source key is the graph edge's source vertex.
    """
    if source_keys is None:
        return _source_ids(None, num_messages, num_sources)
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    source_keys = np.asarray(source_keys)
    if source_keys.size != num_messages:
        raise ValueError("source_keys must have one entry per message")
    hasher = HashFunction(seed=seed ^ 0x5CE5)
    if np.issubdtype(source_keys.dtype, np.integer):
        return hasher.bucket_array(source_keys, num_sources)
    return np.fromiter(
        (hasher.bucket(k, num_sources) for k in source_keys),
        dtype=np.int64,
        count=num_messages,
    )


def route_chunked(
    keys: StreamLike,
    partitioner: "Partitioner",
    timestamps: Optional[Sequence[float]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Full per-message assignments of a stream, routed chunk by chunk.

    ``keys`` is a materialised array or a bounded-memory
    :class:`~repro.core.chunks.ChunkSource`; since ``route_chunk`` is
    chunk-size invariant for every registered scheme, both produce the
    same assignments for the same underlying stream.
    """
    m = stream_length(keys)
    times = _as_times(timestamps, m)
    out = np.empty(m, dtype=np.int64)
    for start, stop, key_chunk, time_chunk in iter_keyed_chunks(
        keys, chunk_size, times
    ):
        out[start:stop] = partitioner.route_chunk(key_chunk, time_chunk)
    return out


def replay_stream(
    keys: StreamLike,
    partitioner: "Partitioner",
    *,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_assignments: bool = False,
) -> ReplayResult:
    """Replay a stream through one partitioner, measuring balance.

    Routes fixed-size chunks through ``partitioner.route_chunk`` and
    accumulates the checkpoint imbalance series as it goes; the full
    assignment array is only materialised on ``keep_assignments``.
    ``keys`` may be a materialised array or a
    :class:`~repro.core.chunks.ChunkSource` (one fresh pass; a source
    iterates on its own chunk grid).
    """
    m = stream_length(keys)
    times = _as_times(timestamps, m)
    series = StreamingLoadSeries(m, partitioner.num_workers, num_checkpoints)
    assignments = np.empty(m, dtype=np.int64) if keep_assignments else None
    for start, stop, key_chunk, time_chunk in iter_keyed_chunks(
        keys, chunk_size, times
    ):
        chunk = partitioner.route_chunk(key_chunk, time_chunk)
        series.update(chunk)
        if assignments is not None:
            assignments[start:stop] = chunk
    positions, imbalances = series.finish()
    return ReplayResult(
        scheme=partitioner.name,
        num_workers=partitioner.num_workers,
        num_sources=1,
        num_messages=m,
        final_loads=series.loads.copy(),
        checkpoint_positions=positions,
        imbalance_series=imbalances,
        assignments=assignments,
    )


def replay_per_source(
    keys: KeyStream,
    partitioner_factory: Callable[[int], "Partitioner"],
    num_workers: int,
    *,
    num_sources: int = 1,
    source_ids: Optional[np.ndarray] = None,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_assignments: bool = False,
) -> Tuple[ReplayResult, List["Partitioner"]]:
    """Replay with one independent partitioner instance per source.

    ``partitioner_factory(source_index)`` builds each instance.  Because
    per-source state is private (no shared estimators), routing each
    source's sub-stream in one chunked pass and merging back into
    arrival order is decision-equivalent to interleaving.  Returns the
    result and the built instances (for memory accounting).
    """
    keys = as_key_array(keys)
    m = int(keys.size)
    times = _as_times(timestamps, m)
    source_ids = _source_ids(source_ids, m, num_sources)

    workers = np.empty(m, dtype=np.int64)
    partitioners: List["Partitioner"] = []
    for s in range(int(num_sources)):
        partitioner = partitioner_factory(s)
        partitioners.append(partitioner)
        mask = source_ids == s
        workers[mask] = route_chunked(
            keys[mask],
            partitioner,
            times[mask] if times is not None else None,
            chunk_size,
        )

    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    for start, stop in iter_chunks(m, chunk_size):
        series.update(workers[start:stop])
    positions, imbalances = series.finish()
    return (
        ReplayResult(
            scheme=partitioners[0].name,
            num_workers=int(num_workers),
            num_sources=int(num_sources),
            num_messages=m,
            final_loads=series.loads.copy(),
            checkpoint_positions=positions,
            imbalance_series=imbalances,
            assignments=workers if keep_assignments else None,
        ),
        partitioners,
    )


def replay_interleaved(
    choice_matrix: np.ndarray,
    source_ids: np.ndarray,
    num_sources: int,
    num_workers: int,
    *,
    mode: str = "local",
    probe_period: float = 0.0,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_assignments: bool = False,
) -> ReplayResult:
    """Replay S interleaved sources sharing a load-estimation mode.

    ``choice_matrix`` is the precomputed ``(m, d)`` candidate matrix;
    decisions interleave in arrival order, so local views, the shared
    true loads, and probe resyncs evolve exactly as in the paper's
    multi-source setting.  In probing mode ``timestamps`` defaults to
    the message index.  The result is named after the mode: ``L<S>``
    (local), ``G`` (global) or ``L<S>P`` (probing).
    """
    choice_matrix = np.ascontiguousarray(choice_matrix, dtype=np.int64)
    m = int(choice_matrix.shape[0])
    if m and (
        int(choice_matrix.min()) < 0
        or int(choice_matrix.max()) >= num_workers
    ):
        raise ValueError(
            f"choice_matrix entries must lie in [0, {num_workers})"
        )
    source_ids = np.asarray(source_ids, dtype=np.int64)
    if source_ids.size != m:
        raise ValueError("source_ids must have one entry per message")
    times = _as_times(timestamps, m)
    if mode == "probing" and times is None:
        times = np.arange(m, dtype=np.float64)

    router = InterleavedRouter(num_sources, num_workers, mode, probe_period)
    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    assignments = np.empty(m, dtype=np.int64) if keep_assignments else None
    for start, stop in iter_chunks(m, chunk_size):
        chunk = router.route(
            choice_matrix[start:stop],
            source_ids[start:stop],
            times[start:stop] if times is not None else None,
        )
        series.update(chunk)
        if assignments is not None:
            assignments[start:stop] = chunk
    positions, imbalances = series.finish()
    return ReplayResult(
        scheme={
            "local": f"L{num_sources}",
            "global": "G",
            "probing": f"L{num_sources}P",
        }[mode],
        num_workers=int(num_workers),
        num_sources=int(num_sources),
        num_messages=m,
        final_loads=series.loads.copy(),
        checkpoint_positions=positions,
        imbalance_series=imbalances,
        assignments=assignments,
    )


def simulate_multisource_pkg(
    keys: Sequence,
    num_workers: int,
    num_sources: int = 1,
    mode: str = "local",
    num_choices: int = 2,
    probe_period: float = 0.0,
    timestamps: Optional[np.ndarray] = None,
    source_ids: Optional[np.ndarray] = None,
    num_checkpoints: int = 100,
    seed: int = 0,
    keep_assignments: bool = False,
    scheme_name: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ReplayResult:
    """PKG with S sources under a chosen load-estimation mode.

    Parameters
    ----------
    mode:
        ``"local"`` (paper's L), ``"global"`` (G, shared oracle), or
        ``"probing"`` (LP: local + resync to true loads every
        ``probe_period`` time units).
    timestamps:
        Message times; required for probing (defaults to message index).
    source_ids:
        Per-message source assignment; defaults to round-robin.
    scheme_name:
        Label of the result; defaults to the mode's name (see
        :func:`replay_interleaved`).

    Returns a :class:`ReplayResult` whose loads are the *true* worker
    loads accumulated across all sources.
    """
    keys = np.asarray(keys)
    source_ids = _source_ids(source_ids, int(keys.size), num_sources)
    family = HashFamily(size=num_choices, seed=seed)
    replay = replay_interleaved(
        hashed_choices(family, keys, num_workers),
        source_ids,
        num_sources,
        num_workers,
        mode=mode,
        probe_period=probe_period,
        timestamps=timestamps,
        num_checkpoints=num_checkpoints,
        chunk_size=chunk_size,
        keep_assignments=keep_assignments,
    )
    if scheme_name is not None:
        replay.scheme = scheme_name
    return replay


# ---------------------------------------------------------------------------
# The discrete-event loop (the worker-queue simulators' clock)
# ---------------------------------------------------------------------------

class EventLoop:
    """A minimal, deterministic discrete-event loop.

    Events are (time, sequence, callback) triples in a binary heap;
    ties in time break by scheduling order, so runs are exactly
    reproducible.  It is the one clock of :mod:`repro.queueing`: the
    open- and closed-loop queue simulators and the word-count cluster
    (:func:`repro.queueing.cluster.simulate_wordcount`) all schedule
    closures on it.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Process events up to ``end_time``; returns events processed.

        Events scheduled exactly at ``end_time`` are processed.  The
        clock is left at ``end_time`` (or at the last event if the heap
        drains first).  When ``max_events`` stops the run early --
        eligible events still pending -- the clock stays at the last
        processed event, so a subsequent ``run_until`` resumes exactly
        where this one stopped instead of declaring the skipped events
        to be in the past.  ``max_events=0`` processes nothing.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            if max_events is not None and processed >= max_events:
                self._processed += processed
                return processed
            time, _seq, callback = heapq.heappop(heap)
            self.now = time
            callback()
            processed += 1
        if self.now < end_time:
            self.now = end_time
        self._processed += processed
        return processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the heap completely; returns events processed.

        Unlike :meth:`run_until` there is no target time: the clock is
        left at the last processed event (events may schedule further
        events, all of which run).  The open-loop queueing simulator
        (:mod:`repro.queueing`) uses this to run an arrival schedule to
        completion without inventing an artificial horizon.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        processed = 0
        heap = self._heap
        while heap:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, callback = heapq.heappop(heap)
            self.now = time
            callback()
            processed += 1
        self._processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def total_events_processed(self) -> int:
        return self._processed
