"""The unified chunked execution core.

Every replay path of this reproduction -- the single- and multi-source
frequency simulations of the paper's Section V (Q1-Q3) and the
discrete-event DSPE cluster (:mod:`repro.dspe`) -- executes through
this package:

* :mod:`repro.core.chunks` -- stream chunking and key encoding
  (non-integer keys are factorised to int64 ids so hashing is paid
  once per *distinct* key);
* :mod:`repro.core.metrics` -- streaming checkpoint/imbalance
  accumulation, so replays never need the full assignment array, plus
  the batch balance metrics (imbalance, routing overlap, partial
  states);
* :mod:`repro.core.engine` -- the chunked replay engine, its one
  :class:`~repro.core.engine.ReplayResult`, the multi-source PKG
  entry point :func:`~repro.core.engine.simulate_multisource_pkg`
  (and the discrete-event loop the DSPE cluster runs on);
* :mod:`repro.core.parallel` -- the deterministic multi-process sweep
  executor (order-preserving :func:`~repro.core.parallel.parallel_map`
  plus the shared-memory materialized stream cache) that experiment
  grids fan out on.

Stateless partitioners vectorise whole chunks; stateful ones run a
precomputed-hash chunk loop whose per-key work is an argmin over d
candidate loads -- accelerated by the optional C kernels in
:mod:`repro._native` when a compiler is available.
"""

from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    ArrayChunkSource,
    ChunkSource,
    EncodedKeys,
    counting_scatter,
    encode_keys,
    factorize,
    hashed_buckets,
    hashed_choices,
    iter_chunks,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.engine import (
    EventLoop,
    ReplayResult,
    replay_interleaved,
    replay_per_source,
    replay_stream,
    route_chunked,
)
from repro.core.metrics import StreamingLoadSeries, checkpoint_positions
from repro.core.parallel import (
    dataset_stream_cached,
    edge_stream_cached,
    materialized_stream,
    parallel_map,
    resolve_jobs,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ArrayChunkSource",
    "ChunkSource",
    "EncodedKeys",
    "counting_scatter",
    "encode_keys",
    "factorize",
    "hashed_buckets",
    "hashed_choices",
    "iter_chunks",
    "iter_keyed_chunks",
    "stream_length",
    "EventLoop",
    "ReplayResult",
    "replay_interleaved",
    "replay_per_source",
    "replay_stream",
    "route_chunked",
    "StreamingLoadSeries",
    "checkpoint_positions",
    "dataset_stream_cached",
    "edge_stream_cached",
    "materialized_stream",
    "parallel_map",
    "resolve_jobs",
]
