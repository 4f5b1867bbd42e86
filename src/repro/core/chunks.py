"""Stream chunking, streaming sources, and key encoding for the core.

Four jobs:

* **Chunking** -- :func:`iter_chunks` slices a stream into fixed-size
  ``[start, stop)`` windows so the engine can route, measure, and
  discard one window at a time instead of materialising per-message
  state for the whole stream.

* **Streaming sources** -- :class:`ChunkSource` generates the key
  stream *chunk-wise* instead of materialising it, so billion-message
  replays run in bounded memory.  :func:`iter_keyed_chunks` lets every
  engine accept a materialised array and a streaming source through
  one loop.

* **Scatter** -- :func:`counting_scatter` groups one routed chunk's
  message positions by destination worker with a *stable* counting
  sort (``np.bincount`` + cumulative offsets, O(n + W)) instead of a
  comparison sort; the grouped order is byte-identical to
  ``np.argsort(dest, kind="stable")`` by construction.

* **Encoding** -- :func:`encode_keys` factorises an arbitrary key
  array into dense ``int64`` codes plus the distinct-key table.  Keyed
  streams are heavily skewed (that is the paper's whole premise), so
  hashing each *distinct* key once and gathering through the code
  array turns per-message Python hashing into a per-unique-key cost:
  :func:`hashed_choices` and :func:`hashed_buckets` exploit this for
  string keys while integer keys keep their fully vectorised path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hashing.families import canonical_keys

if TYPE_CHECKING:
    from repro.hashing.families import HashFamily, HashFunction

#: anything accepted as a key stream.
KeyStream = Union[Sequence[Any], np.ndarray]

#: anything accepted by the replay engines: a materialised stream or a
#: bounded-memory chunk source.
StreamLike = Union[KeyStream, "ChunkSource"]

#: Default routing-window size.  Large enough to amortise per-chunk
#: bookkeeping (hash hoisting, metric updates, kernel calls), small
#: enough that a chunk's hash matrix (chunk x d int64) stays cache- and
#: memory-friendly.
DEFAULT_CHUNK_SIZE = 65_536


def iter_chunks(
    num_messages: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` windows covering ``[0, num_messages)``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, int(num_messages), int(chunk_size)):
        yield start, min(start + int(chunk_size), int(num_messages))


class ChunkSource(ABC):
    """A bounded-memory, re-iterable generator of key chunks.

    A source knows its total stream length (``num_messages``), its
    chunk grid (``chunk_size``) and its randomness (``seed``); the
    keys themselves are produced one chunk at a time by
    :meth:`next_chunk`, which draws from an explicit
    ``numpy.random.Generator`` (REPRO001: randomness is never
    implicit).  Calling :meth:`chunks` starts a *fresh pass* -- a new
    ``default_rng(seed)`` and a rewound position -- so two iterations
    of the same source are byte-identical, which is what lets
    ``python -m repro.runtime --verify`` replay the exact stream the
    sharded runtime consumed without materialising it twice.

    Subclasses implement :meth:`sample_chunk`; everything else
    (position tracking, trimming the final partial chunk, validation)
    lives here.
    """

    def __init__(
        self,
        num_messages: int,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if num_messages < 0:
            raise ValueError(f"num_messages must be >= 0, got {num_messages}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.num_messages = int(num_messages)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        self._emitted = 0

    @abstractmethod
    def sample_chunk(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Produce the next ``size`` keys of the stream from ``rng``."""

    def next_chunk(self, rng: np.random.Generator) -> np.ndarray:
        """The next chunk of the current pass (empty array = exhausted)."""
        n = min(self.chunk_size, self.num_messages - self._emitted)
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        chunk = as_key_array(self.sample_chunk(n, rng))
        if int(chunk.size) != n:
            raise ValueError(
                f"{type(self).__name__}.sample_chunk returned {chunk.size} "
                f"keys where {n} were requested"
            )
        self._emitted += n
        return chunk

    def reset(self) -> None:
        """Rewind to the start of the stream (next pass re-emits it all)."""
        self._emitted = 0

    def rng(self) -> np.random.Generator:
        """A fresh generator for one pass over the stream."""
        return np.random.default_rng(self.seed)

    def chunks(self) -> Iterator[np.ndarray]:
        """Iterate one full pass over the stream, chunk by chunk."""
        self.reset()
        rng = self.rng()
        while True:
            chunk = self.next_chunk(rng)
            if chunk.size == 0:
                return
            yield chunk

    def materialize(self) -> np.ndarray:
        """The whole stream as one array (tests / small streams only)."""
        parts = list(self.chunks())
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_messages={self.num_messages}, "
            f"seed={self.seed}, chunk_size={self.chunk_size})"
        )


class ArrayChunkSource(ChunkSource):
    """A :class:`ChunkSource` view over an already-materialised stream.

    Used where chunk-wise generation is impossible (drifting streams
    whose rng consumption order is inherently whole-stream, recorded
    traces) but the streaming engines still want one input type.
    """

    def __init__(
        self,
        keys: KeyStream,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self._keys = as_key_array(keys)
        super().__init__(int(self._keys.size), seed=seed, chunk_size=chunk_size)

    def sample_chunk(self, size: int, rng: np.random.Generator) -> np.ndarray:
        start = self._emitted
        return self._keys[start : start + size]


def stream_length(keys: StreamLike) -> int:
    """Total number of messages in an array or a :class:`ChunkSource`."""
    if isinstance(keys, ChunkSource):
        return keys.num_messages
    return int(as_key_array(keys).size)


def iter_keyed_chunks(
    keys: StreamLike,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    times: Optional[np.ndarray] = None,
) -> Iterator[Tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
    """Yield ``(start, stop, key_chunk, time_chunk)`` for any stream input.

    Materialised arrays are sliced on the ``chunk_size`` grid exactly
    as :func:`iter_chunks` does; a :class:`ChunkSource` is iterated on
    its own grid (one fresh pass).  ``times`` is only valid with an
    array input -- sources carry no per-message timestamps.
    """
    if isinstance(keys, ChunkSource):
        if times is not None:
            raise ValueError(
                "per-message timestamps are not supported with a "
                "ChunkSource input"
            )
        start = 0
        for chunk in keys.chunks():
            stop = start + int(chunk.size)
            yield start, stop, chunk, None
            start = stop
        return
    arr = as_key_array(keys)
    for start, stop in iter_chunks(int(arr.size), chunk_size):
        yield (
            start,
            stop,
            arr[start:stop],
            times[start:stop] if times is not None else None,
        )


def counting_scatter(
    dest: np.ndarray, num_buckets: int, base: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable O(n + W) grouping of chunk positions by destination bucket.

    Returns ``(counts, boundaries, grouped)`` where ``counts[w]`` is the
    number of messages routed to bucket ``w``, ``boundaries`` is the
    exclusive prefix sum (``boundaries[w]:boundaries[w+1]`` delimits
    bucket ``w``'s segment), and ``grouped`` holds the message positions
    -- offset by ``base`` -- grouped by bucket *in arrival order*.

    The grouping is a counting sort: one ``np.bincount`` pass for the
    bucket sizes, a cumulative-offset pass for the boundaries, and one
    linear scatter pass (the C kernel when available).  Because the
    scatter walks positions in arrival order and each bucket's cursor
    only moves forward, the result is stable -- byte-identical to
    ``np.argsort(dest, kind="stable") + base``, which is also the
    no-compiler fallback (numpy's stable argsort of int64 is a radix
    sort, so the fallback stays O(n) too).
    """
    from repro._native import get_kernels

    dest = np.ascontiguousarray(dest, dtype=np.int64)
    n = int(dest.size)
    counts = np.bincount(dest, minlength=num_buckets)
    if counts.size > num_buckets:
        raise ValueError(
            f"destination ids must lie in [0, {num_buckets}), got "
            f"{int(dest.max())}"
        )
    boundaries = np.empty(num_buckets + 1, dtype=np.int64)
    boundaries[0] = 0
    np.cumsum(counts, out=boundaries[1:])
    kernels = get_kernels()
    if kernels is not None:
        grouped = np.empty(n, dtype=np.int64)
        cursors = boundaries[:-1].copy()
        kernels.counting_scatter(dest, int(base), cursors, grouped)
        return counts, boundaries, grouped
    order = np.argsort(dest, kind="stable")
    if base:
        order += base
    return counts, boundaries, order


@dataclass(frozen=True)
class EncodedKeys:
    """A key stream factorised to dense int64 codes.

    ``codes[i]`` is the id of message i's key; ``unique`` is the
    distinct-key table such that ``unique[codes[i]]`` is the original
    key, or ``None`` when the stream was already integer-typed (then
    the codes *are* the original keys, not renumbered -- hashes must
    see the true key values).
    """

    codes: np.ndarray
    unique: Optional[np.ndarray]

    @property
    def num_messages(self) -> int:
        return int(self.codes.size)


def as_key_array(keys: KeyStream) -> np.ndarray:
    """Normalise any key sequence to a numpy array (no copy if possible)."""
    arr = np.asarray(keys)
    if arr.ndim != 1 and arr.size > 0:
        raise ValueError(f"key stream must be one-dimensional, got shape {arr.shape}")
    return arr


def factorize(keys: KeyStream) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, unique)`` such that ``unique[codes]`` reproduces ``keys``.

    Unlike :func:`encode_keys` this always renumbers -- integer keys
    included -- so ``codes`` densely index ``unique``.  Used by
    routing-table schemes to turn per-message dict lookups into one
    table fill per distinct key.
    """
    arr = as_key_array(keys)
    unique, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64, copy=False), unique


def encode_keys(keys: KeyStream) -> EncodedKeys:
    """Factorise ``keys`` into int64 codes (identity for integer keys).

    Bool and float keys are integers here too: their
    :func:`~repro.hashing.families.canonical_keys` form, which is what
    the hash functions see per key.
    """
    arr = canonical_keys(as_key_array(keys))
    if np.issubdtype(arr.dtype, np.integer):
        return EncodedKeys(codes=arr.astype(np.int64, copy=False), unique=None)
    unique, inverse = np.unique(arr, return_inverse=True)
    return EncodedKeys(codes=inverse.astype(np.int64, copy=False), unique=unique)


def hashed_choices(
    family: "HashFamily", keys: KeyStream, num_workers: int
) -> np.ndarray:
    """The ``(m, d)`` candidate-worker matrix of a key stream.

    Integer keys use the family's vectorised path; other keys are
    hashed once per distinct key and gathered back through the codes.
    Candidate values are identical to calling ``family.choices`` per
    message (duplicates preserved).
    """
    encoded = encode_keys(keys)
    if encoded.unique is None:
        return family.choice_matrix(encoded.codes, num_workers)
    per_unique = np.empty((encoded.unique.size, len(family)), dtype=np.int64)
    for u, key in enumerate(encoded.unique):
        for j, f in enumerate(family.functions):
            per_unique[u, j] = f(key) % num_workers
    return per_unique[encoded.codes]


def hashed_buckets(
    hash_function: "HashFunction", keys: KeyStream, num_buckets: int
) -> np.ndarray:
    """Vectorised ``hash(key) % num_buckets`` for arbitrary key arrays."""
    encoded = encode_keys(keys)
    if encoded.unique is None:
        return hash_function.bucket_array(encoded.codes, num_buckets)
    per_unique = np.fromiter(
        (hash_function(key) % num_buckets for key in encoded.unique),
        dtype=np.int64,
        count=encoded.unique.size,
    )
    return per_unique[encoded.codes]
