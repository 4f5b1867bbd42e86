"""Seeded hash functions and families of independent hash functions.

A :class:`HashFamily` produces the ``d`` independent hash functions
``H1, ..., Hd : K -> [n]`` required by the Greedy-d process of
Section IV of the paper.  Each member is an independently-seeded 64-bit
hash reduced modulo the number of workers, exactly as in the paper's
``Pt(k) = H1(k) mod W`` formulation for key grouping.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._native import get_kernels
from repro.hashing.murmur import murmur2_64a, splitmix64, splitmix64_array

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _check_bucket_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"bucket count must be >= 1, got {n}")


def _native_choice_matrix(
    keys: np.ndarray, mixes: np.ndarray, n: int
) -> Optional[np.ndarray]:
    """The ``(keys.size, mixes.size)`` bucket matrix from the native
    hash kernel, or None when the kernels are unavailable or the keys
    are not integers (callers then take the numpy ``splitmix64_array``
    path).  The kernel reads the keys as int64: the same bit pattern as
    the numpy path's ``astype(np.uint64)`` for every integer dtype.
    """
    kernels = get_kernels()
    if kernels is None or not np.issubdtype(keys.dtype, np.integer):
        return None
    keys64 = np.ascontiguousarray(keys, dtype=np.int64).reshape(-1)
    out = np.empty((keys64.size, mixes.size), dtype=np.int64)
    kernels.hash_choices(keys64, mixes, int(n), out)
    return out


def canonical_key(key):
    """The value ``key`` is hashed as, on every routing path.

    Booleans become ints, and Python and numpy floats the IEEE-754 bits
    of their float64 value as a signed int (``-0.0`` hashes as ``0.0``);
    anything else is returned unchanged.  :func:`canonical_keys` is the
    array form, so ``route(key)`` and ``route_chunk`` agree on a key
    whatever its type.
    """
    if isinstance(key, (bool, np.bool_)):
        return int(key)
    if isinstance(key, (float, np.floating)):
        return int(np.float64(float(key) + 0.0).view(np.int64))
    return key


def canonical_keys(keys: np.ndarray) -> np.ndarray:
    """:func:`canonical_key` over an array: bool and float arrays become
    int64 (integer and other arrays are returned as they are)."""
    if keys.dtype == np.bool_:
        return keys.astype(np.int64)
    if np.issubdtype(keys.dtype, np.floating):
        return (keys.astype(np.float64) + 0.0).view(np.int64)
    return keys


def key_to_bytes(key) -> bytes:
    """Canonical byte representation of a message key.

    Integers (and the :func:`canonical_key` forms of booleans and
    floats) map to their 8-byte little-endian two's-complement form,
    strings to UTF-8, bytes pass through.  Other numbers are rejected;
    any other hashable object falls back to its ``repr``, which is
    stable within a process.
    """
    key = canonical_key(key)
    if isinstance(key, (int, np.integer)):
        return (int(key) & _MASK64).to_bytes(8, "little")
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    if isinstance(key, (numbers.Number, np.number)):
        raise TypeError(f"unsupported numeric key type {type(key).__name__}")
    return repr(key).encode("utf-8")


class HashFunction:
    """A single seeded 64-bit hash function over arbitrary keys.

    Integer keys take a fast splitmix64 path; all other keys are
    canonicalized to bytes and hashed with MurmurHash64A.  Both paths
    incorporate the seed, so two functions with different seeds behave
    as independent draws from the family.
    """

    __slots__ = ("seed", "_seed_mix")

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._seed_mix = splitmix64(self.seed)

    def __call__(self, key) -> int:
        if type(key) is int:  # plain ints skip the isinstance check and int()
            return splitmix64((key & _MASK64) ^ self._seed_mix)
        if isinstance(key, (int, np.integer)):
            return splitmix64((int(key) & _MASK64) ^ self._seed_mix)
        key = canonical_key(key)
        if type(key) is int:
            return splitmix64((key & _MASK64) ^ self._seed_mix)
        return murmur2_64a(key_to_bytes(key), self.seed)

    def bucket(self, key, n: int) -> int:
        """Hash ``key`` into ``[0, n)``."""
        return self(key) % n

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized hash of an integer, bool or float key array
        (uint64 result)."""
        return splitmix64_array(canonical_keys(np.asarray(keys)), self.seed)

    def bucket_array(self, keys: np.ndarray, n: int) -> np.ndarray:
        """Vectorized :meth:`bucket` of an integer, bool or float key
        array (int64)."""
        _check_bucket_count(n)
        keys = canonical_keys(np.asarray(keys))
        mixes = np.array([self._seed_mix], dtype=np.uint64)
        native = _native_choice_matrix(keys, mixes, n)
        if native is not None:
            return native.reshape(keys.shape)
        return (self.hash_array(keys) % np.uint64(n)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFunction(seed={self.seed})"


class HashFamily:
    """A family of ``size`` independent hash functions ``H1 .. Hd``.

    The family is the randomness source of the chromatic balls-and-bins
    process: each key's candidate workers are
    ``{H1(k) mod n, ..., Hd(k) mod n}``.

    Parameters
    ----------
    size:
        Number of functions ``d`` (2 for the paper's PKG).
    seed:
        Master seed; function ``i`` is seeded with a mix of
        ``(seed, i)`` so families with different master seeds are
        independent.
    """

    __slots__ = ("size", "seed", "_functions", "_seed_mixes", "mixes")

    def __init__(self, size: int = 2, seed: int = 0):
        if size < 1:
            raise ValueError(f"hash family size must be >= 1, got {size}")
        self.size = int(size)
        self.seed = int(seed)
        self.functions = tuple(
            HashFunction(splitmix64((self.seed << 8) ^ (i + 1))) for i in range(size)
        )

    @property
    def functions(self) -> Tuple[HashFunction, ...]:
        """The members ``H1 .. Hd``."""
        return self._functions

    @functions.setter
    def functions(self, functions: Tuple[HashFunction, ...]) -> None:
        # choices() and the native kernels read the members' seed mixes
        # from here, so keep them in step whenever the members are
        # replaced.
        self._functions = tuple(functions)
        self._seed_mixes = tuple(f._seed_mix for f in self._functions)
        #: the members' pre-mixed seeds, as the native kernels take them.
        self.mixes = np.array(self._seed_mixes, dtype=np.uint64)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> HashFunction:
        return self.functions[i]

    def __iter__(self) -> Iterable[HashFunction]:
        return iter(self.functions)

    def choices(self, key, n: int) -> Tuple[int, ...]:
        """The candidate buckets of ``key`` among ``n`` workers.

        Duplicates are possible (``H1(k) == H2(k)``) and preserved, as
        in the paper's process: a key whose two hashes collide
        effectively has a single choice.
        """
        if type(key) is int:
            x = key & _MASK64
            return tuple([splitmix64(x ^ mix) % n for mix in self._seed_mixes])
        return tuple(f(key) % n for f in self.functions)

    def choice_matrix(self, keys: np.ndarray, n: int) -> np.ndarray:
        """Vectorized choices: an ``(len(keys), size)`` int64 matrix.

        Only valid for integer, bool or float key arrays; this is the
        fast path used by the simulation harness to hoist hashing out of
        the sequential routing loop.  One native pass when the kernels
        are available, else one numpy ``splitmix64_array`` column per
        function.
        """
        _check_bucket_count(n)
        keys = canonical_keys(np.asarray(keys))
        if keys.ndim == 1:
            native = _native_choice_matrix(keys, self.mixes, n)
            if native is not None:
                return native
        cols = [f.bucket_array(keys, n) for f in self.functions]
        return np.stack(cols, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(size={self.size}, seed={self.seed})"


def family_from_seeds(seeds: Sequence[int]) -> HashFamily:
    """Build a family whose members use exactly the given seeds."""
    family = HashFamily(size=len(seeds), seed=0)
    family.functions = tuple(HashFunction(s) for s in seeds)
    return family
