"""Pure-Python implementations of the Murmur hash family.

The implementations follow Austin Appleby's reference C++ code
(SMHasher).  They are deliberately dependency-free; the only fast path
is :func:`splitmix64_array`, a vectorized numpy version of the 64-bit
mixer used for integer key streams in large simulations.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# MurmurHash64A constants.
_M64 = 0xC6A4A7935BD1E995
_R64 = 47

# splitmix64 constants (Steele, Lea & Flood).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def murmur2_64a(data: bytes, seed: int = 0) -> int:
    """MurmurHash64A (the 64-bit MurmurHash2 variant) of ``data``.

    This is the "64-bit Murmur hash" class of function the paper uses
    for key grouping; any avalanche-quality 64-bit hash yields the same
    statistical behaviour.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"murmur2_64a expects bytes, got {type(data).__name__}")
    data = bytes(data)
    length = len(data)
    h = (seed ^ ((length * _M64) & _MASK64)) & _MASK64
    n_blocks = length // 8

    for i in range(n_blocks):
        k = int.from_bytes(data[8 * i : 8 * i + 8], "little")
        k = (k * _M64) & _MASK64
        k ^= k >> _R64
        k = (k * _M64) & _MASK64
        h ^= k
        h = (h * _M64) & _MASK64

    tail = data[8 * n_blocks :]
    if tail:
        h ^= int.from_bytes(tail, "little")
        h = (h * _M64) & _MASK64

    h ^= h >> _R64
    h = (h * _M64) & _MASK64
    h ^= h >> _R64
    return h


def splitmix64(x: int) -> int:
    """One step of the splitmix64 generator: a high-quality 64-bit mixer.

    Used as the fast hash for integer keys: it passes avalanche tests and
    is two orders of magnitude faster than byte-oriented Murmur in pure
    Python.
    """
    x = (x + _SM_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _MASK64
    return x ^ (x >> 31)


def splitmix64_array(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`splitmix64` over an integer array.

    ``seed`` perturbs the mix so that different seeds yield independent
    hash functions over the same keys (the H1..Hd of Section IV).
    Returns a ``uint64`` array of the same shape.
    """
    # Always mix the seed (splitmix64(0) != 0) so the array path agrees
    # with HashFunction.__call__ for every seed, zero included.
    x = np.asarray(keys).astype(np.uint64, copy=True)
    x ^= np.uint64(splitmix64(seed))
    x += np.uint64(_SM_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_SM_MUL1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_SM_MUL2)
    return x ^ (x >> np.uint64(31))
