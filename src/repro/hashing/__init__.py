"""Hash functions and seeded hash families.

This package provides the hashing substrate used by every partitioning
scheme in the library.  The paper uses a 64-bit Murmur hash "to minimize
the probability of collision" (Section V-B); we provide:

* :func:`murmur2_64a` -- MurmurHash64A, the classic 64-bit Murmur
  variant, used on non-integer keys.
* :func:`splitmix64` -- a fast 64-bit finalizer used on integer keys,
  with a vectorized numpy counterpart (:func:`splitmix64_array`).
* :class:`HashFunction` / :class:`HashFamily` -- seeded, independent hash
  functions ``H1 .. Hd`` mapping arbitrary keys to ``[0, n)`` as required
  by the Greedy-d process of Section IV.
"""

from repro.hashing.murmur import murmur2_64a, splitmix64, splitmix64_array
from repro.hashing.families import (
    HashFamily,
    HashFunction,
    canonical_key,
    canonical_keys,
    key_to_bytes,
)

__all__ = [
    "murmur2_64a",
    "splitmix64",
    "splitmix64_array",
    "HashFamily",
    "HashFunction",
    "canonical_key",
    "canonical_keys",
    "key_to_bytes",
]
