"""PARTIAL KEY GROUPING -- the paper's contribution.

PKG = power of two choices + *key splitting* + *local load estimation*:

* each key has d = 2 candidate workers, ``H1(k) mod W`` and
  ``H2(k) mod W``;
* every message is routed to whichever candidate is currently less
  loaded *according to this source's own estimate* -- the key may end up
  split across both candidates (key splitting), so no routing table or
  inter-source agreement is needed;
* the estimate is purely local: :attr:`loads` counts the messages this
  source has sent to each worker.  The paper's global-oracle and
  probing comparisons (G / LP) are modes of
  :class:`repro.core.engine.InterleavedRouter`, reached through
  :func:`repro.core.engine.simulate_multisource_pkg`.

This implements the Greedy-d scheme of Section IV for arbitrary d;
d = 2 is the paper's PKG (d > 2 "only brings constant factor
improvements", reproduced by ``benchmarks/bench_ablation_dchoices.py``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.engine import hashed_greedy_route_chunk
from repro.hashing import HashFamily
from repro.partitioning.base import Partitioner


@register(
    "pkg",
    aliases=("partial-key-grouping", "greedy-d"),
    params={"d": "num_choices"},
    description="PARTIAL KEY GROUPING (Greedy-d with key splitting)",
)
class PartialKeyGrouping(Partitioner):
    """Greedy-d stream partitioner with key splitting.

    Parameters
    ----------
    num_workers:
        Downstream parallelism W.
    num_choices:
        d, the number of hash choices per key (default 2 = PKG).
    hash_family:
        The d independent hash functions; built from ``seed`` if absent.
        Sources sharing an edge **must** share a family (same seed) so
        that a key's candidate set is consistent across sources.
    """

    name = "PKG"
    loads: np.ndarray

    def __init__(
        self,
        num_workers: int,
        num_choices: int = 2,
        hash_family: Optional[HashFamily] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_workers)
        if hash_family is not None and len(hash_family) != num_choices:
            raise ValueError(
                f"hash family has {len(hash_family)} functions but "
                f"num_choices={num_choices}"
            )
        self.num_choices = int(num_choices)
        self.family = hash_family or HashFamily(size=num_choices, seed=seed)
        self.loads = np.zeros(num_workers, dtype=np.int64)

    def candidates(self, key: Any) -> Tuple[int, ...]:
        """The d candidate workers of ``key`` (duplicates preserved)."""
        return self.family.choices(key, self.num_workers)

    def route(self, key: Any, now: float = 0.0) -> int:
        return self._send_least_loaded(self.candidates(key))

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Route one chunk with hashing hoisted out of the per-key loop.

        Integer keys are hashed, chosen and counted in one native pass;
        otherwise the d hash columns are precomputed for the whole chunk
        (vectorised for integer keys, once per *distinct* key
        otherwise) and the per-key argmin over the d candidate loads
        runs in the Greedy-d chunk kernel.  ``timestamps`` is ignored:
        the estimate is a pure send count.
        """
        return hashed_greedy_route_chunk(self.family, keys, self.loads)

    def __repr__(self) -> str:
        return (
            f"PartialKeyGrouping(num_workers={self.num_workers}, "
            f"num_choices={self.num_choices})"
        )
