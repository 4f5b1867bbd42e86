"""JBSQ: join the shortest of d sampled queues, with bounded depth.

The queue-depth-aware baseline for the latency evaluation
(:mod:`repro.queueing`): each *message* (not key) samples d candidate
workers and joins the one with the fewest outstanding messages,
mirroring the join-bounded-shortest-queue dispatch of microsecond-scale
RPC schedulers.  Unlike PKG the candidates are per-message, so JBSQ is
key-agnostic (it scatters keys like shuffle grouping) but sees actual
queue depth rather than cumulative send counts -- the interesting
contrast: what does knowing the instantaneous backlog buy over PKG's
local estimate, and what does it cost in key locality?

Outstanding work is tracked with explicit departure feedback: the
queueing simulator calls :meth:`JoinBoundedShortestQueue.on_complete`
at every departure (and drop).  In a pure replay -- no completion
events -- the counters never decrease, and JBSQ degenerates to
least-loaded-of-d-random, which keeps :meth:`route` and
:meth:`route_chunk` decision-identical by construction.

Candidate sampling is deterministic without an RNG: the message
*counter* is hashed through the same :class:`~repro.hashing.HashFamily`
machinery every other scheme uses (REPRO001 -- no unseeded randomness,
and a run is a pure function of the seed).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.engine import hashed_greedy_route_chunk
from repro.hashing import HashFamily
from repro.partitioning.base import Partitioner


@register(
    "jbsq",
    aliases=("join-bounded-shortest-queue", "shortest-queue-d"),
    params={"d": "num_choices"},
    description="Join the shortest of d sampled queues (depth feedback)",
)
class JoinBoundedShortestQueue(Partitioner):
    """Power-of-d-choices over instantaneous queue depth.

    Parameters
    ----------
    num_workers:
        Downstream parallelism W.
    num_choices:
        d, how many workers each message samples (default 2).  Values
        >= W degenerate to global least-queue.
    hash_family:
        Hash functions used to derive the d per-message candidates from
        the message counter; built from ``seed`` if absent.
    """

    name = "JBSQ"

    def __init__(
        self,
        num_workers: int,
        num_choices: int = 2,
        hash_family: Optional[HashFamily] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_workers)
        if num_choices < 1:
            raise ValueError(f"num_choices must be >= 1, got {num_choices}")
        if hash_family is not None and len(hash_family) != num_choices:
            raise ValueError(
                f"hash family has {len(hash_family)} functions but "
                f"num_choices={num_choices}"
            )
        self.num_choices = int(num_choices)
        self.family = hash_family or HashFamily(size=num_choices, seed=seed)
        #: outstanding (queued or in service) messages per worker.
        self.outstanding = np.zeros(num_workers, dtype=np.int64)
        self._counter = 0

    def _candidates_for(self, counter: int) -> Tuple[int, ...]:
        return self.family.choices(counter, self.num_workers)

    def candidates(self, key: Any) -> Tuple[int, ...]:
        """The workers the *next* message may join (key-agnostic)."""
        return self._candidates_for(self._counter)

    def route(self, key: Any, now: float = 0.0) -> int:
        cands = self._candidates_for(self._counter)
        self._counter += 1
        view = self.outstanding
        best = cands[0]
        best_depth = view[best]
        for candidate in cands[1:]:
            depth = view[candidate]
            if depth < best_depth:
                best = candidate
                best_depth = depth
        view[best] += 1
        return int(best)

    def on_complete(self, worker: int, now: float = 0.0) -> None:
        """Departure feedback: one outstanding message left ``worker``."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(
                f"worker must be in [0, {self.num_workers}), got {worker}"
            )
        if self.outstanding[worker] <= 0:
            raise ValueError(
                f"worker {worker} has no outstanding messages to complete"
            )
        self.outstanding[worker] -= 1

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Vectorised replay path: Greedy-d over the hashed counter range.

        No completions can happen inside a chunk (replay has no
        departure events), so routing the whole chunk through the
        Greedy-d kernel over the ``outstanding`` array reproduces the
        per-message decisions exactly.
        """
        m = int(np.asarray(keys).size)
        counters = np.arange(self._counter, self._counter + m, dtype=np.int64)
        self._counter += m
        return hashed_greedy_route_chunk(self.family, counters, self.outstanding)

    def reset(self) -> None:
        self.outstanding[:] = 0
        self._counter = 0

    def __repr__(self) -> str:
        return (
            f"JoinBoundedShortestQueue(num_workers={self.num_workers}, "
            f"num_choices={self.num_choices})"
        )
