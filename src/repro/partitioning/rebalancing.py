"""Key grouping with rebalancing: the operator-migration baseline.

Section II-B discusses the "common solution" of migrating keys (and
their state) away from overloaded workers once imbalance is detected,
and argues it is impractical for DSPEs: it needs imbalance-checking and
rebalancing parameters, explicit routing tables, and coordinated
migration of state.  We implement it anyway, both as a baseline and to
*account for its costs*: every migration is charged with the size of
the state moved, so experiments can weigh imbalance gained against
migration traffic paid.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.chunks import as_key_array, hashed_buckets
from repro.hashing import HashFamily, HashFunction
from repro.partitioning.base import Partitioner


@register(
    "kg-rebalance",
    aliases=("rebalance", "flux"),
    params={
        "interval": "check_interval",
        "threshold": "imbalance_threshold",
        "migrations": "max_migrations_per_rebalance",
    },
    description="key grouping with Flux-style periodic key migration",
)
class RebalancingKeyGrouping(Partitioner):
    """KG plus periodic migration of the hottest keys.

    Per-key state (message counts and current owners) lives in slot
    arrays indexed by a key->slot dict, allocated in first-seen order.
    That representation makes both halves of the scheme chunk-fast:
    routing an epoch is a gather through the slot table, and a
    rebalancing round is a vectorized scan of the donor's slots instead
    of a Python sweep over a per-key dict -- while remaining
    decision-identical to per-message routing (the tie-break order of
    equal-count keys *is* the slot order, exactly as dict insertion
    order tie-broke the old sweep).

    Parameters
    ----------
    num_workers:
        Downstream parallelism W.
    check_interval:
        Check for imbalance every this many routed messages.
    imbalance_threshold:
        Trigger a rebalance when ``I(t) / avg(L)`` exceeds this ratio.
    max_migrations_per_rebalance:
        How many keys may move per rebalancing round.
    """

    name = "KG-rebalance"
    loads: np.ndarray

    def __init__(
        self,
        num_workers: int,
        check_interval: int = 10_000,
        imbalance_threshold: float = 0.2,
        max_migrations_per_rebalance: int = 8,
        hash_function: Optional[HashFunction] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_workers)
        if check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {check_interval}")
        if imbalance_threshold < 0:
            raise ValueError("imbalance_threshold must be non-negative")
        self._hash = hash_function or HashFamily(size=1, seed=seed)[0]
        self.check_interval = int(check_interval)
        self.imbalance_threshold = float(imbalance_threshold)
        self.max_migrations = int(max_migrations_per_rebalance)

        self.overrides: Dict = {}          # key -> migrated worker
        self.loads = np.zeros(num_workers, dtype=np.int64)
        self._since_check = 0

        # Per-key slot state, in first-seen order: _slot maps key ->
        # index into _counts (messages seen = the key's state size) and
        # _owners (current worker: its hash home, or its override).
        self._slot: Dict = {}
        self._slot_keys: List = []
        self._counts = np.zeros(1024, dtype=np.int64)
        self._owners = np.zeros(1024, dtype=np.int64)

        # Sorted lookup table over known keys for the chunk path: the
        # key->slot dict, re-materialized as parallel sorted arrays so a
        # chunk's distinct keys resolve with one searchsorted instead of
        # one dict probe each.  Rebuilt lazily whenever the per-message
        # path allocated behind its back (size mismatch).
        self._table_keys = np.empty(0, dtype=np.int64)
        self._table_slots = np.empty(0, dtype=np.int64)

        #: number of rebalancing rounds triggered
        self.rebalances = 0
        #: total key->worker moves performed
        self.migrations = 0
        #: total state migrated, in messages (the migration cost the
        #: paper warns about: proportional to the state of moved keys)
        self.migrated_state = 0

    @property
    def key_counts(self) -> Dict:
        """Messages seen per key (a snapshot of the slot arrays)."""
        n = len(self._slot_keys)
        return dict(zip(self._slot_keys, self._counts[:n].tolist()))

    def _home(self, key: Any) -> int:
        return self._hash(key) % self.num_workers

    def _ensure_capacity(self, n: int) -> None:
        capacity = self._counts.size
        if n <= capacity:
            return
        grow = max(n, 2 * capacity) - capacity
        self._counts = np.concatenate(
            [self._counts, np.zeros(grow, dtype=np.int64)]
        )
        self._owners = np.concatenate(
            [self._owners, np.zeros(grow, dtype=np.int64)]
        )

    def _allocate(self, key: Any, home: int) -> int:
        slot = len(self._slot_keys)
        self._ensure_capacity(slot + 1)
        self._slot[key] = slot
        self._slot_keys.append(key)
        self._counts[slot] = 0
        self._owners[slot] = home
        return slot

    def route(self, key: Any, now: float = 0.0) -> int:
        slot = self._slot.get(key)
        if slot is None:
            slot = self._allocate(key, self._home(key))
        worker = int(self._owners[slot])
        self.loads[worker] += 1
        self._counts[slot] += 1
        self._since_check += 1
        if self._since_check >= self.check_interval:
            self._since_check = 0
            self._maybe_rebalance()
        return worker

    def candidates(self, key: Any) -> Tuple[int, ...]:
        worker = self.overrides.get(key)
        return (worker if worker is not None else self._home(key),)

    def _chunk_slots(self, unique: np.ndarray, first_idx: np.ndarray) -> np.ndarray:
        """Slot of every distinct chunk key, allocating unseen ones.

        New keys are allocated in first-appearance order, so slot order
        keeps matching the order a per-message replay would have first
        routed them in (the migration round's tie-break).  Keys a
        rebalance has not yet counted stay invisible to it: their count
        is still zero.
        """
        if self._table_keys.size != len(self._slot_keys):
            self._rebuild_table()
        table_keys, table_slots = self._table_keys, self._table_slots
        if table_keys.size:
            pos = np.minimum(
                np.searchsorted(table_keys, unique), table_keys.size - 1
            )
            found = table_keys[pos] == unique
            slots = np.where(found, table_slots[pos], -1)
        else:
            slots = np.full(unique.size, -1, dtype=np.int64)
        new = np.flatnonzero(slots < 0)
        if new.size:
            new = new[np.argsort(first_idx[new])]
            homes = hashed_buckets(self._hash, unique[new], self.num_workers)
            base = len(self._slot_keys)
            self._ensure_capacity(base + new.size)
            new_slots = np.arange(base, base + new.size, dtype=np.int64)
            self._counts[new_slots] = 0
            self._owners[new_slots] = homes
            new_keys = unique[new].tolist()
            self._slot.update(zip(new_keys, new_slots.tolist()))
            self._slot_keys.extend(new_keys)
            slots[new] = new_slots
            if table_keys.size:
                merged_keys = np.concatenate([table_keys, unique[new]])
                merged_slots = np.concatenate([table_slots, new_slots])
            else:
                merged_keys, merged_slots = unique[new], new_slots
            order = np.argsort(merged_keys)
            self._table_keys = merged_keys[order]
            self._table_slots = merged_slots[order]
        return slots

    def _rebuild_table(self) -> None:
        keys = np.asarray(self._slot_keys)
        order = np.argsort(keys)
        self._table_keys = keys[order]
        self._table_slots = order.astype(np.int64, copy=False)

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Route-with-epochs kernel: vectorize between checkpoints.

        Between two rebalance checkpoints the routing function is
        *frozen* -- per-message state updates (loads, key counts) feed
        only the next checkpoint's decision, never the current epoch's
        routing.  So the chunk is processed as whole epochs: gather the
        per-unique owner table through the code array, bulk-update
        loads and counts via bincount, and only at a checkpoint run the
        same ``_maybe_rebalance`` the per-message path runs (regathering
        the owner table iff keys actually migrated).
        """
        arr = as_key_array(keys)
        m = int(arr.size)
        if m == 0:
            return np.empty(0, dtype=np.int64)
        unique, first_idx, codes = np.unique(
            arr, return_index=True, return_inverse=True
        )
        codes = codes.astype(np.int64, copy=False).reshape(-1)
        slots_u = self._chunk_slots(unique, first_idx)
        worker_u = self._owners[slots_u]

        out = np.empty(m, dtype=np.int64)
        start = 0
        while start < m:
            stop = min(m, start + self.check_interval - self._since_check)
            segment = codes[start:stop]
            segment_workers = worker_u[segment]
            out[start:stop] = segment_workers
            self.loads += np.bincount(segment_workers, minlength=self.num_workers)
            # slots_u entries are distinct, so fancy-index += is exact.
            self._counts[slots_u] += np.bincount(segment, minlength=slots_u.size)
            self._since_check += stop - start
            start = stop
            if self._since_check >= self.check_interval:
                self._since_check = 0
                migrations = self.migrations
                self._maybe_rebalance()
                if self.migrations != migrations:
                    worker_u = self._owners[slots_u]
        return out

    def _maybe_rebalance(self) -> None:
        avg = self.loads.mean()
        if avg <= 0:
            return
        imbalance = (self.loads.max() - avg) / avg
        if imbalance <= self.imbalance_threshold:
            return
        self.rebalances += 1

        # Move the hottest keys of the most loaded worker to the least
        # loaded one, Flux-style, paying their state size as cost.
        donor = int(np.argmax(self.loads))
        receiver = int(np.argmin(self.loads))
        if donor == receiver:
            return
        n = len(self._slot_keys)
        counts = self._counts[:n]
        candidates = np.flatnonzero(
            (self._owners[:n] == donor) & (counts > 0)
        )
        if candidates.size == 0:
            return
        # Hottest first; stable argsort keeps slot (= first-seen) order
        # among equal counts.  A key moves only if it does not overshoot
        # (2*count <= donor-receiver gap); skipped keys stay skipped
        # because the gap only shrinks, so a monotone searchsorted walk
        # over the descending counts replaces the per-key sweep.
        order = candidates[np.argsort(-counts[candidates], kind="stable")]
        weight = 2 * counts[order]  # descending; -weight is ascending
        moved = 0
        position = 0
        while moved < self.max_migrations and position < order.size:
            gap = int(self.loads[donor]) - int(self.loads[receiver])
            position = max(
                position, int(np.searchsorted(-weight, -gap, side="left"))
            )
            if position >= order.size:
                break
            slot = int(order[position])
            count = int(counts[slot])
            key = self._slot_keys[slot]
            self.overrides[key] = receiver
            self._owners[slot] = receiver
            self.loads[donor] -= count
            self.loads[receiver] += count
            self.migrations += 1
            self.migrated_state += count
            moved += 1
            position += 1

    def _on_mask(self) -> None:
        """Keep :attr:`loads` true: it drives migration, not selection."""

    def memory_entries(self) -> int:
        # The migration mechanism must track per-key counts *and* the
        # override table -- exactly the staggering memory requirement
        # Section II-B objects to.
        return len(self._slot) + len(self.overrides)

    def reset(self) -> None:
        self.overrides.clear()
        self.loads[:] = 0
        self._since_check = 0
        self._slot.clear()
        self._slot_keys.clear()
        self._counts = np.zeros(1024, dtype=np.int64)
        self._owners = np.zeros(1024, dtype=np.int64)
        self._table_keys = np.empty(0, dtype=np.int64)
        self._table_slots = np.empty(0, dtype=np.int64)
        self.rebalances = self.migrations = self.migrated_state = 0
