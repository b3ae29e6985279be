"""A simulated block device with IO accounting.

The paper's implementation sits on TPIE, which reads and writes 4 KB
blocks on a real disk and reports block-IO counts.  Reproducing IO
*counts* does not require a physical disk: it requires that every data
structure route each block access through a single chokepoint that
charges one IO per uncached block touch.  :class:`BlockDevice` is that
chokepoint.

Payloads are arbitrary Python objects (typically numpy arrays packed by
the index structures); the device never serializes them, but each block
conceptually occupies exactly ``block_bytes`` bytes, which is how index
sizes are reported (paper Figures 11c, 13a, 14a, 18a, 19a).

Structures decide their own packing via :func:`entries_per_block`.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, Optional, Sequence

from repro.core.errors import BlockDeviceError
from repro.storage.stats import IOStats

__all__ = ["BlockDevice", "BlockDeviceError", "DEFAULT_BLOCK_BYTES", "entries_per_block"]

#: Default block size used throughout the paper's evaluation (Section 5).
DEFAULT_BLOCK_BYTES = 4096


def entries_per_block(entry_bytes: int, block_bytes: int = DEFAULT_BLOCK_BYTES) -> int:
    """How many fixed-size records of ``entry_bytes`` fit in one block.

    Every index structure in this package declares the byte width of its
    record once and derives its fanout / leaf capacity from this helper,
    exactly as a TPIE structure would.
    """
    if entry_bytes <= 0:
        raise ValueError("entry_bytes must be positive")
    capacity = block_bytes // entry_bytes
    if capacity < 1:
        raise ValueError(
            f"entry of {entry_bytes} bytes does not fit in a {block_bytes}-byte block"
        )
    return capacity


class BlockDevice:
    """An in-memory disk made of fixed-size blocks with IO counters.

    Parameters
    ----------
    block_bytes:
        Size of one block; 4096 by default to match the paper.
    cache:
        Optional buffer pool (see :class:`repro.storage.cache.LRUCache`).
        Reads served by the cache are *not* charged as IOs, mirroring the
        OS/page-cache effects the paper remarks on in Section 5.
    name:
        Diagnostic label (useful when a method owns several devices,
        e.g. EXACT2's forest of per-object trees).
    """

    def __init__(
        self,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        cache: Optional["LRUCache"] = None,
        name: str = "device",
        stats: Optional[IOStats] = None,
    ) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes
        self.name = name
        # A shared IOStats lets one logical index spread over several
        # devices (EXACT2's forest of per-object files) report one total.
        self.stats = stats if stats is not None else IOStats()
        self._blocks: Dict[int, Any] = {}
        self._next_id = 0
        self._cache = cache
        # Coordinator discipline: every mutation must come from the
        # process that owns the device.  A pool worker inheriting a
        # forked copy may read payloads, but an attempted write there
        # would silently diverge from the coordinator's layout and IO
        # counts — so it raises instead.
        self._owner_pid = os.getpid()
        if cache is not None:
            cache.attach(self)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, payload: Any = None) -> int:
        """Allocate a new block holding ``payload``; returns its id.

        Charged as one write IO (the block must reach disk).
        """
        self._require_coordinator()
        block_id = self._next_id
        self._next_id += 1
        self._blocks[block_id] = payload
        self.stats.record_allocation()
        self.stats.record_write()
        if self._cache is not None:
            self._cache.put(block_id, payload)
        return block_id

    def allocate_many(self, payloads: list) -> list:
        """Allocate one block per payload; returns their ids in order.

        Equivalent to calling :meth:`allocate` in a loop — identical id
        sequence and identical IO accounting (one allocation + one
        write per block) — but the counters are updated in bulk, so
        index builders can pack a whole family of lists without a
        Python-level stats round-trip per block.

        This is the ordered bulk-commit chokepoint of the parallel
        builders: workers hand their payloads back to the coordinator,
        which commits them here in task order.
        """
        self._require_coordinator()
        count = len(payloads)
        block_ids = list(range(self._next_id, self._next_id + count))
        self._next_id += count
        for block_id, payload in zip(block_ids, payloads):
            self._blocks[block_id] = payload
            if self._cache is not None:
                self._cache.put(block_id, payload)
        self.stats.record_allocations(count)
        self.stats.record_writes(count)
        return block_ids

    def allocate_run(self, payloads: list) -> list:
        """Allocate a contiguous run of blocks; returns their ids in order.

        Contiguity matters only for documentation purposes — sequential
        ids model sequential disk layout produced by bulk loading.
        """
        return self.allocate_many(payloads)

    def free(self, block_id: int) -> None:
        """Release a block. Freed ids are never reused."""
        self._require_coordinator()
        self._require(block_id)
        del self._blocks[block_id]
        if self._cache is not None:
            self._cache.invalidate(block_id)

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    def read(self, block_id: int) -> Any:
        """Read a block, charging one IO unless the buffer pool has it."""
        self._require(block_id)
        if self._cache is not None:
            hit = self._cache.get(block_id)
            if hit is not _MISS:
                self.stats.record_cache_hit()
                return hit
        payload = self._blocks[block_id]
        self.stats.record_read()
        if self._cache is not None:
            self._cache.put(block_id, payload)
        return payload

    def read_many(self, block_ids: Sequence[int]) -> list:
        """Read several blocks in order with one bulk read charge.

        IO accounting matches a loop of :meth:`read` exactly — one
        cache-hit count per cached block, one read IO per uncached
        block — but the counters are updated once, which matters for
        multi-block list reads on the query path.
        """
        payloads = []
        misses = 0
        for block_id in block_ids:
            self._require(block_id)
            if self._cache is not None:
                hit = self._cache.get(block_id)
                if hit is not _MISS:
                    self.stats.record_cache_hit()
                    payloads.append(hit)
                    continue
            payload = self._blocks[block_id]
            misses += 1
            if self._cache is not None:
                self._cache.put(block_id, payload)
            payloads.append(payload)
        if misses:
            self.stats.record_reads(misses)
        return payloads

    def replay_reads(self, block_ids: Sequence[int]) -> None:
        """Charge the IO and buffer-pool effects of reading each block.

        Exactly what a loop of :meth:`read` would do to the counters
        and the LRU state — one cache-hit count per cached block, one
        read IO plus a pool insertion per uncached block — without
        returning payloads.  This is the cache-aware companion of the
        modeled-cost batched query pipelines: they compute answers
        from the columnar kernel but *replay* the scalar path's block
        access sequence here, so ``cache_blocks > 0`` configurations
        keep identical hit/miss accounting and identical final pool
        contents (asserted by the equivalence suites).
        """
        if self._cache is None:
            for block_id in block_ids:
                self._require(block_id)
            self.stats.record_reads(len(block_ids))
            return
        for block_id in block_ids:
            self._require(block_id)
            hit = self._cache.get(block_id)
            if hit is not _MISS:
                self.stats.record_cache_hit()
                continue
            self.stats.record_read()
            self._cache.put(block_id, self._blocks[block_id])

    def peek(self, block_id: int) -> Any:
        """Read a block *without* charging IOs or touching the cache.

        This is the escape hatch of the modeled-cost batched query
        pipelines: they dedup physical payload fetches across a whole
        workload while charging, analytically, exactly the IOs the
        per-query scalar loop would have paid.  Never use it on a path
        whose IO cost is measured by the device itself.
        """
        self._require(block_id)
        return self._blocks[block_id]

    def write(self, block_id: int, payload: Any) -> None:
        """Overwrite a block in place, charging one write IO."""
        self._require_coordinator()
        self._require(block_id)
        self._blocks[block_id] = payload
        self.stats.record_write()
        if self._cache is not None:
            self._cache.put(block_id, payload)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def has_cache(self) -> bool:
        """True when a buffer pool is attached.

        Batched query paths model per-query IO charges analytically;
        the model assumes uncached reads, so they fall back to the
        scalar loop when a cache could absorb some of those reads.
        """
        return self._cache is not None

    @property
    def num_blocks(self) -> int:
        """Number of live (allocated, unfreed) blocks."""
        return len(self._blocks)

    @property
    def size_bytes(self) -> int:
        """Bytes occupied on "disk": live blocks x block size."""
        return self.num_blocks * self.block_bytes

    def drop_cache(self) -> None:
        """Empty the buffer pool (used to measure cold-cache query IOs)."""
        if self._cache is not None:
            self._cache.clear()

    def set_cache(self, cache: Optional["LRUCache"]) -> None:
        """Attach or detach a buffer pool."""
        self._cache = cache
        if cache is not None:
            cache.attach(self)

    def _require(self, block_id: int) -> None:
        if block_id not in self._blocks:
            raise BlockDeviceError(f"{self.name}: invalid block id {block_id}")

    def _require_coordinator(self) -> None:
        if os.getpid() != self._owner_pid:
            raise BlockDeviceError(
                f"{self.name}: block mutation from a worker process "
                f"(pid {os.getpid()}, owner {self._owner_pid}); device "
                "writes must stay on the build coordinator"
            )

    def __setstate__(self, state: dict) -> None:
        # A device deliberately unpickled by a top-level process (a
        # saved index loaded by the CLI, a mounted snapshot) belongs to
        # that process.  Inside a multiprocessing child — a spawned
        # pool worker receiving its state, or a worker re-mounting
        # a read-only segment — ownership stays with the original
        # coordinator, matching fork-inherited copies: workers may
        # read, but a write there would silently diverge from the
        # coordinator's layout and IO counts, so it keeps raising.
        self.__dict__.update(state)
        if multiprocessing.parent_process() is None:
            self._owner_pid = os.getpid()


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<MISS>"


_MISS = _Miss()
