"""Page-mapped flash translation layer with greedy garbage collection.

The mapping is page-granular (as in a real page-mapped FTL) but the write
path is *extent-aware*: tensor-sized host writes arrive as contiguous logical
runs, and :meth:`FlashTranslationLayer.write_run` programs each run into the
open block chunk-at-a-time — one garbage-collection check and one block lookup
per chunk instead of per page. Until garbage collection first runs, it
produces exactly the mapping and counters of the equivalent single-page
writes; after that, the GC schedules can differ, because a single-page
write checks before every page.
A per-block reverse index makes GC relocation O(pages in the victim block)
instead of a scan over the whole device mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SSDError
from .flash import FlashBlock, FlashGeometry


@dataclass
class GCResult:
    """Outcome of one garbage-collection invocation."""

    blocks_erased: int = 0
    pages_relocated: int = 0

    @property
    def ran(self) -> bool:
        return self.blocks_erased > 0

    def merge(self, other: "GCResult") -> None:
        self.blocks_erased += other.blocks_erased
        self.pages_relocated += other.pages_relocated


@dataclass
class FlashTranslationLayer:
    """Maps logical flash pages to physical (block, offset) locations.

    Writes are appended log-style to the currently open block per the greedy
    allocation policy; overwriting a logical page invalidates its previous
    physical location. When the pool of free blocks drops below the GC
    threshold, greedy garbage collection relocates the valid pages of the
    blocks with the fewest valid pages and erases them.
    """

    geometry: FlashGeometry
    gc_threshold_blocks: int = 2
    blocks: list[FlashBlock] = field(default_factory=list)
    _mapping: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Reverse index: block id -> logical pages currently mapped into it
    #: (GC relocates them in ascending logical order).
    _block_pages: dict[int, dict[int, None]] = field(default_factory=dict)
    _open_block: int | None = None
    _free_blocks: list[int] = field(default_factory=list)
    #: Cumulative counters used by the wear model.
    host_pages_written: int = 0
    gc_pages_written: int = 0
    blocks_erased: int = 0

    def __post_init__(self) -> None:
        if not self.blocks:
            self.blocks = [
                FlashBlock(block_id=i, pages_per_block=self.geometry.pages_per_block)
                for i in range(self.geometry.total_blocks)
            ]
            self._free_blocks = list(range(len(self.blocks)))

    # -- capacity ------------------------------------------------------------

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks) + (1 if self._open_block is not None else 0)

    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)

    @property
    def write_amplification(self) -> float:
        """Total programmed pages / host-written pages (1.0 means no GC traffic)."""
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.gc_pages_written) / self.host_pages_written

    def physical_location(self, logical_page: int) -> tuple[int, int]:
        """Current (block, offset) of a logical page."""
        try:
            return self._mapping[logical_page]
        except KeyError as exc:
            raise SSDError(f"logical page {logical_page} is not mapped") from exc

    def is_mapped(self, logical_page: int) -> bool:
        return logical_page in self._mapping

    # -- operations ------------------------------------------------------------

    def write(self, logical_page: int) -> GCResult:
        """Write (or overwrite) one logical page; returns any GC work triggered."""
        gc_result = self._maybe_collect()
        self._invalidate_if_mapped(logical_page)
        block_id = self._writable_block()
        offset = self.blocks[block_id].program()
        self._map(logical_page, block_id, offset)
        self.host_pages_written += 1
        return gc_result

    def write_run(self, start_logical: int, count: int) -> GCResult:
        """Write ``count`` consecutive logical pages starting at ``start_logical``.

        Bulk path: fresh pages are programmed chunk-at-a-time into the open
        block with one garbage-collection check per chunk, and overwrites fall
        back to the per-page path (their invalidation can change GC victim
        ranking mid-run). Until a collection runs, the mapping and counters
        equal those of ``count`` sequential :meth:`write` calls. The GC
        schedule can differ: :meth:`write` checks before every page, so it can
        start a collection mid-chunk where this path waits for the next chunk.
        """
        if count <= 0:
            raise SSDError("write runs must cover at least one page")
        total = GCResult()
        page = start_logical
        end = start_logical + count
        while page < end:
            if page in self._mapping:
                total.merge(self.write(page))
                page += 1
                continue
            total.merge(self._maybe_collect())
            block_id = self._writable_block()
            block = self.blocks[block_id]
            owners = self._block_pages.setdefault(block_id, {})
            mapping, valid = self._mapping, block.valid
            # The chunk fits the block's free pages, so it is programmed in
            # place: the same offsets, in order, as per-page program() calls.
            first = offset = block.write_pointer
            chunk_limit = min(end, page + block.pages_per_block - first)
            while page < chunk_limit and page not in mapping:
                valid[offset] = True
                mapping[page] = (block_id, offset)
                owners[page] = None
                offset += 1
                page += 1
            block.write_pointer = offset
            self.host_pages_written += offset - first
        return total

    def read(self, logical_page: int) -> tuple[int, int]:
        """Read one logical page, returning its physical location."""
        return self.physical_location(logical_page)

    def trim(self, logical_page: int) -> None:
        """Discard a logical page (the tensor was freed or migrated elsewhere)."""
        self.trim_run(logical_page, 1)

    def trim_run(self, start_logical: int, count: int) -> None:
        """Discard a contiguous run of logical pages.

        Each mapped page is invalidated in its block and dropped from the
        mapping and the block's reverse index; unmapped pages are skipped.
        """
        mapping, blocks, block_pages = self._mapping, self.blocks, self._block_pages
        for logical in range(start_logical, start_logical + count):
            location = mapping.pop(logical, None)
            if location is not None:
                block_id, offset = location
                # A mapped page is always a programmed page of its block, and
                # its block always has a reverse-index entry.
                blocks[block_id].valid[offset] = False
                block_pages[block_id].pop(logical, None)

    # -- internals ---------------------------------------------------------------

    def _map(self, logical_page: int, block_id: int, offset: int) -> None:
        previous = self._mapping.get(logical_page)
        if previous is not None:
            self._block_pages.get(previous[0], {}).pop(logical_page, None)
        self._mapping[logical_page] = (block_id, offset)
        self._block_pages.setdefault(block_id, {})[logical_page] = None

    def _invalidate_if_mapped(self, logical_page: int) -> None:
        location = self._mapping.get(logical_page)
        if location is not None:
            block_id, offset = location
            self.blocks[block_id].invalidate(offset)

    def _writable_block(self) -> int:
        if self._open_block is not None and not self.blocks[self._open_block].is_full:
            return self._open_block
        if not self._free_blocks:
            raise SSDError("flash device is out of space")
        self._open_block = self._free_blocks.pop()
        return self._open_block

    def _maybe_collect(self) -> GCResult:
        result = GCResult()
        while self.free_block_count <= self.gc_threshold_blocks:
            victim = self._pick_victim()
            if victim is None:
                break
            result.pages_relocated += self._collect_block(victim)
            result.blocks_erased += 1
        return result

    def _pick_victim(self) -> int | None:
        """Greedy victim selection: the closed block with the fewest valid pages."""
        candidates = [
            b for b in self.blocks
            if b.is_full and b.block_id != self._open_block
        ]
        if not candidates:
            return None
        victim = min(candidates, key=lambda b: b.valid_pages)
        if victim.valid_pages >= self.geometry.pages_per_block:
            return None
        return victim.block_id

    def _collect_block(self, block_id: int) -> int:
        """Relocate the victim's valid pages and erase it."""
        victim = self.blocks[block_id]
        # Ascending logical order matches the historical full-mapping scan:
        # the device hands out monotonically increasing unit ids, so its
        # mapping's insertion order was ascending too.
        relocations = sorted(self._block_pages.get(block_id, ()))
        relocated = 0
        for logical in relocations:
            _blk, offset = self._mapping[logical]
            if not victim.valid[offset]:
                continue
            victim.invalidate(offset)
            destination = self._writable_block_excluding(block_id)
            new_offset = self.blocks[destination].program()
            self._map(logical, destination, new_offset)
            self.gc_pages_written += 1
            relocated += 1
        victim.erase()
        self.blocks_erased += 1
        self._free_blocks.append(block_id)
        return relocated

    def _writable_block_excluding(self, excluded: int) -> int:
        if (
            self._open_block is not None
            and self._open_block != excluded
            and not self.blocks[self._open_block].is_full
        ):
            return self._open_block
        while self._free_blocks:
            candidate = self._free_blocks.pop()
            if candidate != excluded:
                self._open_block = candidate
                return candidate
        raise SSDError("garbage collection could not find a destination block")
