"""Flash geometry: channels, blocks and pages."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SSDError


@dataclass(frozen=True)
class FlashGeometry:
    """Physical layout of the simulated flash device."""

    channels: int
    blocks_per_channel: int
    pages_per_block: int
    page_size: int

    def __post_init__(self) -> None:
        if min(self.channels, self.blocks_per_channel, self.pages_per_block, self.page_size) <= 0:
            raise SSDError("flash geometry dimensions must be positive")

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size


@dataclass
class FlashBlock:
    """One erase block: a write pointer plus per-page validity."""

    block_id: int
    pages_per_block: int
    write_pointer: int = 0
    valid: list[bool] = field(default_factory=list)
    erase_count: int = 0

    def __post_init__(self) -> None:
        if not self.valid:
            self.valid = [False] * self.pages_per_block

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.pages_per_block

    @property
    def valid_pages(self) -> int:
        return sum(self.valid)

    @property
    def free_pages(self) -> int:
        return self.pages_per_block - self.write_pointer

    def program(self) -> int:
        """Program the next page; returns its offset within the block."""
        if self.is_full:
            raise SSDError(f"block {self.block_id} is full")
        offset = self.write_pointer
        self.valid[offset] = True
        self.write_pointer += 1
        return offset

    def invalidate(self, offset: int) -> None:
        """Mark a previously-programmed page as stale."""
        if offset >= self.write_pointer:
            raise SSDError(f"page {offset} of block {self.block_id} was never programmed")
        self.valid[offset] = False

    def erase(self) -> None:
        """Erase the block, clearing validity and advancing the erase counter."""
        self.write_pointer = 0
        self.valid = [False] * self.pages_per_block
        self.erase_count += 1
