"""The executor's LRU victim order, kept as an index updated per residency change.

Victim selection walks GPU residents least recently used first and stops as
soon as enough bytes are chosen. The index keeps the residents in three
insertion-ordered maps, updated when the GPU pool allocates or frees a tensor
and when a kernel uses one, so a stream of ``k`` victims costs O(k) however
many tensors were used and evicted before.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import AbstractSet, Iterable, Iterator


class ResidencyIndex:
    """GPU residents in LRU victim order.

    Every use of a tensor by a kernel takes the next sequence number. A
    resident lives in exactly one of three maps:

    * ``_unused`` -- no kernel has used it yet, in allocation order:
      initially placed globals, kernel outputs being created, and tensors
      prefetched or faulted in before their first use;
    * ``_used`` -- used since its current allocation, in last-use order;
    * ``_returned`` -- re-allocated (by a prefetch or a fault) after being
      used and evicted, keyed by that earlier last-use sequence number, which
      ``_returned_seqs`` keeps sorted.

    ``_last_use`` remembers the last-use sequence number of every used tensor
    that is still alive, resident or not, so an evicted tensor returns at its
    old position.
    """

    def __init__(self) -> None:
        self._unused: dict[int, None] = {}
        self._used: dict[int, int] = {}
        self._returned: dict[int, int] = {}
        self._returned_seqs: list[int] = []
        self._last_use: dict[int, int] = {}
        self._clock = 0

    def allocated(self, tensor_id: int) -> None:
        """The GPU pool just allocated ``tensor_id`` (it was not resident)."""
        seq = self._last_use.get(tensor_id)
        if seq is None:
            self._unused[tensor_id] = None
        else:
            self._returned[seq] = tensor_id
            insort(self._returned_seqs, seq)

    def freed(self, tensor_id: int) -> bool:
        """The GPU pool released ``tensor_id``; returns whether it was resident."""
        if tensor_id in self._unused:
            del self._unused[tensor_id]
        elif tensor_id in self._used:
            del self._used[tensor_id]
        else:
            seq = self._last_use.get(tensor_id)
            if seq is None or self._returned.pop(seq, None) is None:
                return False
            del self._returned_seqs[bisect_left(self._returned_seqs, seq)]
        return True

    def died(self, tensor_id: int) -> None:
        """``tensor_id`` was freed for good: forget it, resident or not."""
        self.freed(tensor_id)
        self._last_use.pop(tensor_id, None)

    def used(self, tensor_ids: Iterable[int]) -> None:
        """A kernel used ``tensor_ids``, in order; resident ones become the newest."""
        for tensor_id in tensor_ids:
            self._clock += 1
            if self.freed(tensor_id):
                self._used[tensor_id] = self._clock
            self._last_use[tensor_id] = self._clock

    def victims(self, unavailable: AbstractSet[int]) -> Iterator[int]:
        """Residents least recently used first, skipping ``unavailable``.

        Residents no kernel has used come first, in allocation order; they
        include tensors just prefetched for an upcoming kernel. Then come used
        residents from oldest to newest last use. A tensor that was used,
        evicted and re-allocated keeps the position of its use before the
        eviction. Lazy, and valid only until the index next changes.
        """
        for tensor_id in self._unused:
            if tensor_id not in unavailable:
                yield tensor_id
        returned = self._returned
        seqs = iter(self._returned_seqs)
        next_returned = next(seqs, None)
        for tensor_id, seq in self._used.items():
            while next_returned is not None and next_returned < seq:
                back = returned[next_returned]
                if back not in unavailable:
                    yield back
                next_returned = next(seqs, None)
            if tensor_id not in unavailable:
                yield tensor_id
        while next_returned is not None:
            back = returned[next_returned]
            if back not in unavailable:
                yield back
            next_returned = next(seqs, None)
