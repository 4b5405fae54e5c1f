"""SSD device model: stored objects, capacity and per-request service time.

The device charges each request its latency plus its size over the read or
write bandwidth. It keeps no flash translation layer and runs no garbage
collection: no experiment fills the device near the point where collection
would start, so write amplification is 1.0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import SSDConfig
from ..errors import SSDError


@dataclass
class SSDStatistics:
    """Traffic counters of one simulated SSD."""

    bytes_written: float = 0.0
    bytes_read: float = 0.0


class SSDDevice:
    """A flash SSD servicing tensor-granularity reads and writes."""

    def __init__(self, config: SSDConfig) -> None:
        self._config = config
        self._stats = SSDStatistics()
        #: Size in bytes of each stored object, by object (tensor) id.
        self._objects: dict[int, int] = {}
        #: Sum of the stored objects' sizes, maintained incrementally.
        self._stored_bytes = 0

    @property
    def statistics(self) -> SSDStatistics:
        return self._stats

    @property
    def stored_bytes(self) -> int:
        """Bytes of live objects currently resident on flash."""
        return self._stored_bytes

    def contains(self, object_id: int) -> bool:
        return object_id in self._objects

    def write_object(self, object_id: int, size_bytes: int) -> float:
        """Store (or overwrite) an object; returns the device service time."""
        self._store(object_id, size_bytes)
        self._stats.bytes_written += size_bytes
        return self._config.write_latency + size_bytes / self._config.write_bandwidth

    def read_object(self, object_id: int, size_bytes: int) -> float:
        """Read an object back; returns the device service time."""
        if object_id not in self._objects:
            raise SSDError(f"object {object_id} is not stored on the SSD")
        self._stats.bytes_read += size_bytes
        return self._config.read_latency + size_bytes / self._config.read_bandwidth

    def preload_object(self, object_id: int, size_bytes: int) -> None:
        """Store an object without charging service time or traffic.

        Intended for initial residency setup (e.g. weights loaded from a
        checkpoint before the simulated iteration starts).
        """
        self._store(object_id, size_bytes)

    def discard_object(self, object_id: int) -> None:
        """TRIM an object (freed tensor or tensor migrated back for good)."""
        self._stored_bytes -= self._objects.pop(object_id, 0)

    def discard_objects(self, object_ids: Sequence[int]) -> None:
        """TRIM a batch of objects, each as :meth:`discard_object` would."""
        objects = self._objects
        for object_id in object_ids:
            self._stored_bytes -= objects.pop(object_id, 0)

    def _store(self, object_id: int, size_bytes: int) -> None:
        """Record an object, replacing any previous copy of it.

        The capacity check charges an overwrite for the new size only, since
        the new copy replaces the old one; a rejected store changes nothing.
        """
        if size_bytes <= 0:
            raise SSDError(f"cannot store empty object {object_id}")
        stored = self._stored_bytes - self._objects.get(object_id, 0) + size_bytes
        if stored > self._config.capacity_bytes:
            raise SSDError("SSD capacity exceeded")
        self._objects[object_id] = size_bytes
        self._stored_bytes = stored
