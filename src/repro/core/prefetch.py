"""Smart (eager) tensor prefetching — §4.4 of the paper.

After eviction scheduling, the default policy prefetches each evicted tensor at
its *latest safe* time: just early enough that the transfer completes before
the next use. That plan has no slack — any under-estimate of an inactive
period stalls a kernel. The smart prefetcher walks the evicted periods in
latest-safe-time order and moves each prefetch as early as possible while the
projected memory pressure stays under the GPU capacity, recreating Figure 8.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .plan import MigrationPlan, PlannedPrefetch
from .pressure import MemoryPressureTimeline


class SmartPrefetcher:
    """Moves planned prefetches earlier than their latest safe slot when possible."""

    def __init__(self, pressure: MemoryPressureTimeline):
        self._pressure = pressure

    def optimize(self, plan: MigrationPlan) -> MigrationPlan:
        """Return a new plan with eagerly rescheduled prefetches.

        The pressure timeline passed at construction is updated in place so a
        later optimization pass (or inspection in tests) sees the final curve.
        """
        num_slots = plan.num_slots or self._pressure.num_slots
        ordered = sorted(plan.prefetches, key=lambda p: p.latest_safe_slot)
        # Keyed on the period *value* (InactivePeriod is a frozen dataclass,
        # unique per (tensor, gap) within a plan) — an id()-keyed memo would
        # tie the lookup to allocator addresses.
        evictions_by_period = {e.period: e for e in plan.evictions}

        optimized: list[PlannedPrefetch] = []
        for prefetch in ordered:
            eviction = evictions_by_period.get(prefetch.period)
            earliest_allowed = 0
            if eviction is not None:
                earliest_allowed = eviction.expected_completion_slot + 1
            new_issue = self._earliest_issue(prefetch, earliest_allowed, num_slots)
            if new_issue < prefetch.issue_slot:
                added = self._added_slots(new_issue, prefetch.issue_slot, num_slots)
                self._pressure.add_bytes(added, prefetch.size_bytes)
                prefetch = replace(prefetch, issue_slot=new_issue)
            optimized.append(prefetch)

        optimized.sort(key=lambda p: (p.issue_slot, p.deadline_slot, p.tensor_id))
        return replace(plan, prefetches=optimized, planned_peak_pressure=self._pressure.peak)

    # -- internals ----------------------------------------------------------

    def _earliest_issue(
        self, prefetch: PlannedPrefetch, earliest_allowed: int, num_slots: int
    ) -> int:
        """Search backwards from the current issue slot for spare GPU capacity.

        Walks down from ``issue_slot - 1`` and stops at the first slot (folded
        onto the iteration) where the tensor would push pressure over the GPU
        capacity; the answer is the lowest slot reached, never below
        ``earliest_allowed``.
        """
        pressure = self._pressure.pressure_view()
        # Whole bytes: ``pressure + size > capacity`` exactly when
        # ``pressure > capacity - size``. ``item`` yields Python ints, which
        # compare faster than int64 scalars.
        limit = int(self._pressure.capacity) - prefetch.size_bytes
        candidate = prefetch.issue_slot
        slot = candidate - 1
        while slot >= earliest_allowed:
            if pressure.item(slot % num_slots) > limit:
                break
            candidate = slot
            slot -= 1
        return candidate

    @staticmethod
    def _added_slots(new_issue: int, old_issue: int, num_slots: int) -> np.ndarray:
        """Slots that gain residency when a prefetch moves from ``old`` to ``new``."""
        slots = np.arange(new_issue, old_issue, dtype=np.int64)
        return slots % num_slots
