"""The ideal baseline: a GPU with unlimited on-board memory."""

from __future__ import annotations

from typing import Iterable

from ..graph.kernel import Kernel
from ..registry import register_policy
from ..sim.policy import MigrationDecision, MigrationPolicy


@register_policy(
    "ideal",
    display="Ideal",
    description="Infinite GPU memory; the upper bound every result is normalised to.",
)
class IdealPolicy(MigrationPolicy):
    """Upper bound used to normalise every result: nothing ever migrates."""

    name = "Ideal"
    enforce_capacity = False

    def per_request_overhead(self) -> float:
        return 0.0

    def prefetches_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return []

    def evictions_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return []

    def select_victims(
        self, needed_bytes: int, protected: set[int], resident: Iterable[int], now: float
    ) -> list[MigrationDecision]:
        return []
