"""Workload characterization and result analysis (§3 and §7 post-processing)."""

from .characterization import (
    CharacterizationResult,
    characterize_workload,
    inactive_period_size_scatter,
    memory_consumption_profile,
)
from .traffic import TrafficBreakdown, traffic_breakdown
from .lifetime import estimate_ssd_lifetime

__all__ = [
    "CharacterizationResult",
    "characterize_workload",
    "memory_consumption_profile",
    "inactive_period_size_scatter",
    "TrafficBreakdown",
    "traffic_breakdown",
    "estimate_ssd_lifetime",
]
