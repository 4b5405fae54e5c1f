"""GPU memory characterization of DNN training workloads (§3, Figures 2-4)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.vitality import VitalityReport


@dataclass(frozen=True)
class CharacterizationResult:
    """All three characterization views for one workload."""

    model_name: str
    #: Per-kernel total live bytes and active bytes, both normalised to the peak
    #: live footprint (Figure 2's two curves).
    total_fraction: np.ndarray
    active_fraction: np.ndarray
    #: Lengths of every tensor inactive period in seconds (Figure 3).
    inactive_period_seconds: np.ndarray
    #: Matching tensor sizes in bytes (Figure 4 pairs sizes with period lengths).
    inactive_period_bytes: np.ndarray

    @property
    def mean_active_fraction(self) -> float:
        """Average share of the footprint that is active (the paper reports ~1 %)."""
        return float(self.active_fraction.mean()) if self.active_fraction.size else 0.0

    def fraction_of_periods_longer_than(self, seconds: float) -> float:
        """Share of inactive periods longer than a threshold (O2's headline numbers)."""
        if self.inactive_period_seconds.size == 0:
            return 0.0
        return float((self.inactive_period_seconds > seconds).mean())

    def fraction_hideable(self, swap_latency: float) -> float:
        """Share of periods long enough to hide one SSD round trip (O3)."""
        return self.fraction_of_periods_longer_than(2.0 * swap_latency)


def memory_consumption_profile(report: VitalityReport) -> tuple[np.ndarray, np.ndarray]:
    """Figure 2: per-kernel total and active memory, normalised to the peak."""
    peak = report.peak_pressure
    if peak <= 0:
        raise ValueError("workload has no memory footprint")
    total = report.baseline_pressure / peak
    active = report.active_bytes / peak
    return total, active


def inactive_period_size_scatter(report: VitalityReport) -> tuple[np.ndarray, np.ndarray]:
    """Figure 4: (inactive period length, tensor size) pairs."""
    lengths = np.asarray(
        [report.period_duration(p) for p in report.periods], dtype=np.float64
    )
    sizes = np.asarray([p.size_bytes for p in report.periods], dtype=np.float64)
    return lengths, sizes


def characterize_workload(report: VitalityReport) -> CharacterizationResult:
    """Run the full §3 characterization for one workload."""
    total, active = memory_consumption_profile(report)
    lengths, sizes = inactive_period_size_scatter(report)
    return CharacterizationResult(
        model_name=report.graph.name,
        total_fraction=total,
        active_fraction=active,
        inactive_period_seconds=lengths,
        inactive_period_bytes=sizes,
    )
