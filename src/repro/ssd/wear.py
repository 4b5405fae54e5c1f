"""SSD endurance accounting (§7.7 of the paper).

:func:`repro.analysis.lifetime.estimate_ssd_lifetime` feeds a finished run's
SSD traffic to a :class:`WearTracker`; the device model itself keeps no wear
state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SSDConfig
from ..errors import SSDError


@dataclass(frozen=True)
class LifetimeEstimate:
    """Projected device lifetime under a sustained write workload."""

    #: Average write bandwidth the workload sustains, bytes/s.
    sustained_write_bandwidth: float
    #: Total bytes the device is rated to absorb (DWPD * days * capacity).
    rated_write_bytes: float
    #: Projected lifetime in years under continuous use.
    lifetime_years: float
    #: Write amplification factor included in the projection.
    write_amplification: float

    def meets(self, years: float) -> bool:
        """Whether the projected lifetime reaches ``years``."""
        return self.lifetime_years >= years


@dataclass
class WearTracker:
    """Accumulates write traffic and projects SSD lifetime.

    The paper estimates lifetime as ``DWPD * warranty_days * capacity /
    sustained_write_bandwidth``; the tracker reproduces that calculation from
    the measured migration traffic of a simulation, scaled by a write
    amplification factor (1.0 for the simulated device, which has no FTL).
    """

    config: SSDConfig
    bytes_written: float = 0.0
    bytes_read: float = 0.0

    def record_write(self, nbytes: float) -> None:
        if nbytes < 0:
            raise SSDError("cannot record a negative write")
        self.bytes_written += nbytes

    def record_read(self, nbytes: float) -> None:
        if nbytes < 0:
            raise SSDError("cannot record a negative read")
        self.bytes_read += nbytes

    @property
    def rated_write_bytes(self) -> float:
        """Total writes the device endurance rating allows."""
        return self.config.endurance_dwpd * self.config.endurance_days * self.config.capacity_bytes

    def lifetime(
        self, elapsed_seconds: float, write_amplification: float = 1.0
    ) -> LifetimeEstimate:
        """Project lifetime assuming the observed traffic repeats continuously.

        Args:
            elapsed_seconds: Simulated wall-clock time that produced the
                recorded traffic (one or more training iterations).
            write_amplification: Flash writes per host write to fold in.
        """
        if elapsed_seconds <= 0:
            raise SSDError("elapsed time must be positive")
        if write_amplification < 1.0:
            raise SSDError("write amplification cannot be below 1.0")
        sustained = self.bytes_written * write_amplification / elapsed_seconds
        if sustained == 0:
            lifetime_years = float("inf")
        else:
            lifetime_years = self.rated_write_bytes / sustained / (365.0 * 24 * 3600)
        return LifetimeEstimate(
            sustained_write_bandwidth=sustained,
            rated_write_bytes=self.rated_write_bytes,
            lifetime_years=lifetime_years,
            write_amplification=write_amplification,
        )
