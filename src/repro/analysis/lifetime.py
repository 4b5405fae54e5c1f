"""SSD lifetime impact of tensor migration traffic (§7.7)."""

from __future__ import annotations

from ..config import SSDConfig
from ..errors import ConfigurationError
from ..sim.results import SimulationResult
from ..ssd.wear import LifetimeEstimate, WearTracker


def estimate_ssd_lifetime(
    result: SimulationResult, ssd_config: SSDConfig
) -> LifetimeEstimate:
    """Project SSD lifetime if the simulated iteration ran back-to-back forever.

    Reproduces the paper's §7.7 arithmetic: the device is rated for
    ``DWPD x warranty days x capacity`` of writes; dividing by the sustained
    write bandwidth of the training workload gives the expected lifetime. The
    result's ``ssd_write_amplification`` is folded in; the simulated device
    has no FTL, so it is 1.0.
    """
    if result.failed:
        raise ConfigurationError("cannot project lifetime from a failed run")
    tracker = WearTracker(ssd_config)
    tracker.record_write(result.ssd_bytes_written)
    tracker.record_read(result.ssd_bytes_read)
    return tracker.lifetime(result.execution_time, max(1.0, result.ssd_write_amplification))
