"""Flash SSD substrate: the device's service model and wear accounting.

The paper couples its simulator to an SSDSim-based model of a Samsung Z-NAND
drive so that flash-internal work such as garbage collection shows in
end-to-end results, and §7.7 estimates the impact of tensor migration traffic
on device lifetime. Here :class:`SSDDevice` charges each request its latency
plus its size over the device bandwidth, with no FTL or garbage collection
(write amplification is 1.0 by construction), and :class:`WearTracker`
projects the §7.7 lifetime from a run's write traffic.
"""

from .ssd import SSDDevice, SSDStatistics
from .wear import WearTracker, LifetimeEstimate

__all__ = [
    "SSDDevice",
    "SSDStatistics",
    "WearTracker",
    "LifetimeEstimate",
]
