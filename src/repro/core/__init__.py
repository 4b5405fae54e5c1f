"""G10's primary contribution: tensor vitality analysis and smart tensor migration.

The pipeline mirrors §4 of the paper:

1. :class:`TensorVitalityAnalyzer` (§4.2) extracts tensor lifetimes and
   inactive periods from a profiled training graph.
2. :class:`SmartEvictionScheduler` (§4.3, Algorithm 1) iteratively selects the
   most beneficial eviction candidates while tracking memory pressure and
   channel bandwidth.
3. :class:`SmartPrefetcher` (§4.4) moves prefetches earlier than their latest
   safe time whenever spare GPU capacity exists.
4. :class:`MigrationPlanner` ties the steps together and emits a
   :class:`MigrationPlan` of ``g10_pre_evict``/``g10_prefetch`` instructions,
   which :mod:`repro.core.instrumentation` can render as an instrumented
   program (Figure 9).
"""

from .vitality import InactivePeriod, TensorUsage, TensorVitalityAnalyzer, VitalityReport
from .pressure import MemoryPressureTimeline
from .bandwidth import ChannelSchedule, Direction
from .plan import (
    MigrationDestination,
    MigrationPlan,
    PlannedEviction,
    PlannedPrefetch,
)
from .eviction import EvictionPolicyConfig, SmartEvictionScheduler
from .prefetch import SmartPrefetcher
from .scheduler import MigrationPlanner
from .instrumentation import InstrumentedProgram, instrument_program

__all__ = [
    "InactivePeriod",
    "TensorUsage",
    "TensorVitalityAnalyzer",
    "VitalityReport",
    "MemoryPressureTimeline",
    "ChannelSchedule",
    "Direction",
    "MigrationDestination",
    "MigrationPlan",
    "PlannedEviction",
    "PlannedPrefetch",
    "EvictionPolicyConfig",
    "SmartEvictionScheduler",
    "SmartPrefetcher",
    "MigrationPlanner",
    "InstrumentedProgram",
    "instrument_program",
]
