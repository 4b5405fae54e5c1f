"""Smart tensor eviction scheduling — Algorithm 1 of the paper (§4.3).

The scheduler iteratively selects the inactive period with the highest
benefit/cost ratio, chooses a destination (SSD first, host memory when the SSD
write path is saturated), reserves channel bandwidth for the eviction and the
matching just-in-time prefetch, and updates the projected memory-pressure
curve. It stops once the projected pressure fits in GPU memory or no further
candidate is beneficial.

Because evictions only ever *reduce* the over-capacity region, each candidate's
benefit is monotonically non-increasing as the schedule grows; the scheduler
therefore uses a lazy-greedy priority queue that re-scores a candidate only
when it reaches the top of the heap. Heap keys are ``(-score, counter,
period)``. A popped candidate whose fresh score falls more than ``1e-12``
below the next entry's stored score is stale: it is re-queued under a new
counter value. Otherwise it is the pick. Equal scores are therefore broken by
the order of insertion and re-queueing, which is heap history rather than a
documented key, and many scores do tie exactly (same-size tensors with
same-length windows wholly above capacity). The loop stops when the pressure
fits, when the pick's benefit is ``<= 0`` or after ``20 × len(candidates)``
pops, stale re-queues included. Pinning ties to a documented total order is
planned work (ROADMAP.md, "Specify Algorithm 1's tie-break").
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..errors import SchedulingError
from .bandwidth import ChannelSchedule, Direction
from .plan import MigrationDestination, MigrationPlan, PlannedEviction, PlannedPrefetch
from .pressure import MemoryPressureTimeline
from .vitality import InactivePeriod, VitalityReport


@dataclass(frozen=True)
class EvictionPolicyConfig:
    """Knobs that differentiate the G10 variants and the ablations.

    Attributes:
        allow_ssd: Permit SSD as an eviction destination (disabled only in
            ablations; every published variant keeps it on).
        allow_host: Permit host memory as a destination (off for G10-GDS).
        ssd_saturation_threshold: Fraction of the SSD write capacity already
            reserved in the eviction window above which the scheduler prefers
            host memory (the "to_ssd_traffic is full" test of Algorithm 1).
        ranking: Candidate ordering — ``"benefit_cost"`` (the paper),
            ``"largest_tensor"`` or ``"longest_period"`` (ablations).
        max_iterations: Cap on heap pops, stale re-queues included; ``None``
            means ``20 * len(candidates)`` (at least 20).
    """

    allow_ssd: bool = True
    allow_host: bool = True
    ssd_saturation_threshold: float = 0.90
    ranking: str = "benefit_cost"
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not (self.allow_ssd or self.allow_host):
            raise SchedulingError("at least one eviction destination must be allowed")
        if not 0 < self.ssd_saturation_threshold <= 1:
            raise SchedulingError("ssd_saturation_threshold must be in (0, 1]")
        if self.ranking not in ("benefit_cost", "largest_tensor", "longest_period"):
            raise SchedulingError(f"unknown ranking {self.ranking!r}")


@dataclass
class _ScheduledMigration:
    """Internal record of one accepted eviction/prefetch pair."""

    period: InactivePeriod
    destination: MigrationDestination
    eviction_complete: int
    prefetch_issue: int


def saturation_end_slot(
    durations: list[float], start_slot: int, ideal_seconds: float, num_slots: int
) -> int:
    """Last slot of the window an ideal-bandwidth transfer would occupy.

    Window sizing for the §4.3 SSD-saturation test: accumulate slot durations
    from ``start_slot`` until they cover the ideal transfer time, stopping at
    the iteration's last slot.
    """
    end_slot = start_slot
    elapsed = 0.0
    while end_slot < num_slots - 1 and elapsed < ideal_seconds:
        elapsed += durations[end_slot]
        end_slot += 1
    return end_slot


class SmartEvictionScheduler:
    """Plans pre-evictions and just-in-time prefetches for one training iteration."""

    def __init__(
        self,
        report: VitalityReport,
        config: SystemConfig,
        policy: EvictionPolicyConfig | None = None,
    ):
        self._report = report
        self._config = config
        self._policy = policy or EvictionPolicyConfig()
        self._num_slots = report.num_slots
        durations = np.asarray([k.duration for k in report.graph.kernels], dtype=np.float64)
        self._pressure = MemoryPressureTimeline(
            report.baseline_pressure, config.gpu.memory_bytes
        )
        self._channels = ChannelSchedule(durations, config)
        self._durations: list[float] = durations.tolist()
        self._host_used = np.zeros(self._num_slots, dtype=np.float64)
        self._host_capacity = float(config.host_memory_bytes)
        # The cost term depends only on the tensor size (channel latencies and
        # bandwidths are fixed for a run), and the lazy-greedy heap re-scores
        # candidates constantly — tabulate it per size.
        self._costs = {
            size: self._channels.transfer_time(size, to_ssd=True, direction=Direction.OUT)
            + self._channels.transfer_time(size, to_ssd=True, direction=Direction.IN)
            for size in dict.fromkeys(period.size_bytes for period in report.periods)
        }

    # -- public API ----------------------------------------------------------

    @property
    def pressure(self) -> MemoryPressureTimeline:
        return self._pressure

    @property
    def channels(self) -> ChannelSchedule:
        return self._channels

    def schedule(self) -> MigrationPlan:
        """Run Algorithm 1 and return the migration plan."""
        pressure = self._pressure
        candidates = [p for p in self._report.periods if p.num_free_slots > 0]
        heap = [
            (-self._score(period, pressure.eviction_benefit(period)), index, period)
            for index, period in enumerate(candidates)
        ]
        # Counters are unique, so the pop order is the key order whether the
        # heap was built by pushes or by one heapify.
        heapq.heapify(heap)
        counter = itertools.count(len(heap))

        accepted: list[_ScheduledMigration] = []
        max_iterations = self._policy.max_iterations or 20 * max(len(candidates), 1)
        iterations = 0
        fits = pressure.fits()

        while heap and not fits and iterations < max_iterations:
            iterations += 1
            _, _, period = heapq.heappop(heap)
            benefit = pressure.eviction_benefit(period)
            score = self._score(period, benefit)
            if heap and score < -heap[0][0] - 1e-12:
                # Stale entry: benefit shrank since it was pushed; re-queue.
                heapq.heappush(heap, (-score, next(counter), period))
                continue
            if benefit <= 0.0:
                # The best remaining candidate no longer reduces any excess.
                break
            migration = self._try_schedule(period)
            if migration is not None:
                accepted.append(migration)
                # Only an accepted migration changes the pressure curve.
                fits = pressure.fits()

        return self._build_plan(accepted)

    # -- candidate evaluation ---------------------------------------------------

    def _score(self, period: InactivePeriod, benefit: float) -> float:
        """Ranking key of a candidate whose current benefit is ``benefit``."""
        ranking = self._policy.ranking
        if ranking == "benefit_cost":
            cost = self._costs[period.size_bytes]
            if cost <= 0:
                return float("inf")
            return benefit / cost
        if ranking == "largest_tensor":
            return float(period.size_bytes)
        return float(period.num_free_slots)

    # -- scheduling of one candidate ---------------------------------------------

    def _windows(self, period: InactivePeriod) -> tuple[range, range] | None:
        """Eviction and prefetch windows (kernel-slot ranges) for a period."""
        n = self._num_slots
        if period.wraps_around:
            evict_window = range(min(period.start_slot + 1, n - 1), n)
            fetch_window = range(0, max(period.end_slot - n, 0))
        else:
            evict_window = range(period.start_slot + 1, period.end_slot)
            fetch_window = evict_window
        if len(evict_window) == 0 or len(fetch_window) == 0:
            return None
        return evict_window, fetch_window

    def _ssd_saturated(self, start_slot: int, size_bytes: float) -> bool:
        """The paper's "to_ssd_traffic is full during t_r .. t_r + t_s" test."""
        write_bw = self._config.ssd.write_bandwidth
        ideal_seconds = size_bytes / write_bw
        end_slot = saturation_end_slot(
            self._durations, start_slot, ideal_seconds, self._num_slots
        )
        utilization = self._channels.utilization_window("ssd_write", start_slot, end_slot + 1)
        # The arithmetic of ``utilization.mean()`` without its Python wrapper.
        mean = np.add.reduce(utilization) / len(utilization)
        return bool(mean >= self._policy.ssd_saturation_threshold)

    def _host_has_room(self, period: InactivePeriod) -> bool:
        # Period slots are contiguous (two contiguous pieces when wrapping).
        # Float addition is monotonic, so the largest slot decides for all.
        if period.wraps_around:
            pieces = (
                self._host_used[period.start_slot + 1 :],
                self._host_used[: max(period.end_slot - self._num_slots, 0)],
            )
        else:
            pieces = (self._host_used[period.start_slot + 1 : max(period.end_slot, 0)],)
        peaks = [float(piece.max()) for piece in pieces if piece.size]
        if not peaks:
            return False
        return max(peaks) + period.size_bytes <= self._host_capacity

    def _probe_destination(
        self, period: InactivePeriod, windows: tuple[range, range], to_ssd: bool
    ) -> tuple[int, int] | None:
        """Check feasibility of one destination; return (evict_complete, prefetch_issue)."""
        evict_window, fetch_window = windows
        complete = self._channels.probe_forward(
            period.size_bytes, evict_window.start, evict_window.stop, to_ssd, Direction.OUT
        )
        if complete is None:
            return None
        fetch_floor = fetch_window.start if period.wraps_around else complete + 1
        prefetch_issue = self._channels.probe_backward(
            period.size_bytes, fetch_window.stop, fetch_floor, to_ssd, Direction.IN
        )
        if prefetch_issue is None:
            return None
        if not period.wraps_around and prefetch_issue <= complete:
            # The tensor would need to start coming back before it finished
            # leaving; the migration would not reduce pressure at all.
            return None
        return complete, prefetch_issue

    def _try_schedule(self, period: InactivePeriod) -> _ScheduledMigration | None:
        policy = self._policy
        windows = self._windows(period)
        if windows is None:
            return None
        evict_window, fetch_window = windows

        ssd_probe = self._probe_destination(period, windows, True) if policy.allow_ssd else None
        host_probe = self._probe_destination(period, windows, False) if policy.allow_host else None

        destination: MigrationDestination | None = None
        probe: tuple[int, int] | None = None
        host_ok = host_probe is not None and self._host_has_room(period)
        if ssd_probe is not None:
            saturated = self._ssd_saturated(evict_window.start, period.size_bytes)
            if saturated and host_ok:
                destination, probe = MigrationDestination.HOST, host_probe
            else:
                destination, probe = MigrationDestination.SSD, ssd_probe
        elif host_ok:
            destination, probe = MigrationDestination.HOST, host_probe

        if destination is None or probe is None:
            return None

        to_ssd = destination is MigrationDestination.SSD
        complete, prefetch_issue = probe

        # Reserve bandwidth for both legs of the migration.
        self._channels.reserve(
            period.size_bytes, evict_window.start, to_ssd, Direction.OUT, evict_window.stop
        )
        self._channels.reserve(
            period.size_bytes, prefetch_issue, to_ssd, Direction.IN, fetch_window.stop
        )

        # Update projected memory pressure for the slots the tensor is absent.
        absent = self._absent_slots(period, complete, prefetch_issue)
        self._pressure.apply_eviction(period, absent)
        if destination is MigrationDestination.HOST and absent.size:
            self._host_used[absent] += period.size_bytes

        return _ScheduledMigration(
            period=period,
            destination=destination,
            eviction_complete=complete,
            prefetch_issue=prefetch_issue,
        )

    def _absent_slots(
        self, period: InactivePeriod, eviction_complete: int, prefetch_issue: int
    ) -> np.ndarray:
        n = self._num_slots
        if not period.wraps_around:
            return np.arange(eviction_complete + 1, prefetch_issue, dtype=np.int64)
        tail = np.arange(eviction_complete + 1, n, dtype=np.int64)
        head = np.arange(0, prefetch_issue, dtype=np.int64)
        return np.concatenate([tail, head])

    # -- plan assembly ------------------------------------------------------------

    def _build_plan(self, accepted: list[_ScheduledMigration]) -> MigrationPlan:
        n = self._num_slots
        evictions: list[PlannedEviction] = []
        prefetches: list[PlannedPrefetch] = []
        for migration in accepted:
            period = migration.period
            evictions.append(
                PlannedEviction(
                    tensor_id=period.tensor_id,
                    size_bytes=period.size_bytes,
                    destination=migration.destination,
                    issue_slot=period.start_slot,
                    expected_completion_slot=migration.eviction_complete,
                    period=period,
                )
            )
            # A wrap-around prefetch is issued in the next iteration.
            issue = migration.prefetch_issue
            if period.wraps_around:
                issue += n
            prefetches.append(
                PlannedPrefetch(
                    tensor_id=period.tensor_id,
                    size_bytes=period.size_bytes,
                    source=migration.destination,
                    issue_slot=issue,
                    latest_safe_slot=issue,
                    deadline_slot=period.end_slot,
                    period=period,
                )
            )
        return MigrationPlan(
            gpu_capacity_bytes=float(self._config.gpu.memory_bytes),
            num_slots=n,
            evictions=evictions,
            prefetches=prefetches,
            planned_peak_pressure=self._pressure.peak,
            fits_in_gpu=self._pressure.fits(),
        )
