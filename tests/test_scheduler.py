"""Tests for the smart eviction scheduler, prefetcher and migration plan (§4.3-4.4)."""

import heapq
import itertools
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, SystemConfig, paper_config
from repro.core import (
    ChannelSchedule,
    Direction,
    EvictionPolicyConfig,
    MemoryPressureTimeline,
    MigrationDestination,
    MigrationPlanner,
    SmartEvictionScheduler,
    SmartPrefetcher,
    instrument_program,
)
from repro.core.eviction import saturation_end_slot
from repro.core.plan import MigrationPlan, PlannedEviction, PlannedPrefetch
from repro.core.pressure import period_slot_indices
from repro.core.vitality import InactivePeriod, TensorVitalityAnalyzer, VitalityReport
from repro.errors import SchedulingError
from repro.experiments.figures import _scaled_host_memory
from repro.experiments.harness import build_workload, perturb_trace
from repro.uvm.fault import PageFaultModel


def _small_system(gpu_bytes: int, host_bytes: int = 64 * MB) -> SystemConfig:
    return paper_config().with_gpu_memory(gpu_bytes).with_host_memory(host_bytes)


def _scalar_eviction_benefit(
    pressure: np.ndarray, capacity: float, period: InactivePeriod, num_slots: int
) -> float:
    """Benefit recomputed from the raw pressure curve on every call (fresh
    slice, subtract, clamp, clamp, sum): the oracle for the timeline's
    incrementally maintained excess curve."""
    if period.wraps_around:
        values = np.concatenate(
            [
                pressure[period.start_slot + 1 :],
                pressure[: max(period.end_slot - num_slots, 0)],
            ]
        )
    else:
        values = pressure[period.start_slot + 1 : max(period.end_slot, 0)]
    if values.size == 0:
        return 0.0
    excess = np.maximum(values - capacity, 0.0)
    return float(np.minimum(excess, period.size_bytes).sum())


def _reference_schedule(
    scheduler: SmartEvictionScheduler, report: VitalityReport, policy: EvictionPolicyConfig
) -> tuple[MigrationPlan, int]:
    """A plain copy of Algorithm 1's loop, the oracle for ``schedule()``;
    returns the plan and the number of heap pops.

    It pushes the initial scores one by one, re-checks ``fits()`` on every
    pop and scores with a float64 window sum of the raw curve, twice for a
    pick. It drives the scheduler's own ``_try_schedule`` and ``_build_plan``,
    so a plan that differs from ``schedule()`` points at the loop or the
    benefit.
    """
    timeline, channels = scheduler.pressure, scheduler.channels

    def benefit(period: InactivePeriod) -> float:
        curve = timeline.pressure_view().astype(np.float64)
        return _scalar_eviction_benefit(curve, timeline.capacity, period, timeline.num_slots)

    def score(period: InactivePeriod) -> float:
        if policy.ranking == "largest_tensor":
            return float(period.size_bytes)
        if policy.ranking == "longest_period":
            return float(period.num_free_slots)
        cost = channels.transfer_time(period.size_bytes, True, Direction.OUT) + (
            channels.transfer_time(period.size_bytes, True, Direction.IN)
        )
        return float("inf") if cost <= 0 else benefit(period) / cost

    candidates = [p for p in report.periods if p.num_free_slots > 0]
    heap: list = []
    counter = itertools.count()
    for period in candidates:
        heapq.heappush(heap, (-score(period), next(counter), period))
    accepted = []
    max_iterations = policy.max_iterations or 20 * max(len(candidates), 1)
    iterations = 0
    while heap and not timeline.fits() and iterations < max_iterations:
        iterations += 1
        _, _, period = heapq.heappop(heap)
        fresh = score(period)
        if heap and fresh < -heap[0][0] - 1e-12:
            heapq.heappush(heap, (-fresh, next(counter), period))
            continue
        if benefit(period) <= 0.0:
            break
        migration = scheduler._try_schedule(period)
        if migration is not None:
            accepted.append(migration)
    return scheduler._build_plan(accepted), iterations


# Whole-byte curves, as the vitality report builds them (float64 sums of
# integer tensor sizes).
pressure_curves = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=2, max_size=24
).map(lambda values: np.asarray(values, dtype=np.float64))

# Slot durations spanning several orders of magnitude, so per-slot capacities
# do too, and transfer sizes from sub-nanobyte remainders to many slots' worth.
slot_durations = st.lists(
    st.floats(min_value=1e-5, max_value=0.5, allow_nan=False), min_size=1, max_size=24
)
positive_sizes = st.one_of(
    st.floats(min_value=1e-12, max_value=1e-9),
    st.floats(min_value=1.0, max_value=5e9, allow_nan=False),
)
transfer_sizes = st.one_of(st.just(0.0), positive_sizes)
combos = st.tuples(st.booleans(), st.sampled_from([Direction.OUT, Direction.IN]))
probe_lists = st.lists(st.tuples(transfer_sizes, combos), min_size=1, max_size=8)


@st.composite
def reserved_schedules(draw):
    """A schedule after random reservations, which exhaust slots and so leave
    the skip indices with work to do."""
    durations = draw(slot_durations)
    schedule = ChannelSchedule(np.asarray(durations, dtype=np.float64), paper_config())
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        to_ssd, direction = draw(combos)
        start = draw(st.integers(min_value=0, max_value=len(durations) - 1))
        try:
            schedule.reserve(draw(transfer_sizes), start, to_ssd, direction)
        except SchedulingError:
            pass  # a zero-size reserve past the last open slot
    return schedule


def _linear_walk(schedule, size, slots, to_ssd, direction):
    """A probe without skip indices: subtract every slot's availability in
    walk order. Exhausted slots hold exactly 0.0, so skipping them cannot
    change the result."""
    available = schedule.available_bytes(to_ssd, direction, np.arange(schedule.num_slots))
    remaining = float(size)
    for slot in slots:
        remaining -= float(available[slot])
        if remaining <= 0:
            return slot
    return None


class TestMemoryPressureTimeline:
    def test_excess_and_benefit(self):
        timeline = MemoryPressureTimeline(np.array([10.0, 30.0, 30.0, 10.0]), 20.0)
        assert timeline.total_excess == pytest.approx(20.0)
        period = InactivePeriod(tensor_id=1, size_bytes=15, start_slot=0, end_slot=3)
        assert timeline.eviction_benefit(period) == pytest.approx(20.0)

    def test_benefit_capped_by_tensor_size(self):
        timeline = MemoryPressureTimeline(np.array([10.0, 50.0, 10.0]), 20.0)
        period = InactivePeriod(tensor_id=1, size_bytes=5, start_slot=0, end_slot=2)
        assert timeline.eviction_benefit(period) == pytest.approx(5.0)

    def test_apply_eviction_reduces_pressure(self):
        timeline = MemoryPressureTimeline(np.array([10.0, 30.0, 30.0, 10.0]), 20.0)
        period = InactivePeriod(tensor_id=1, size_bytes=15, start_slot=0, end_slot=3)
        timeline.apply_eviction(period, np.array([1, 2]))
        assert timeline.peak == pytest.approx(15.0)
        assert timeline.fits()

    def test_double_eviction_detected(self):
        timeline = MemoryPressureTimeline(np.array([10.0, 12.0]), 20.0)
        period = InactivePeriod(tensor_id=1, size_bytes=11, start_slot=0, end_slot=2)
        timeline.apply_eviction(period, np.array([1]))
        with pytest.raises(SchedulingError):
            timeline.apply_eviction(period, np.array([1]))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SchedulingError):
            MemoryPressureTimeline(np.array([1.0]), 0.0)

    def test_period_slot_indices_wraparound(self):
        period = InactivePeriod(tensor_id=0, size_bytes=8, start_slot=7, end_slot=12, wraps_around=True)
        assert list(period_slot_indices(period, 10)) == [8, 9, 0, 1]

    @settings(max_examples=200, deadline=None)
    @given(
        pressure_curves,
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
        st.data(),
    )
    def test_benefit_matches_recomputed_excess_bit_for_bit(self, curve, capacity, size, data):
        n = len(curve)
        wraps = data.draw(st.booleans())
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        if wraps:
            end = data.draw(st.integers(min_value=n, max_value=2 * n - 1))
        else:
            end = data.draw(st.integers(min_value=start + 1, max_value=n))
        period = InactivePeriod(
            tensor_id=1, size_bytes=size, start_slot=start, end_slot=end, wraps_around=wraps
        )
        timeline = MemoryPressureTimeline(curve, capacity)
        assert timeline.eviction_benefit(period) == _scalar_eviction_benefit(
            curve, capacity, period, n
        )

    @pytest.mark.parametrize(
        "curve",
        [
            [1.0, np.nan], [1.0, np.inf], [1.0, -np.inf], [1.0, -2.0], [-1, 3], [1.0, 2.5],
            [2.0**53, 1.0],
        ],
        ids=["nan", "inf", "-inf", "negative", "negative-int", "fractional", "beyond-2**53"],
    )
    def test_non_whole_byte_pressure_rejected(self, curve):
        with pytest.raises(SchedulingError):
            MemoryPressureTimeline(np.array(curve), 20)

    @pytest.mark.parametrize("capacity", [np.nan, np.inf, 20.5, 2**53])
    def test_non_whole_byte_capacity_rejected(self, capacity):
        with pytest.raises(SchedulingError):
            MemoryPressureTimeline(np.array([10.0, 30.0]), capacity)

    def test_whole_byte_floats_are_accepted_exactly(self):
        top = float(2**53 - 1)
        timeline = MemoryPressureTimeline(np.array([top, 0.0]), 20.0)
        assert timeline.pressure.tolist() == [2**53 - 1, 0]
        assert timeline.peak == top
        period = InactivePeriod(1, size_bytes=2**52, start_slot=1, end_slot=3, wraps_around=True)
        assert timeline.eviction_benefit(period) == 2**52

    def test_fractional_added_bytes_rejected(self):
        timeline = MemoryPressureTimeline(np.array([10.0, 30.0]), 20)
        for amount in (1.5, np.nan, np.inf):
            with pytest.raises(SchedulingError):
                timeline.add_bytes(np.array([0]), amount)
        timeline.add_bytes(np.array([0]), 4.0)
        assert timeline.pressure.tolist() == [14, 30]

    def test_rejected_eviction_leaves_the_curve_unchanged(self):
        timeline = MemoryPressureTimeline(np.array([10.0, 30.0, 5.0]), 20)
        period = InactivePeriod(tensor_id=1, size_bytes=8, start_slot=0, end_slot=3)
        with pytest.raises(SchedulingError):
            timeline.apply_eviction(period, np.array([1, 2]))
        assert timeline.pressure.tolist() == [10, 30, 5]
        assert timeline.eviction_benefit(period) == 8.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**42), min_size=1, max_size=64),
        st.integers(min_value=1, max_value=2**42),
        st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=3),
        st.data(),
    )
    def test_benefit_tracks_every_mutation(self, curve, capacity, sizes, data):
        """Interleaved mutations and benefits against a Python-int model of
        the curve: a prefix sum that outlives a mutation returns a stale sum.
        Few distinct sizes, so prefixes are reused across mutations."""
        n = len(curve)
        model = list(curve)
        timeline = MemoryPressureTimeline(np.asarray(curve, dtype=np.int64), capacity)
        for _ in range(data.draw(st.integers(min_value=1, max_value=24))):
            size = data.draw(st.sampled_from(sizes))
            start = data.draw(st.integers(min_value=0, max_value=n - 1))
            action = data.draw(st.sampled_from(["benefit", "evict", "add"]))
            if action == "benefit":
                wraps = data.draw(st.booleans())
                end = data.draw(
                    st.integers(min_value=n, max_value=2 * n - 1) if wraps
                    else st.integers(min_value=start + 1, max_value=n)
                )
                period = InactivePeriod(1, size, start, end, wraps_around=wraps)
                window = range(start + 1, end)
                expected = sum(min(max(model[s % n] - capacity, 0), size) for s in window)
                assert timeline.eviction_benefit(period) == expected
                continue
            stop = data.draw(st.integers(min_value=start, max_value=start + n))
            slots = [s % n for s in range(start, stop)]
            if action == "add":
                timeline.add_bytes(np.asarray(slots, dtype=np.int64), size)
                for s in set(slots):
                    model[s] += size
                continue
            period = InactivePeriod(1, size, 0, n + 1)
            slots = sorted(set(slots))
            if any(model[s] < size for s in slots):
                with pytest.raises(SchedulingError):
                    timeline.apply_eviction(period, np.asarray(slots, dtype=np.int64))
            else:
                timeline.apply_eviction(period, np.asarray(slots, dtype=np.int64))
                for s in slots:
                    model[s] -= size
        assert timeline.pressure.tolist() == model


class TestChannelSchedule:
    def _schedule(self, slots: int = 10) -> ChannelSchedule:
        return ChannelSchedule(np.full(slots, 0.1), paper_config())

    def test_transfer_time_ssd_slower_than_host(self):
        schedule = self._schedule()
        ssd = schedule.transfer_time(1e9, to_ssd=True, direction=Direction.OUT)
        host = schedule.transfer_time(1e9, to_ssd=False, direction=Direction.OUT)
        assert ssd > host

    def test_probe_forward_finds_completion(self):
        schedule = self._schedule()
        config = paper_config()
        size = config.ssd.write_bandwidth * 0.25  # needs ~2.5 slots of 0.1 s
        assert schedule.probe_forward(size, 0, 10, to_ssd=True) == 2

    def test_probe_forward_detects_congestion(self):
        schedule = self._schedule(slots=3)
        config = paper_config()
        size = config.ssd.write_bandwidth * 10
        assert schedule.probe_forward(size, 0, 3, to_ssd=True) is None

    def test_reserve_consumes_capacity(self):
        schedule = self._schedule()
        config = paper_config()
        size = config.ssd.write_bandwidth * 0.1
        first = schedule.probe_forward(size, 0, 10, to_ssd=True)
        schedule.reserve(size, 0, to_ssd=True, direction=Direction.OUT)
        second = schedule.probe_forward(size, 0, 10, to_ssd=True)
        assert second > first

    def test_probe_backward_symmetry(self):
        schedule = self._schedule()
        config = paper_config()
        size = config.ssd.read_bandwidth * 0.15
        start = schedule.probe_backward(size, 10, 0, to_ssd=True)
        assert start == 8

    def test_pcie_shared_between_ssd_and_host(self):
        schedule = self._schedule()
        config = paper_config()
        # Saturate pcie_out with host traffic, then SSD writes can't be placed.
        schedule.reserve(config.interconnect.bandwidth * 1.0, 0, to_ssd=False, direction=Direction.OUT)
        remaining = schedule.available_bytes(True, Direction.OUT, np.arange(10)).sum()
        assert remaining == pytest.approx(0.0, abs=1e-3)

    def test_direction_hashes_by_identity(self):
        for member in Direction:
            assert hash(member) == object.__hash__(member)
            assert pickle.loads(pickle.dumps(member)) is member
        table = {(True, Direction.OUT): "evict", (True, Direction.IN): "fetch"}
        assert table[(True, Direction("in"))] == "fetch"
        assert {Direction.OUT: 1, Direction.IN: 2}[Direction("out")] == 1

    def test_utilization_counts_an_exhausted_slot_as_fully_used(self):
        schedule = ChannelSchedule(np.full(4, 0.01), paper_config())
        first = float(schedule.available_bytes(True, Direction.OUT, np.arange(1))[0])
        schedule.reserve(first + first / 4, 0, True, Direction.OUT)
        assert schedule.utilization_window("ssd_write", 0, 4).tolist() == [1.0, 0.25, 0.0, 0.0]

    def test_invalid_durations_rejected(self):
        with pytest.raises(SchedulingError):
            ChannelSchedule(np.array([0.0, 0.1]), paper_config())
        with pytest.raises(SchedulingError):
            ChannelSchedule(np.array([]), paper_config())

    def test_tiny_positive_reserve_consumes_from_first_open_slot(self):
        schedule = ChannelSchedule(np.full(4, 0.01), paper_config())
        slots = np.arange(4)
        before = schedule.available_bytes(True, Direction.OUT, slots).tolist()
        assert schedule.reserve(5e-10, 0, True, Direction.OUT) == 0
        after = schedule.available_bytes(True, Direction.OUT, slots).tolist()
        assert after == [before[0] - 5e-10, *before[1:]]

    def test_zero_size_reserve_returns_first_open_slot_without_consuming(self):
        schedule = ChannelSchedule(np.full(3, 0.01), paper_config())
        before = schedule.available_bytes(True, Direction.OUT, np.arange(3)).tolist()
        # Exhaust slot 0 so the first open slot is 1.
        schedule.reserve(before[0], 0, True, Direction.OUT, end_slot=1)
        assert schedule.reserve(0.0, 0, True, Direction.OUT) == 1
        after = schedule.available_bytes(True, Direction.OUT, np.arange(3)).tolist()
        assert after == [0.0, before[1], before[2]]

    def test_zero_size_reserve_raises_when_window_exhausted(self):
        schedule = ChannelSchedule(np.full(2, 0.01), paper_config())
        capacity = float(schedule.available_bytes(True, Direction.OUT, np.arange(2)).sum())
        schedule.reserve(capacity, 0, True, Direction.OUT)
        with pytest.raises(SchedulingError):
            schedule.reserve(0.0, 0, True, Direction.OUT, end_slot=2)

    def test_utilization_window_matches_full_curve_slice(self):
        schedule = ChannelSchedule(np.full(8, 0.01), paper_config())
        schedule.reserve(float(2**20), 1, True, Direction.OUT)
        full = schedule.utilization("ssd_write")
        window = schedule.utilization_window("ssd_write", 2, 6)
        assert window.tolist() == full[2:6].tolist()

    def test_transfer_time_is_latency_plus_size_over_slower_link(self):
        config = paper_config()
        link = config.interconnect
        schedule = self._schedule()
        ssd = config.ssd.read_latency + link.latency + 1e9 / min(
            link.bandwidth, config.ssd.read_bandwidth
        )
        host = link.latency + 1e9 / min(link.bandwidth, config.host_bandwidth)
        assert schedule.transfer_time(1e9, True, Direction.IN) == ssd
        assert schedule.transfer_time(1e9, False, Direction.IN) == host

    @settings(max_examples=200, deadline=None)
    @given(reserved_schedules(), probe_lists, st.data())
    def test_probe_forward_matches_linear_walk(self, schedule, probes, data):
        n = schedule.num_slots
        for size, (to_ssd, direction) in probes:
            start = data.draw(st.integers(min_value=0, max_value=n))
            end = data.draw(st.integers(min_value=0, max_value=n + 2))
            limit = min(end, n)
            if start >= limit:
                expected = None
            elif size <= 0:
                expected = start
            else:
                expected = _linear_walk(schedule, size, range(start, limit), to_ssd, direction)
            assert schedule.probe_forward(size, start, end, to_ssd, direction) == expected

    @settings(max_examples=200, deadline=None)
    @given(reserved_schedules(), probe_lists, st.data())
    def test_probe_backward_matches_linear_walk(self, schedule, probes, data):
        n = schedule.num_slots
        for size, (to_ssd, direction) in probes:
            start = data.draw(st.integers(min_value=0, max_value=n))
            end = data.draw(st.integers(min_value=0, max_value=n + 2))
            top = min(end, n) - 1
            if top < start:
                expected = None
            elif size <= 0:
                expected = top
            else:
                slots = range(top, start - 1, -1)
                expected = _linear_walk(schedule, size, slots, to_ssd, direction)
            assert schedule.probe_backward(size, end, start, to_ssd, direction) == expected

    @settings(max_examples=200, deadline=None)
    @given(reserved_schedules(), positive_sizes, combos, st.data())
    def test_reserve_completes_by_the_probed_slot(self, schedule, size, combo, data):
        n = schedule.num_slots
        to_ssd, direction = combo
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=n))
        probed = schedule.probe_forward(size, start, end, to_ssd, direction)
        if probed is None:
            return
        assert start <= schedule.reserve(size, start, to_ssd, direction, end_slot=end) <= probed
        for flags in ((False, Direction.OUT), (True, Direction.OUT),
                      (False, Direction.IN), (True, Direction.IN)):
            assert schedule.available_bytes(*flags, np.arange(n)).min() >= 0.0


class TestSaturationWindow:
    def test_window_covers_ideal_transfer_time(self):
        durations = [0.1] * 6
        # 0.1 + 0.1 + 0.1 is the first running sum to reach 0.25.
        assert saturation_end_slot(durations, 0, 0.25, 6) == 3
        assert saturation_end_slot(durations, 2, 0.1, 6) == 3

    def test_window_stops_at_last_slot(self):
        assert saturation_end_slot([0.1] * 4, 1, 10.0, 4) == 3

    def test_non_positive_ideal_time_is_an_empty_window(self):
        durations = [0.1] * 4
        assert saturation_end_slot(durations, 1, 0.0, 4) == 1
        assert saturation_end_slot(durations, 1, -1.0, 4) == 1

    def test_start_at_last_slot(self):
        assert saturation_end_slot([0.1] * 4, 3, 1.0, 4) == 3

    @settings(max_examples=200, deadline=None)
    @given(slot_durations, st.floats(min_value=0.0, max_value=2.0, allow_nan=False), st.data())
    def test_window_is_shortest_prefix_covering_ideal_time(self, durations, ideal, data):
        n = len(durations)
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        end = saturation_end_slot(durations, start, ideal, n)
        assert start <= end <= n - 1
        covered = list(itertools.accumulate(durations[start:end], initial=0.0))
        # Every shorter window falls short of the ideal time, and the window
        # itself covers it unless it stopped at the iteration's last slot.
        assert all(total < ideal for total in covered[:-1])
        assert covered[-1] >= ideal or end == n - 1


class TestEagerPrefetchSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        pressure_curves,
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
        st.data(),
    )
    def test_earliest_issue_is_lowest_slot_with_headroom(self, curve, capacity, size, data):
        n = len(curve)
        issue = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
        earliest = data.draw(st.integers(min_value=0, max_value=issue))
        timeline = MemoryPressureTimeline(curve, capacity)
        prefetch = SimpleNamespace(issue_slot=issue, size_bytes=size)
        result = SmartPrefetcher(timeline)._earliest_issue(prefetch, earliest, n)
        pressure = timeline.pressure_view()

        def fits(slot: int) -> bool:
            return pressure[slot % n] + size <= capacity

        assert earliest <= result <= issue
        assert all(fits(slot) for slot in range(result, issue))
        assert result == earliest or not fits(result - 1)


class TestFaultBatches:
    def test_batch_count_edge_cases(self):
        model = PageFaultModel(paper_config().uvm)
        batch = model.config.fault_batch_bytes
        cases = {-4096: 0, 0: 0, 1: 1, 3 * batch: 3, 3 * batch + 1: 4}
        for size, batches in cases.items():
            assert model.fault_batches(size) == batches
            assert model.fault_overhead(size) == batches * model.config.fault_latency

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(2**20), max_value=2**40))
    def test_fewest_batches_that_cover_the_size(self, size):
        model = PageFaultModel(paper_config().uvm)
        batch = model.config.fault_batch_bytes
        batches = model.fault_batches(size)
        if size <= 0:
            assert batches == 0
        else:
            assert (batches - 1) * batch < size <= batches * batch
        assert model.fault_overhead(size) == batches * model.config.fault_latency


class TestPlanStructures:
    def test_eviction_validation(self):
        period = InactivePeriod(tensor_id=1, size_bytes=10, start_slot=0, end_slot=4)
        with pytest.raises(SchedulingError):
            PlannedEviction(1, 0, MigrationDestination.SSD, 0, 1, period)
        with pytest.raises(SchedulingError):
            PlannedEviction(1, 10, MigrationDestination.SSD, 3, 1, period)

    def test_prefetch_validation(self):
        period = InactivePeriod(tensor_id=1, size_bytes=10, start_slot=0, end_slot=4)
        with pytest.raises(SchedulingError):
            PlannedPrefetch(1, 10, MigrationDestination.SSD, issue_slot=3,
                            latest_safe_slot=2, deadline_slot=4, period=period)

    def test_plan_grouping_and_stats(self):
        period = InactivePeriod(tensor_id=1, size_bytes=10, start_slot=0, end_slot=4)
        eviction = PlannedEviction(1, 10, MigrationDestination.HOST, 0, 1, period)
        prefetch = PlannedPrefetch(1, 10, MigrationDestination.HOST, 3, 3, 4, period)
        plan = MigrationPlan(gpu_capacity_bytes=100, num_slots=5,
                             evictions=[eviction], prefetches=[prefetch])
        assert plan.evictions_by_slot() == {0: [eviction]}
        assert plan.prefetches_by_slot() == {3: [prefetch]}
        assert plan.bytes_to(MigrationDestination.HOST) == 10
        assert plan.bytes_to(MigrationDestination.SSD) == 0
        assert plan.eviction_for_period(period) is eviction


class TestEvictionScheduler:
    def _plan_for(self, report, config, **policy_kwargs):
        scheduler = SmartEvictionScheduler(report, config, EvictionPolicyConfig(**policy_kwargs))
        return scheduler, scheduler.schedule()

    def test_no_evictions_when_workload_fits(self, tiny_training, tiny_report, paper_cfg):
        _, plan = self._plan_for(tiny_report, paper_cfg)
        assert plan.num_evictions == 0
        assert plan.fits_in_gpu

    def test_evictions_appear_under_pressure(self, tiny_training, tiny_report):
        config = _small_system(int(tiny_report.peak_pressure * 0.5))
        scheduler, plan = self._plan_for(tiny_report, config)
        assert plan.num_evictions > 0
        assert plan.planned_peak_pressure < tiny_report.peak_pressure

    def test_every_eviction_has_matching_prefetch(self, tiny_report):
        config = _small_system(int(tiny_report.peak_pressure * 0.5))
        _, plan = self._plan_for(tiny_report, config)
        assert plan.num_prefetches == plan.num_evictions
        for eviction, prefetch in zip(plan.evictions, plan.prefetches_sorted()
                                      if hasattr(plan, "prefetches_sorted") else plan.prefetches):
            assert prefetch.size_bytes > 0

    def test_prefetch_never_before_eviction_completes(self, tiny_report):
        config = _small_system(int(tiny_report.peak_pressure * 0.5))
        _, plan = self._plan_for(tiny_report, config)
        prefetch_by_period = {id(p.period): p for p in plan.prefetches}
        for eviction in plan.evictions:
            prefetch = prefetch_by_period[id(eviction.period)]
            if not eviction.period.wraps_around:
                assert prefetch.issue_slot > eviction.expected_completion_slot

    def test_gds_variant_never_uses_host(self, tiny_report):
        config = _small_system(int(tiny_report.peak_pressure * 0.5))
        _, plan = self._plan_for(tiny_report, config, allow_host=False)
        assert plan.bytes_to(MigrationDestination.HOST) == 0

    def test_planned_peak_never_increases(self, tiny_report):
        config = _small_system(int(tiny_report.peak_pressure * 0.5))
        scheduler, plan = self._plan_for(tiny_report, config)
        assert plan.planned_peak_pressure <= tiny_report.peak_pressure + 1e-6

    def test_alternative_rankings_still_reduce_pressure(self, tiny_report):
        config = _small_system(int(tiny_report.peak_pressure * 0.5))
        for ranking in ("largest_tensor", "longest_period"):
            _, plan = self._plan_for(tiny_report, config, ranking=ranking)
            assert plan.planned_peak_pressure <= tiny_report.peak_pressure

    def test_invalid_policy_rejected(self):
        with pytest.raises(SchedulingError):
            EvictionPolicyConfig(allow_ssd=False, allow_host=False)
        with pytest.raises(SchedulingError):
            EvictionPolicyConfig(ranking="fifo")
        with pytest.raises(SchedulingError):
            EvictionPolicyConfig(ssd_saturation_threshold=0.0)

    def test_benefit_cost_beats_naive_rankings(self, bert_ci_workload):
        """The paper's benefit/cost ranking should clear at least as much excess."""
        report = bert_ci_workload.report
        config = bert_ci_workload.config
        peaks = {}
        for ranking in ("benefit_cost", "largest_tensor", "longest_period"):
            scheduler = SmartEvictionScheduler(report, config, EvictionPolicyConfig(ranking=ranking))
            peaks[ranking] = scheduler.schedule().planned_peak_pressure
        assert peaks["benefit_cost"] <= min(peaks.values()) * 1.05


class TestSmartPrefetcher:
    def test_prefetches_move_earlier_not_later(self, bert_ci_workload):
        report = bert_ci_workload.report
        config = bert_ci_workload.config
        scheduler = SmartEvictionScheduler(report, config)
        plan = scheduler.schedule()
        latest = {id(p.period): p.issue_slot for p in plan.prefetches}
        optimized = SmartPrefetcher(scheduler.pressure).optimize(plan)
        assert optimized.num_prefetches == plan.num_prefetches
        for prefetch in optimized.prefetches:
            assert prefetch.issue_slot <= latest[id(prefetch.period)]
            assert prefetch.issue_slot <= prefetch.latest_safe_slot

    def test_eager_prefetch_respects_capacity(self, bert_ci_workload):
        report = bert_ci_workload.report
        config = bert_ci_workload.config
        scheduler = SmartEvictionScheduler(report, config)
        plan = scheduler.schedule()
        before_peak = scheduler.pressure.peak
        optimized = SmartPrefetcher(scheduler.pressure).optimize(plan)
        # Eager prefetching may fill spare headroom but must not create new
        # overflow beyond what the eviction pass already left.
        assert optimized.planned_peak_pressure <= max(before_peak, config.gpu.memory_bytes) + 1e-6


class TestMigrationPlanner:
    def test_planner_end_to_end(self, bert_ci_workload):
        planner = MigrationPlanner(bert_ci_workload.config)
        result = planner.plan_from_report(bert_ci_workload.report)
        assert result.baseline_peak_pressure >= result.planned_peak_pressure
        assert result.plan.num_slots == bert_ci_workload.graph.num_kernels

    def test_eager_prefetch_toggle(self, bert_ci_workload):
        eager = MigrationPlanner(bert_ci_workload.config, eager_prefetch=True)
        lazy = MigrationPlanner(bert_ci_workload.config, eager_prefetch=False)
        eager_plan = eager.plan_from_report(bert_ci_workload.report).plan
        lazy_plan = lazy.plan_from_report(bert_ci_workload.report).plan
        eager_issue = sum(p.issue_slot for p in eager_plan.prefetches)
        lazy_issue = sum(p.issue_slot for p in lazy_plan.prefetches)
        assert eager_issue <= lazy_issue

    def test_instrumented_program_contains_plan(self, bert_ci_workload):
        planner = MigrationPlanner(bert_ci_workload.config)
        result = planner.plan_from_report(bert_ci_workload.report)
        program = instrument_program(
            bert_ci_workload.graph, bert_ci_workload.report, result.plan
        )
        text = program.text()
        assert "g10_alloc" in text and "g10_free" in text
        if result.plan.num_evictions:
            assert "g10_pre_evict" in text
            assert "g10_prefetch" in text
        assert program.num_instructions >= result.plan.num_evictions


class TestSchedulerProperties:
    @given(
        capacity_fraction=st.floats(min_value=0.3, max_value=1.2),
    )
    @settings(max_examples=12, deadline=None)
    def test_plan_invariants_across_capacities(self, capacity_fraction, tiny_report):
        """For any GPU capacity, the plan never increases pressure and pairs
        every eviction with a prefetch of the same tensor."""
        capacity = max(int(tiny_report.peak_pressure * capacity_fraction), 4 * MB)
        config = _small_system(capacity)
        scheduler = SmartEvictionScheduler(tiny_report, config)
        plan = scheduler.schedule()
        assert plan.planned_peak_pressure <= tiny_report.peak_pressure + 1e-6
        evicted = sorted(e.tensor_id for e in plan.evictions)
        prefetched = sorted(p.tensor_id for p in plan.prefetches)
        assert evicted == prefetched


_ORACLE_POLICIES = {
    "g10": EvictionPolicyConfig(),
    "g10_gds": EvictionPolicyConfig(allow_host=False),
    "largest_tensor": EvictionPolicyConfig(ranking="largest_tensor"),
    "longest_period": EvictionPolicyConfig(ranking="longest_period"),
}


def _assert_matches_reference(report, config, policy) -> int:
    """``schedule()`` and the reference loop give equal plans and final
    pressure curves; returns the reference's pop count."""
    scheduler = SmartEvictionScheduler(report, config, policy)
    plan = scheduler.schedule()
    reference = SmartEvictionScheduler(report, config, policy)
    expected, pops = _reference_schedule(reference, report, policy)
    assert plan.evictions == expected.evictions
    assert plan.prefetches == expected.prefetches
    assert repr(plan.planned_peak_pressure) == repr(expected.planned_peak_pressure)
    assert plan.fits_in_gpu == expected.fits_in_gpu
    assert plan == expected
    assert scheduler.pressure.pressure.tolist() == reference.pressure.pressure.tolist()
    return pops


class TestAlgorithmOneOracle:
    """``schedule()`` against the reference loop on real workloads."""

    @pytest.mark.parametrize("policy", sorted(_ORACLE_POLICIES))
    @pytest.mark.parametrize("model", ["bert", "inceptionv3", "resnet152", "senet154", "vit"])
    def test_ci_models(self, model, policy):
        workload = build_workload(model, scale="ci")
        _assert_matches_reference(workload.report, workload.config, _ORACLE_POLICIES[policy])

    @pytest.mark.parametrize(
        "batch_size, host_gb",
        [(256, None), (320, None), (320, 32), (320, 64), (320, 256)],
    )
    def test_ci_inception_schedules_that_stop_at_the_pop_cap(self, batch_size, host_gb):
        """The CI report's five schedules that end after 20 × candidates pops
        (Figure 15's batch sweep and Figure 16/17's host-memory sweep), where
        the plan depends on the heap's whole history, not only on ties."""
        workload = build_workload("inceptionv3", batch_size=batch_size, scale="ci")
        config = workload.config
        if host_gb is not None:
            config = config.with_host_memory(_scaled_host_memory(host_gb, "inceptionv3", "ci"))
        pops = _assert_matches_reference(workload.report, config, EvictionPolicyConfig())
        candidates = sum(1 for p in workload.report.periods if p.num_free_slots > 0)
        assert pops == 20 * candidates

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "model, batch_size, policy, noise",
        [
            ("resnet152", 1536, "g10", 0.0),
            ("resnet152", 1536, "g10_gds", 0.0),
            ("senet154", None, "g10", 0.0),
            ("vit", None, "g10", 0.0),
            ("resnet152", 1536, "g10", 0.1),
        ],
    )
    def test_paper_scale_planner_cells(self, model, batch_size, policy, noise):
        """perfbench's ``planner_cells`` schedules (the noisy one at seed 0)."""
        workload = build_workload(model, batch_size=batch_size, scale="paper")
        report = workload.report
        if noise:
            report = TensorVitalityAnalyzer(perturb_trace(workload.graph, noise, 0)).analyze()
        _assert_matches_reference(report, workload.config, _ORACLE_POLICIES[policy])
