"""Tests for the smart eviction scheduler, prefetcher and migration plan (§4.3-4.4)."""

import itertools
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
from repro.core.vitality import InactivePeriod, TensorVitalityAnalyzer
from repro.errors import SchedulingError
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


pressure_curves = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=2, max_size=24
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
        st.floats(min_value=1.0, max_value=1e9),
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
        st.floats(min_value=1.0, max_value=1e9),
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
