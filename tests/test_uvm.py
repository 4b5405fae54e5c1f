"""Tests for the unified memory substrate: address space, page table, pools, engine."""

import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, UVMConfig, paper_config
from repro.errors import AllocationError, SimulationError, TranslationError
from repro.ssd import SSDDevice
from repro.uvm import (
    MemoryLocation,
    MemoryPool,
    MigrationEngine,
    MigrationKind,
    MigrationRequest,
    PageFaultModel,
    TLB,
    UnifiedAddressSpace,
    UnifiedPageTable,
)
from repro.sim.policy import MigrationDecision
from repro.sim.results import KernelTiming
from repro.uvm.address_space import VirtualRange


class TestAddressSpace:
    def test_allocation_is_page_aligned_and_disjoint(self):
        space = UnifiedAddressSpace()
        a = space.allocate(1, 10_000)
        b = space.allocate(2, 5_000)
        assert a.start % 4096 == 0 and b.start % 4096 == 0
        assert a.end <= b.start

    def test_allocation_is_idempotent(self):
        space = UnifiedAddressSpace()
        assert space.allocate(1, 4096) == space.allocate(1, 4096)

    def test_reverse_lookup(self):
        space = UnifiedAddressSpace()
        vrange = space.allocate(7, 20_000)
        assert space.tensor_at(vrange.start) == 7
        assert space.tensor_at(vrange.end - 1) == 7
        with pytest.raises(TranslationError):
            space.tensor_at(vrange.end + 4096 * 10)

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            UnifiedAddressSpace().allocate(1, 0)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=10 * MB), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_ranges_never_overlap(self, sizes):
        space = UnifiedAddressSpace()
        ranges = [space.allocate(i, size) for i, size in enumerate(sizes)]
        for first, second in zip(ranges, ranges[1:]):
            assert first.end <= second.start
        assert space.total_mapped_bytes >= sum(sizes)

    @given(
        first_page=st.integers(0, 1 << 20),
        size=st.integers(1, 64 * 4096),
        page_size=st.sampled_from([512, 4096, 65536]),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_page_arithmetic(self, first_page, size, page_size):
        vrange = VirtualRange(first_page * page_size, size, page_size)
        assert vrange.first_page == first_page
        assert vrange.num_pages == math.ceil(size / page_size)
        assert vrange.end == (first_page + vrange.num_pages) * page_size
        assert vrange.end - vrange.start >= size > vrange.end - vrange.start - page_size
        assert list(vrange.pages()) == list(range(first_page, first_page + vrange.num_pages))

    def test_range_identity_is_its_declared_fields(self):
        a = VirtualRange(8192, 5000)
        b = VirtualRange(8192, 5000)
        assert a == b and hash(a) == hash(b)
        assert a != VirtualRange(8192, 9000)
        assert repr(a) == "VirtualRange(start=8192, size_bytes=5000, page_size=4096)"
        grown = replace(a, size_bytes=9000)
        assert (grown.num_pages, grown.end) == (3, 8192 + 3 * 4096)
        with pytest.raises(FrozenInstanceError):
            a.num_pages = 7


class TestPageTable:
    def _table(self) -> UnifiedPageTable:
        return UnifiedPageTable(UnifiedAddressSpace())

    def test_place_and_translate(self):
        table = self._table()
        vrange = table.register(1, 3 * 4096)
        table.place(1, MemoryLocation.GPU)
        entry = table.translate(vrange.start + 4096)
        assert entry.location is MemoryLocation.GPU
        assert entry.is_resident_on_gpu

    def test_unmapped_translation_rejected(self):
        table = self._table()
        vrange = table.register(1, 4096)
        with pytest.raises(TranslationError):
            table.translate(vrange.start)

    def test_location_transitions(self):
        table = self._table()
        table.register(1, 4096)
        for location in (MemoryLocation.GPU, MemoryLocation.HOST, MemoryLocation.FLASH):
            table.place(1, location)
            assert table.location_of(1) is location
        assert not table.is_resident(1)

    def test_pte_update_count_tracks_pages(self):
        table = self._table()
        table.register(1, 10 * 4096)
        updated = table.place(1, MemoryLocation.GPU)
        assert updated == 10
        assert table.pte_updates == 10

    def test_gc_remap_requires_flash_residency(self):
        table = self._table()
        table.register(1, 4096)
        table.place(1, MemoryLocation.GPU)
        with pytest.raises(TranslationError):
            table.remap_flash_pages(1, new_base=100)
        table.place(1, MemoryLocation.FLASH)
        assert table.remap_flash_pages(1, new_base=100) == 1

    def test_ssd_alias_is_flash(self):
        assert MemoryLocation.SSD is MemoryLocation.FLASH

    def test_unregistered_tensor_rejected(self):
        with pytest.raises(TranslationError):
            self._table().place(5, MemoryLocation.GPU)


class TestTLB:
    def test_hit_after_miss(self):
        tlb = TLB(entries=4)
        assert tlb.access(1) is False
        assert tlb.access(1) is True
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.access(1)
        tlb.access(2)
        tlb.access(3)  # evicts 1
        assert tlb.access(1) is False

    def test_invalidate_and_flush(self):
        tlb = TLB(entries=4)
        tlb.access(1)
        tlb.invalidate(1)
        assert tlb.access(1) is False
        tlb.flush()
        assert tlb.access(1) is False
        assert 0.0 <= tlb.hit_rate <= 1.0


class TestMemoryPool:
    def test_allocation_rounds_to_pages(self):
        pool = MemoryPool("gpu", capacity_bytes=3 * 4096)
        pool.allocate(1, 5000)
        assert pool.used_bytes == 2 * 4096

    @given(
        size=st.integers(0, 2**53 - 1)
        | st.sampled_from([0, 1, 4095, 4096, 4097, 2**53 - 1, 2**53 - 4096, 2**52 + 1]),
        page_size=st.integers(1, 1 << 21) | st.sampled_from([1, 3, 4096, 65536]),
    )
    @settings(max_examples=300, deadline=None)
    def test_rounding_matches_the_float_ceiling_below_2_53(self, size, page_size):
        # The float formula the integer ceiling division replaced.
        expected = max(1, math.ceil(size / page_size)) * page_size
        pool = MemoryPool("gpu", capacity_bytes=1 << 62, page_size=page_size)
        assert pool.can_fit(size) == (expected <= 1 << 62)
        pool.allocate(1, size)
        assert pool.resident_size(1) == pool.used_bytes == expected

    def test_capacity_enforced(self):
        pool = MemoryPool("gpu", capacity_bytes=4096)
        pool.allocate(1, 4096)
        with pytest.raises(AllocationError):
            pool.allocate(2, 1)

    def test_free_returns_bytes(self):
        pool = MemoryPool("gpu", capacity_bytes=8192)
        pool.allocate(1, 4096)
        assert pool.free(1) == 4096
        assert pool.free(1) == 0

    def test_peak_tracking(self):
        pool = MemoryPool("gpu", capacity_bytes=8192)
        pool.allocate(1, 4096)
        pool.allocate(2, 4096)
        pool.free(1)
        assert pool.peak_used_bytes == 8192

    def test_double_allocation_is_noop(self):
        pool = MemoryPool("gpu", capacity_bytes=8192)
        pool.allocate(1, 4096)
        pool.allocate(1, 4096)
        assert pool.used_bytes == 4096

    def test_clear_releases_everything_but_keeps_peak(self):
        pool = MemoryPool("gpu", capacity_bytes=4 * 4096)
        pool.allocate(1, 4096)
        pool.allocate(2, 2 * 4096)
        pool.clear()
        assert pool.used_bytes == 0 and pool.free_bytes == 4 * 4096
        assert pool.num_resident == 0 and not pool.contains(1)
        assert pool.resident_size(2) == 0 and pool.free(2) == 0
        assert pool.peak_used_bytes == 3 * 4096
        pool.allocate(3, 4 * 4096)
        assert pool.resident_tensors() == [3]


class TestFaultModel:
    def test_fault_batches(self):
        model = PageFaultModel(UVMConfig())
        assert model.fault_batches(0) == 0
        assert model.fault_batches(1) == 1
        assert model.fault_batches(4 * 2 * 1024 * 1024) == 4

    def test_fault_overhead_uses_table2_latency(self):
        config = UVMConfig()
        model = PageFaultModel(config)
        assert model.fault_overhead(config.fault_batch_bytes * 3) == pytest.approx(
            3 * config.fault_latency
        )

    def test_translation_overhead(self):
        model = PageFaultModel(UVMConfig())
        assert model.translation_overhead(10, 4) == pytest.approx(4 * UVMConfig().page_walk_latency)


class TestMigrationEngine:
    def _engine(self, overhead: float = 0.0) -> MigrationEngine:
        config = paper_config()
        return MigrationEngine(config, SSDDevice(config.ssd), per_request_overhead=overhead)

    def test_host_eviction_timing(self):
        engine = self._engine()
        request = MigrationRequest(1, int(1e9), MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION)
        completion = engine.submit(request, now=0.0)
        expected = 1e9 / paper_config().interconnect.bandwidth
        assert completion == pytest.approx(expected, rel=0.05)

    def test_flash_eviction_limited_by_ssd_bandwidth(self):
        engine = self._engine()
        request = MigrationRequest(1, int(1e9), MemoryLocation.GPU, MemoryLocation.FLASH, MigrationKind.EVICTION)
        completion = engine.submit(request, now=0.0)
        assert completion == pytest.approx(1e9 / paper_config().ssd.write_bandwidth, rel=0.05)

    def test_fifo_queueing_per_channel(self):
        engine = self._engine()
        request = MigrationRequest(1, int(1e9), MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION)
        first = engine.submit(request, now=0.0)
        second = engine.submit(
            MigrationRequest(2, int(1e9), MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION),
            now=0.0,
        )
        assert second > first

    def test_opposite_directions_do_not_queue_on_each_other(self):
        engine = self._engine()
        out = engine.submit(
            MigrationRequest(1, int(1e9), MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION), 0.0
        )
        inbound = engine.submit(
            MigrationRequest(2, int(1e9), MemoryLocation.HOST, MemoryLocation.GPU, MigrationKind.PREFETCH), 0.0
        )
        assert inbound == pytest.approx(out, rel=0.05)

    def test_traffic_accounting(self):
        engine = self._engine()
        engine.submit(MigrationRequest(1, 1000, MemoryLocation.GPU, MemoryLocation.FLASH, MigrationKind.EVICTION), 0.0)
        engine.submit(MigrationRequest(1, 1000, MemoryLocation.FLASH, MemoryLocation.GPU, MigrationKind.PREFETCH), 0.0)
        engine.submit(MigrationRequest(2, 500, MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION), 0.0)
        traffic = engine.traffic
        assert traffic.gpu_ssd_bytes == 2000
        assert traffic.gpu_host_bytes == 500
        assert traffic.ssd_write_bytes == 1000 and traffic.ssd_read_bytes == 1000
        assert traffic.eviction_count == 2 and traffic.prefetch_count == 1

    def test_per_request_overhead_added(self):
        fast = self._engine(overhead=0.0)
        slow = self._engine(overhead=1e-3)
        request = MigrationRequest(1, 1000, MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION)
        assert slow.submit(request, 0.0) > fast.submit(request, 0.0)

    @given(
        requests=st.lists(
            st.tuples(
                st.sampled_from(["to_host", "from_host", "to_flash", "from_flash"]),
                st.integers(1, 64 * MB),
                st.floats(0.0, 0.05),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_start_waits_for_every_crossed_channel(self, requests):
        # Reference channel model: outbound traffic crosses pcie_out, inbound
        # pcie_in, and flash traffic also the SSD's write or read path. A
        # request starts once it is submitted and all its channels are free.
        engine = self._engine()
        locations = {
            "to_host": (MemoryLocation.GPU, MemoryLocation.HOST, ("pcie_out",)),
            "from_host": (MemoryLocation.HOST, MemoryLocation.GPU, ("pcie_in",)),
            "to_flash": (MemoryLocation.GPU, MemoryLocation.FLASH, ("pcie_out", "ssd_write")),
            "from_flash": (MemoryLocation.FLASH, MemoryLocation.GPU, ("pcie_in", "ssd_read")),
        }
        free_at = dict.fromkeys(("pcie_in", "pcie_out", "ssd_read", "ssd_write"), 0.0)
        now = 0.0
        for tensor_id, (route, size, gap) in enumerate(requests):
            now += gap
            source, destination, crossed = locations[route]
            if source is MemoryLocation.FLASH:
                engine.ssd.preload_object(tensor_id, size)
            request = MigrationRequest(tensor_id, size, source, destination, MigrationKind.EVICTION)
            start = max([now] + [free_at[c] for c in crossed])
            assert engine.earliest_start(request, now) == start
            completion = engine.submit(request, now)
            assert completion > start
            for channel in crossed:
                free_at[channel] = completion
            for channel, expected in free_at.items():
                assert engine.channel_free_at(channel) == expected

    def test_earliest_start_has_no_side_effects(self):
        engine = self._engine()
        busy_until = engine.submit(
            MigrationRequest(1, int(1e9), MemoryLocation.GPU, MemoryLocation.FLASH, MigrationKind.EVICTION),
            0.0,
        )
        follow_up = MigrationRequest(
            2, int(1e9), MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION
        )
        assert engine.earliest_start(follow_up, 0.0) == busy_until
        assert engine.earliest_start(follow_up, 2 * busy_until) == 2 * busy_until
        assert engine.channel_free_at("pcie_out") == busy_until
        assert engine.channel_free_at("pcie_in") == 0.0
        assert engine.traffic.eviction_count == 1

    def test_invalid_request_rejected(self):
        with pytest.raises(SimulationError):
            MigrationRequest(1, 0, MemoryLocation.GPU, MemoryLocation.HOST, MigrationKind.EVICTION)
        with pytest.raises(SimulationError):
            MigrationRequest(1, 10, MemoryLocation.GPU, MemoryLocation.GPU, MigrationKind.EVICTION)


class TestPerMigrationObjects:
    def test_location_and_kind_hash_by_identity(self):
        for member in (*MemoryLocation, *MigrationKind):
            assert hash(member) == object.__hash__(member)
            assert pickle.loads(pickle.dumps(member)) is member
        # The SSD alias is the FLASH member, so it finds FLASH's entries.
        assert MemoryLocation("flash") is MemoryLocation.SSD
        assert {MemoryLocation.FLASH: 1}[MemoryLocation.SSD] == 1

    @pytest.mark.parametrize("source", list(MemoryLocation))
    @pytest.mark.parametrize("destination", list(MemoryLocation))
    def test_request_direction_and_flash_involvement(self, source, destination):
        if source is destination:
            return
        request = MigrationRequest(1, 4096, source, destination, MigrationKind.FAULT)
        assert request.direction_in == (destination is MemoryLocation.GPU)
        assert request.involves_flash == (MemoryLocation.FLASH in (source, destination))

    @pytest.mark.parametrize(
        "record",
        [
            MigrationRequest(3, 4096, MemoryLocation.HOST, MemoryLocation.GPU, MigrationKind.PREFETCH),
            MigrationDecision(3, MemoryLocation.HOST),
            KernelTiming(index=2, ideal_duration=1.5, stall=0.25, start_time=4.0),
            VirtualRange(8192, 5000),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_slotted_records_stay_frozen_values(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0].name, 4)
        assert pickle.loads(pickle.dumps(record)) == record
        assert replace(record) == record and hash(replace(record)) == hash(record)
