"""Tests for the unified memory substrate: page table, pools, fault model, engine."""

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
    UnifiedPageTable,
)
from repro.sim.policy import MigrationDecision
from repro.sim.results import KernelTiming

_PLACEABLE = (MemoryLocation.GPU, MemoryLocation.HOST, MemoryLocation.FLASH)


class TestPageTable:
    def test_register_is_idempotent(self):
        table = UnifiedPageTable()
        assert 1 not in table
        assert table.register(1, 4096) == table.register(1, 3 * 4096) == 1
        assert 1 in table
        table.place(1, MemoryLocation.HOST)
        table.register(1, 4096)
        assert table.location_of(1) is MemoryLocation.HOST
        assert table.resident_pages(MemoryLocation.HOST) == 1

    @pytest.mark.parametrize("size", [0, -1, -4096])
    def test_non_positive_size_rejected(self, size):
        table = UnifiedPageTable()
        with pytest.raises(AllocationError):
            table.register(1, size)
        assert 1 not in table

    @given(
        size=st.integers(1, 64 * 4096),
        page_size=st.sampled_from([512, 4096, 65536]),
    )
    @settings(max_examples=100, deadline=None)
    def test_page_count_is_the_ceiling_of_size_over_page_size(self, size, page_size):
        table = UnifiedPageTable(page_size)
        num_pages = table.register(7, size)
        assert num_pages == math.ceil(size / page_size)
        assert num_pages * page_size >= size > (num_pages - 1) * page_size
        assert table.place(7, MemoryLocation.GPU) == num_pages
        assert table.resident_pages(MemoryLocation.GPU) == table.pte_updates == num_pages

    def test_location_transitions(self):
        table = UnifiedPageTable()
        table.register(1, 4096)
        assert table.location_of(1) is MemoryLocation.UNMAPPED
        for location in (MemoryLocation.GPU, MemoryLocation.HOST, MemoryLocation.FLASH):
            table.place(1, location)
            assert table.location_of(1) is location
            assert table.resident_tensors(location) == [1]

    def test_pte_update_count_tracks_pages(self):
        table = UnifiedPageTable()
        table.register(1, 10 * 4096)
        updated = table.place(1, MemoryLocation.GPU)
        assert updated == 10
        assert table.pte_updates == 10

    def test_ssd_alias_is_flash(self):
        assert MemoryLocation.SSD is MemoryLocation.FLASH

    def test_unregistered_tensor_rejected(self):
        with pytest.raises(TranslationError):
            UnifiedPageTable().place(5, MemoryLocation.GPU)

    @pytest.mark.parametrize(
        "call",
        [
            lambda table: table.location_of(5),
            lambda table: table.place_batch([5], MemoryLocation.GPU),
            lambda table: table.unmap(5),
        ],
        ids=["location_of", "place_batch", "unmap"],
    )
    def test_unregistered_tensor_rejected_by_every_lookup(self, call):
        table = UnifiedPageTable()
        table.register(1, 4096)
        with pytest.raises(TranslationError):
            call(table)
        assert 5 not in table
        assert table.pte_updates == 0
        assert table.resident_pages(MemoryLocation.GPU) == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda table: table.place(1, MemoryLocation.UNMAPPED),
            lambda table: table.place_batch([1], MemoryLocation.UNMAPPED),
        ],
        ids=["place", "place_batch"],
    )
    def test_placing_to_unmapped_is_rejected(self, call):
        # unmap() is the one way to unmap: a placement there would add pages
        # to an UNMAPPED total that no later move subtracts.
        table = UnifiedPageTable()
        table.register(1, 4096)
        with pytest.raises(TranslationError):
            call(table)
        assert table.location_of(1) is MemoryLocation.UNMAPPED
        assert table.pte_updates == 0
        table.place(1, MemoryLocation.GPU)
        assert table.resident_pages(MemoryLocation.UNMAPPED) == 0
        assert table.resident_pages(MemoryLocation.GPU) == 1

    def test_unmap_releases_pages_and_keeps_the_registration(self):
        table = UnifiedPageTable()
        table.register(1, 3 * 4096)
        table.register(2, 4096)
        assert table.place_batch([1, 2], MemoryLocation.HOST) == 4
        table.unmap(1)
        assert 1 in table
        assert table.location_of(1) is MemoryLocation.UNMAPPED
        assert table.resident_tensors(MemoryLocation.HOST) == [2]
        assert table.resident_pages(MemoryLocation.HOST) == 1
        table.unmap(1)  # already unmapped: nothing left to release
        assert table.resident_pages(MemoryLocation.HOST) == 1
        # Unmapping charges no PTE update; placing again charges every page.
        assert table.pte_updates == 4
        assert table.place(1, MemoryLocation.GPU) == 3
        assert table.pte_updates == 7

    def test_place_batch_with_a_repeated_id_equals_two_places(self):
        batched, sequential = UnifiedPageTable(), UnifiedPageTable()
        for table in (batched, sequential):
            table.register(1, 3 * 4096)
        assert batched.place_batch([1, 1], MemoryLocation.GPU) == 6
        assert sequential.place(1, MemoryLocation.GPU) + sequential.place(1, MemoryLocation.GPU) == 6
        assert batched.location_of(1) is MemoryLocation.GPU
        assert batched.resident_pages(MemoryLocation.GPU) == 3
        assert sequential.resident_pages(MemoryLocation.GPU) == 3
        assert batched.pte_updates == sequential.pte_updates == 6

    def test_place_batch_with_an_unregistered_id_moves_nothing(self):
        table = UnifiedPageTable()
        table.register(1, 3 * 4096)
        table.place(1, MemoryLocation.HOST)
        with pytest.raises(TranslationError):
            table.place_batch([1, 99], MemoryLocation.GPU)
        assert table.location_of(1) is MemoryLocation.HOST
        assert table.resident_pages(MemoryLocation.HOST) == 3
        assert table.resident_pages(MemoryLocation.GPU) == 0
        assert table.pte_updates == 3

    @given(
        tensors=st.lists(
            st.tuples(st.integers(1, 8 * 4096), st.sampled_from((None,) + _PLACEABLE)),
            min_size=1,
            max_size=8,
        ),
        target=st.sampled_from(_PLACEABLE),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_place_batch_equals_the_sequence_of_places(self, tensors, target, data):
        batch = data.draw(st.lists(st.sampled_from(range(len(tensors)))))
        batched, sequential = UnifiedPageTable(), UnifiedPageTable()
        for table in (batched, sequential):
            for tensor_id, (size, initial) in enumerate(tensors):
                table.register(tensor_id, size)
                if initial is not None:
                    table.place(tensor_id, initial)
        moved = batched.place_batch(batch, target)
        assert moved == sum(sequential.place(tensor_id, target) for tensor_id in batch)
        assert batched.pte_updates == sequential.pte_updates
        for location in _PLACEABLE + (MemoryLocation.UNMAPPED,):
            residents = batched.resident_tensors(location)
            assert residents == sequential.resident_tensors(location)
            if location is not MemoryLocation.UNMAPPED:
                # The incremental total equals a scan over the residents.
                assert batched.resident_pages(location) == sum(
                    batched.register(tensor_id, 1) for tensor_id in residents
                )


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
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_slotted_records_stay_frozen_values(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0].name, 4)
        assert pickle.loads(pickle.dumps(record)) == record
        assert replace(record) == record and hash(replace(record)) == hash(record)
