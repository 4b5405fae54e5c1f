"""Tests for the flash SSD substrate: geometry, FTL, GC, wear, device model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, SSDConfig
from repro.errors import SSDError
from repro.ssd import FlashGeometry, FlashTranslationLayer, SSDDevice, WearTracker
from repro.ssd.flash import FlashBlock


def small_ssd_config(**overrides) -> SSDConfig:
    defaults = dict(
        capacity_bytes=8 * MB,
        flash_page_size=4096,
        pages_per_block=16,
        channels=2,
        gc_threshold=0.1,
    )
    defaults.update(overrides)
    return SSDConfig(**defaults)


class TestFlashBlock:
    def test_program_and_invalidate(self):
        block = FlashBlock(block_id=0, pages_per_block=4)
        offsets = [block.program() for _ in range(4)]
        assert offsets == [0, 1, 2, 3]
        assert block.is_full and block.valid_pages == 4
        block.invalidate(1)
        assert block.valid_pages == 3

    def test_program_full_block_rejected(self):
        block = FlashBlock(block_id=0, pages_per_block=1)
        block.program()
        with pytest.raises(SSDError):
            block.program()

    def test_invalidate_unprogrammed_rejected(self):
        block = FlashBlock(block_id=0, pages_per_block=4)
        with pytest.raises(SSDError):
            block.invalidate(0)

    def test_erase_resets_and_counts(self):
        block = FlashBlock(block_id=0, pages_per_block=2)
        block.program()
        block.erase()
        assert block.erase_count == 1
        assert block.valid_pages == 0 and block.free_pages == 2


class TestGeometry:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(SSDError):
            FlashGeometry(channels=0, blocks_per_channel=1, pages_per_block=1, page_size=1)

    @pytest.mark.parametrize(
        "config", [small_ssd_config(), SSDConfig()], ids=["small", "paper"]
    )
    def test_device_geometry_rounds_capacity_down_to_whole_blocks(self, config):
        geometry = SSDDevice(config).geometry
        assert geometry.channels == config.channels
        assert geometry.pages_per_block == config.pages_per_block
        assert geometry.page_size % config.flash_page_size == 0
        assert geometry.total_blocks == geometry.channels * geometry.blocks_per_channel
        # Every channel holds the same whole number of blocks, so the device
        # loses less than one block per channel to rounding.
        one_block_per_channel = geometry.channels * geometry.pages_per_block * geometry.page_size
        assert config.capacity_bytes - one_block_per_channel < geometry.capacity_bytes
        assert geometry.capacity_bytes <= config.capacity_bytes


class TestFTL:
    def _ftl(self, blocks: int = 8, pages: int = 8) -> FlashTranslationLayer:
        geometry = FlashGeometry(
            channels=1, blocks_per_channel=blocks, pages_per_block=pages, page_size=4096
        )
        return FlashTranslationLayer(geometry, gc_threshold_blocks=2)

    def test_write_then_read_roundtrip(self):
        ftl = self._ftl()
        ftl.write(7)
        assert ftl.is_mapped(7)
        block, offset = ftl.read(7)
        assert ftl.blocks[block].valid[offset]

    def test_overwrite_invalidates_old_location(self):
        ftl = self._ftl()
        ftl.write(1)
        old = ftl.read(1)
        ftl.write(1)
        new = ftl.read(1)
        assert new != old
        assert not ftl.blocks[old[0]].valid[old[1]]

    def test_unmapped_read_rejected(self):
        with pytest.raises(SSDError):
            self._ftl().read(42)

    def test_trim_unmaps(self):
        ftl = self._ftl()
        ftl.write(3)
        ftl.trim(3)
        assert not ftl.is_mapped(3)

    def test_gc_reclaims_space_and_preserves_data(self):
        ftl = self._ftl(blocks=4, pages=4)
        live = list(range(6))
        for page in live:
            ftl.write(page)
        # Overwrite repeatedly to create stale pages and force GC.
        for _ in range(8):
            for page in live:
                ftl.write(page)
        assert ftl.blocks_erased > 0
        for page in live:
            block, offset = ftl.read(page)
            assert ftl.blocks[block].valid[offset]

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 15), st.integers(1, 6)), max_size=60
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_runs_keep_the_mapping_and_match_single_pages(self, ops):
        # write_run/trim_run against a page-set model, and against single-page
        # write()/trim() calls, on a device small enough for garbage
        # collection to run. The run path checks GC only per chunk, so the two
        # devices agree exactly only until either one has collected.
        runs, pages = self._ftl(blocks=8, pages=4), self._ftl(blocks=8, pages=4)
        mapped: set[int] = set()
        written = 0
        for write, start, count in ops:
            span = range(start, min(start + count, 16))
            if write:
                runs.write_run(span.start, len(span))
                for page in span:
                    pages.write(page)
                mapped.update(span)
                written += len(span)
            else:
                runs.trim_run(span.start, len(span))
                for page in span:
                    pages.trim(page)
                mapped.difference_update(span)
            assert all(runs.is_mapped(p) == (p in mapped) for p in range(16))
            assert runs.host_pages_written == written
            # Exactly the mapped pages are valid, each where the mapping says.
            assert sum(b.valid_pages for b in runs.blocks) == len(mapped)
            assert all(runs.blocks[b].valid[o] for b, o in map(runs.read, mapped))
            if runs.blocks_erased == pages.blocks_erased == 0:
                assert [runs.read(p) for p in sorted(mapped)] == [
                    pages.read(p) for p in sorted(mapped)
                ]
                assert [(b.valid, b.write_pointer) for b in runs.blocks] == [
                    (b.valid, b.write_pointer) for b in pages.blocks
                ]

    def test_write_amplification_grows_with_gc(self):
        ftl = self._ftl(blocks=4, pages=4)
        for _ in range(10):
            for page in range(6):
                ftl.write(page)
        assert ftl.write_amplification > 1.0

    def test_out_of_space_detected(self):
        ftl = self._ftl(blocks=2, pages=2)
        with pytest.raises(SSDError):
            for page in range(100):
                ftl.write(page)

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_mapping_always_points_to_valid_pages(self, writes):
        ftl = self._ftl(blocks=8, pages=8)
        for logical in writes:
            ftl.write(logical)
        for logical in set(writes):
            block, offset = ftl.read(logical)
            assert ftl.blocks[block].valid[offset]
        assert ftl.mapped_pages == len(set(writes))


class TestWearTracker:
    def test_lifetime_matches_paper_formula(self):
        config = SSDConfig()
        tracker = WearTracker(config)
        # Sustain exactly half the SSD write bandwidth for one second.
        tracker.record_write(config.write_bandwidth / 2)
        estimate = tracker.lifetime(elapsed_seconds=1.0)
        expected_years = (
            config.endurance_dwpd * config.endurance_days * config.capacity_bytes
            / (config.write_bandwidth / 2) / (365 * 24 * 3600)
        )
        assert estimate.lifetime_years == pytest.approx(expected_years, rel=1e-6)

    def test_paper_headline_lifetime(self):
        """§7.7: a 50/50 read/write mix at 3 GB/s projects to ~3.7 years."""
        config = SSDConfig()
        tracker = WearTracker(config)
        # DNN migration traffic is about half writes, half reads, so the device
        # sustains writes at half the 3 GB/s channel rate.
        tracker.record_write(config.write_bandwidth / 2)
        tracker.record_read(config.write_bandwidth / 2)
        estimate = tracker.lifetime(elapsed_seconds=1.0)
        assert 3.0 < estimate.lifetime_years < 4.5

    def test_idle_device_lives_forever(self):
        estimate = WearTracker(SSDConfig()).lifetime(elapsed_seconds=10.0)
        assert estimate.lifetime_years == float("inf")
        assert estimate.meets(100)

    def test_invalid_inputs_rejected(self):
        tracker = WearTracker(SSDConfig())
        with pytest.raises(SSDError):
            tracker.record_write(-1)
        with pytest.raises(SSDError):
            tracker.lifetime(0.0)
        with pytest.raises(SSDError):
            tracker.lifetime(1.0, write_amplification=0.5)


class TestSSDDevice:
    def test_write_read_discard_cycle(self):
        device = SSDDevice(small_ssd_config())
        write_time = device.write_object(1, 1 * MB)
        read_time = device.read_object(1, 1 * MB)
        assert write_time > 0 and read_time > 0
        assert device.contains(1)
        device.discard_object(1)
        assert not device.contains(1)

    def test_read_missing_object_rejected(self):
        device = SSDDevice(small_ssd_config())
        with pytest.raises(SSDError):
            device.read_object(9, 1024)

    def test_service_time_scales_with_size(self):
        device = SSDDevice(small_ssd_config())
        small = device.write_object(1, 64 * 1024)
        large = device.write_object(2, 4 * MB)
        assert large > small

    def test_capacity_enforced(self):
        device = SSDDevice(small_ssd_config(capacity_bytes=2 * MB))
        with pytest.raises(SSDError):
            device.write_object(1, 4 * MB)

    def test_statistics_accumulate(self):
        device = SSDDevice(small_ssd_config())
        device.write_object(1, 1 * MB)
        device.read_object(1, 1 * MB)
        stats = device.statistics
        assert stats.bytes_written == 1 * MB
        assert stats.bytes_read == 1 * MB
        assert stats.host_writes == 1 and stats.host_reads == 1

    def test_preload_skips_wear_accounting(self):
        device = SSDDevice(small_ssd_config())
        device.preload_object(5, 1 * MB)
        assert device.contains(5)
        assert device.statistics.bytes_written == 0
        assert device.wear.bytes_written == 0

    def test_lifetime_projection_uses_traffic(self):
        device = SSDDevice(small_ssd_config())
        device.write_object(1, 4 * MB)
        estimate = device.lifetime(elapsed_seconds=1.0)
        assert estimate.lifetime_years > 0

    def test_mapping_unit_keeps_table_small(self):
        device = SSDDevice(SSDConfig())  # 3.2 TB device
        assert device.geometry.total_pages <= (1 << 17) * 2
