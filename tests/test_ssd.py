"""Tests for the flash SSD substrate: wear projection and the device model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, SSDConfig
from repro.errors import SSDError
from repro.ssd import SSDDevice, WearTracker


def small_ssd_config(capacity_bytes: int = 8 * MB) -> SSDConfig:
    return SSDConfig(capacity_bytes=capacity_bytes)


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

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize("method", ["write_object", "preload_object"])
    def test_empty_object_rejected(self, method, size):
        device = SSDDevice(small_ssd_config())
        with pytest.raises(SSDError):
            getattr(device, method)(1, size)
        assert not device.contains(1) and device.stored_bytes == 0

    @pytest.mark.parametrize("capacity", [1, 4097, 2 * MB + 1])
    def test_capacity_is_exact_to_the_byte(self, capacity):
        device = SSDDevice(small_ssd_config(capacity_bytes=capacity))
        device.write_object(1, capacity)
        assert device.stored_bytes == capacity
        for store in (device.write_object, device.preload_object):
            with pytest.raises(SSDError):
                store(2, 1)
        assert not device.contains(2) and device.stored_bytes == capacity

    def test_statistics_accumulate(self):
        device = SSDDevice(small_ssd_config())
        device.write_object(1, 1 * MB)
        device.read_object(1, 1 * MB)
        stats = device.statistics
        assert stats.bytes_written == 1 * MB
        assert stats.bytes_read == 1 * MB

    def test_preload_skips_wear_accounting(self):
        device = SSDDevice(small_ssd_config())
        device.preload_object(5, 1 * MB)
        assert device.contains(5)
        assert device.statistics.bytes_written == 0

    def test_overwrite_is_charged_for_the_new_copy_only(self):
        device = SSDDevice(small_ssd_config(capacity_bytes=2 * MB))
        device.write_object(1, 3 * MB // 2)
        device.write_object(1, 3 * MB // 2)  # replaces the first copy
        assert device.stored_bytes == 3 * MB // 2
        # A rejected store, new object or overwrite, leaves the device as it was.
        for object_id, size in ((2, 1 * MB), (1, 3 * MB)):
            with pytest.raises(SSDError):
                device.write_object(object_id, size)
            assert device.stored_bytes == 3 * MB // 2
            assert device.contains(1) and not device.contains(2)
        assert device.statistics.bytes_written == 3 * MB

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["write", "preload"]),
                    st.integers(0, 3),
                    st.integers(1, 3 * 4096 + 1).filter(lambda size: size % 4096),
                ),
                st.tuples(st.sampled_from(["read", "discard"]), st.integers(0, 3)),
                st.tuples(st.just("discard_many"), st.lists(st.integers(0, 3), max_size=4)),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_device_matches_a_dict_model(self, ops):
        # Sizes are never a multiple of 4 KiB, so a device that rounds stored
        # bytes to any page or mapping unit disagrees with the model; the
        # capacity is small enough for some stores to be rejected.
        config = small_ssd_config(capacity_bytes=5 * 4096 + 100)
        device = SSDDevice(config)
        model: dict[int, int] = {}
        written = read = 0
        for kind, arg, *rest in ops:
            if kind in ("write", "preload"):
                (size,) = rest
                store = device.write_object if kind == "write" else device.preload_object
                if sum(model.values()) - model.get(arg, 0) + size > config.capacity_bytes:
                    with pytest.raises(SSDError):
                        store(arg, size)
                else:
                    service = store(arg, size)
                    model[arg] = size
                    if kind == "write":
                        written += size
                        assert service == config.write_latency + size / config.write_bandwidth
            elif kind == "read":
                if arg in model:
                    service = device.read_object(arg, model[arg])
                    read += model[arg]
                    assert service == config.read_latency + model[arg] / config.read_bandwidth
                else:
                    with pytest.raises(SSDError):
                        device.read_object(arg, 4096)
            elif kind == "discard":
                device.discard_object(arg)
                model.pop(arg, None)
            else:
                device.discard_objects(arg)
                for object_id in arg:
                    model.pop(object_id, None)
            assert device.stored_bytes == sum(model.values())
            assert all(device.contains(i) == (i in model) for i in range(4))
            assert device.statistics.bytes_written == written
            assert device.statistics.bytes_read == read
