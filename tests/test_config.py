"""Tests for the system configuration (Table 2)."""

import dataclasses
import math

import pytest

from repro.config import (
    GB,
    PAGE_SIZE,
    GPUConfig,
    InterconnectConfig,
    SSDConfig,
    SystemConfig,
    UVMConfig,
    paper_config,
)
from repro.errors import ConfigurationError


class TestPaperConfig:
    def test_gpu_memory_matches_table2(self):
        assert paper_config().gpu.memory_bytes == 40 * GB

    def test_host_memory_matches_table2(self):
        assert paper_config().host_memory_bytes == 128 * GB

    def test_page_size_is_4kb(self):
        assert paper_config().uvm.page_size == PAGE_SIZE == 4096

    def test_ssd_bandwidths_match_table2(self):
        ssd = paper_config().ssd
        assert ssd.read_bandwidth == pytest.approx(3.2 * GB)
        assert ssd.write_bandwidth == pytest.approx(3.0 * GB)

    def test_ssd_latencies_match_table2(self):
        ssd = paper_config().ssd
        assert ssd.read_latency == pytest.approx(20e-6)
        assert ssd.write_latency == pytest.approx(16e-6)

    def test_fault_latency_matches_table2(self):
        assert paper_config().uvm.fault_latency == pytest.approx(45e-6)

    def test_interconnect_is_pcie3_x16(self):
        assert paper_config().interconnect.bandwidth == pytest.approx(15.754 * GB)

    def test_gpu_page_count(self):
        cfg = paper_config()
        assert cfg.gpu_pages == cfg.gpu.memory_bytes // 4096

    def test_host_page_count(self):
        cfg = paper_config()
        assert cfg.host_pages == cfg.host_memory_bytes // 4096


class TestConfigMutators:
    def test_with_host_memory(self):
        cfg = paper_config().with_host_memory(32 * GB)
        assert cfg.host_memory_bytes == 32 * GB
        assert cfg.gpu.memory_bytes == 40 * GB

    def test_with_gpu_memory(self):
        cfg = paper_config().with_gpu_memory(16 * GB)
        assert cfg.gpu.memory_bytes == 16 * GB

    def test_with_ssd_bandwidth_scales_write_proportionally(self):
        cfg = paper_config().with_ssd_bandwidth(6.4 * GB)
        assert cfg.ssd.read_bandwidth == pytest.approx(6.4 * GB)
        ratio = cfg.ssd.write_bandwidth / cfg.ssd.read_bandwidth
        assert ratio == pytest.approx(3.0 / 3.2)

    def test_with_ssd_bandwidth_explicit_write(self):
        cfg = paper_config().with_ssd_bandwidth(10 * GB, 9 * GB)
        assert cfg.ssd.write_bandwidth == pytest.approx(9 * GB)

    def test_with_interconnect_bandwidth_updates_host_bandwidth(self):
        cfg = paper_config().with_interconnect_bandwidth(32 * GB)
        assert cfg.host_bandwidth == pytest.approx(32 * GB)

    def test_mutators_do_not_modify_original(self):
        original = paper_config()
        original.with_gpu_memory(1 * GB)
        assert original.gpu.memory_bytes == 40 * GB


class TestValidation:
    def test_negative_gpu_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(memory_bytes=-1)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(compute_efficiency=0.0)

    def test_efficiency_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(gemm_efficiency=1.5)

    def test_negative_ssd_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            SSDConfig(read_bandwidth=-1)

    def test_negative_interconnect_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectConfig(bandwidth=0)

    def test_negative_host_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(host_memory_bytes=-1)

    def test_zero_page_size_rejected(self):
        with pytest.raises(ConfigurationError):
            UVMConfig(page_size=0)

    def test_negative_fault_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            UVMConfig(fault_latency=-1.0)


#: Every field whose check is a chained comparison: NaN and inf must fail.
CHECKED_FIELDS = [
    (GPUConfig, "memory_bytes"),
    (GPUConfig, "peak_flops"),
    (GPUConfig, "memory_bandwidth"),
    (GPUConfig, "kernel_launch_overhead"),
    (SSDConfig, "read_bandwidth"),
    (SSDConfig, "write_bandwidth"),
    (SSDConfig, "read_latency"),
    (SSDConfig, "write_latency"),
    (SSDConfig, "capacity_bytes"),
    (SSDConfig, "endurance_dwpd"),
    (InterconnectConfig, "bandwidth"),
    (InterconnectConfig, "latency"),
    (UVMConfig, "page_size"),
    (UVMConfig, "fault_batch_bytes"),
    (UVMConfig, "fault_latency"),
    (UVMConfig, "software_migration_overhead"),
    (UVMConfig, "extended_uvm_overhead"),
    (SystemConfig, "host_memory_bytes"),
    (SystemConfig, "host_bandwidth"),
]


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "cls,name", CHECKED_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in CHECKED_FIELDS]
    )
    def test_rejected_at_construction(self, cls, name, value):
        with pytest.raises(ConfigurationError):
            cls(**{name: value})

    def test_rejected_by_the_with_methods(self):
        with pytest.raises(ConfigurationError):
            paper_config().with_ssd_bandwidth(math.inf)
        with pytest.raises(ConfigurationError):
            paper_config().with_interconnect_bandwidth(math.nan)
        with pytest.raises(ConfigurationError):
            paper_config().with_host_memory(math.inf)

    def test_rejected_by_from_dict(self):
        data = paper_config().to_dict()
        data["uvm"]["fault_latency"] = math.nan
        with pytest.raises(ConfigurationError):
            SystemConfig.from_dict(data)


class TestEfficiencyLookup:
    @pytest.mark.parametrize(
        "compute_class,field",
        [
            ("conv", "conv_efficiency"),
            ("grouped_conv", "grouped_conv_efficiency"),
            ("gemm", "gemm_efficiency"),
            ("generic", "compute_efficiency"),
            ("unknown", "compute_efficiency"),
        ],
    )
    def test_efficiency_for(self, compute_class, field):
        gpu = GPUConfig()
        assert gpu.efficiency_for(compute_class) == getattr(gpu, field)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            paper_config().gpu.memory_bytes = 1
