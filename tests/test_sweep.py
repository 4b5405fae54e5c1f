"""Unit tests for the sweep runner, result cache and serialization layers."""

import dataclasses
import json
import math
import struct
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.characterization import characterize_workload
from repro.config import GB, SystemConfig, paper_config
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.experiments import (
    EXPERIMENTS,
    CellResult,
    ConfigPatch,
    ResultCache,
    SweepCell,
    SweepPlan,
    SweepRunner,
    SweepSpec,
    build_workload,
    combined_spec,
    default_config,
    execute_cell,
    figure11_spec,
    generate_report,
    get_experiment,
    resolve_batch_size,
    run_policy,
)
from repro.experiments import reporting
from repro.experiments import sweep as sweep_module
from repro.sim.results import PerfCounters, SimulationResult
from repro.uvm.migration import TrafficCounters

#: One cell down every path a cell can take: a characterization cell and
#: every built-in policy on two models, plus profiling noise and a patch.
MODE_CELLS = (
    *SweepSpec.grid(
        "modes",
        models=("bert", "vit"),
        policies=(None, "ideal", "base_uvm", "deepum", "flashneuron", "g10", "g10_gds", "g10_host"),
        scale="ci",
    ).cells,
    SweepCell(model="bert", policy="g10", scale="ci", profiling_error=0.1, seed=3),
    SweepCell(model="bert", policy="g10", scale="ci", patch=ConfigPatch(host_memory_bytes=0)),
)
MODE_IDS = [
    f"{cell.model}-{cell.policy or 'characterize'}" for cell in MODE_CELLS[:-2]
] + ["bert-g10-noise", "bert-g10-no-host"]

#: Every built-in experiment with a sweep grid behind it (Table 2 has none).
GRID_EXPERIMENTS = (
    "2", "3", "4", "11", "12", "13", "14", "15", "16", "17", "18", "19",
    "lifetime", "table1", "tenancy",
)


def assert_matches_asdict(config: SystemConfig) -> None:
    """``to_dict`` is ``dataclasses.asdict`` (the reference kept here), key
    order and value types included: the JSON text of the two is identical."""
    reference = dataclasses.asdict(config)
    assert config.to_dict() == reference
    assert json.dumps(config.to_dict()) == json.dumps(reference)


class TestConfigSerialization:
    @pytest.mark.parametrize(
        "config",
        [
            paper_config(),
            default_config("bert", "ci"),
            paper_config().with_interconnect_bandwidth(32 * GB),
        ],
        ids=["paper", "ci", "pcie4"],
    )
    def test_to_dict_matches_asdict(self, config):
        assert_matches_asdict(config)

    def test_round_trip(self):
        config = paper_config().with_host_memory(7 * GB).with_ssd_bandwidth(1.5 * GB)
        restored = SystemConfig.from_dict(config.to_dict())
        assert restored == config

    def test_fingerprint_is_value_based(self):
        assert paper_config().fingerprint() == paper_config().fingerprint()

    def test_fingerprint_changes_with_any_field(self):
        base = paper_config()
        assert base.with_host_memory(1 * GB).fingerprint() != base.fingerprint()
        assert base.with_gpu_memory(1 * GB).fingerprint() != base.fingerprint()
        assert base.with_ssd_bandwidth(1 * GB).fingerprint() != base.fingerprint()


#: Finite floats, with the ones JSON must carry bit for bit drawn often:
#: signed zeros, subnormals and the largest magnitudes.
EDGE_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300, 1.7976931348623157e308,
         -1.7976931348623157e308, 1e300]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
COUNTS = st.integers(min_value=0, max_value=2**53)


@st.composite
def timing_columns(draw) -> tuple[list[float], list[float]]:
    """Finite ``ideal_durations`` and ``start_times`` columns of up to 12
    kernels. Durations repeat (drawn from a small pool, as a model's do), and
    each kernel starts either at the previous kernel's finish or at an
    arbitrary time, so both stored and derived starts occur."""
    pool = draw(st.lists(EDGE_FLOATS, min_size=1, max_size=4))
    ideal = draw(st.lists(st.sampled_from(pool) | EDGE_FLOATS, max_size=12))
    starts, finish = [], 0.0
    for duration in ideal:
        start = finish if math.isfinite(finish) and draw(st.booleans()) else draw(EDGE_FLOATS)
        starts.append(start)
        finish = start + duration
    return ideal, starts


@st.composite
def simulation_results(draw) -> SimulationResult:
    """Arbitrary results: zero or more kernels, and failed runs whose
    execution time may be infinite."""
    ideal, starts = draw(timing_columns())
    failed = draw(st.booleans())
    low, high = sorted((draw(EDGE_FLOATS), draw(EDGE_FLOATS)))
    execution_time = float("inf") if failed and draw(st.booleans()) else high
    return SimulationResult(
        model_name=draw(st.text(max_size=8)),
        batch_size=draw(COUNTS),
        policy_name=draw(st.text(max_size=8)),
        ideal_time=low,
        execution_time=execution_time,
        ideal_durations=ideal,
        start_times=starts,
        traffic=TrafficCounters(
            *(draw(EDGE_FLOATS) for _ in range(6)), *(draw(COUNTS) for _ in range(3))
        ),
        ssd_bytes_written=draw(EDGE_FLOATS),
        ssd_bytes_read=draw(EDGE_FLOATS),
        ssd_write_amplification=draw(EDGE_FLOATS),
        fault_events=draw(COUNTS),
        peak_gpu_bytes=draw(COUNTS),
        peak_host_bytes=draw(COUNTS),
        failed=failed,
        failure_reason=draw(st.text(max_size=8)),
        perf=PerfCounters(*(draw(COUNTS) for _ in range(6)), draw(EDGE_FLOATS)),
    )


def bits(value):
    """``value`` with every float as its IEEE-754 bit pattern, so equality
    tells -0.0 from 0.0; fields excluded from dataclass equality are skipped."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            bits(getattr(value, f.name)) for f in dataclasses.fields(value) if f.compare
        )
    if isinstance(value, list):
        return tuple(bits(item) for item in value)
    return (type(value).__name__, value)


def three_kernel_payload() -> dict:
    """Kernels 0 and 2 start at the previous finish, kernel 1 stalls 0.25 s;
    kernels 0 and 2 share a duration."""
    return SimulationResult(
        model_name="m", batch_size=1, policy_name="p", ideal_time=1.25, execution_time=1.5,
        ideal_durations=[0.5, 0.25, 0.5], start_times=[0.0, 0.75, 1.0],
    ).to_dict()


def _set(name, value):
    return lambda columns: columns.__setitem__(name, value)


def _set_stalled(stalled, starts):
    return lambda columns: columns.update(stalled=stalled, stalled_start=starts)


#: Malformed kernel-timing layouts ``from_dict`` must reject with a
#: ``SimulationError``, never an ``IndexError``, a ``TypeError`` or a
#: silently wrong result. ``three_kernel_payload`` stores durations
#: ``[0.25, 0.5]``, duration_index ``[1, 0, 1]``, stalled ``[1]`` and
#: stalled_start ``[0.75]``.
MALFORMED_LAYOUTS = {
    **{
        f"{column}-{kind}": mangle
        for column in ("durations", "duration_index", "stalled", "stalled_start")
        for kind, mangle in {
            "missing": lambda columns, column=column: columns.pop(column),
            "string": _set(column, "abc"),
            "tuple": _set(column, (0,)),
            "null": _set(column, None),
            "dict": _set(column, {"0": 0}),
        }.items()
    },
    "duration-is-a-string": _set("durations", [0.25, "0.5"]),
    "duration-is-a-bool": _set("durations", [0.25, True]),
    "duration-index-negative": _set("duration_index", [1, -1, 1]),
    "duration-index-out-of-range": _set("duration_index", [1, 2, 1]),
    "duration-index-bool": _set("duration_index", [True, 0, 1]),
    "duration-index-float": _set("duration_index", [1.0, 0, 1]),
    "duration-index-null": _set("duration_index", [1, None, 1]),
    "no-durations-for-the-index": _set("durations", []),
    "stalled-unsorted": _set_stalled([2, 1], [1.0, 0.75]),
    "stalled-repeated": _set_stalled([1, 1], [0.75, 0.75]),
    "stalled-past-the-last-kernel": _set_stalled([3], [0.75]),
    "stalled-negative": _set_stalled([-1], [0.75]),
    "stalled-bool": _set_stalled([True], [0.75]),
    "stalled-float": _set_stalled([1.0], [0.75]),
    "stalled-start-is-a-string": _set_stalled([1], ["0.75"]),
    "stalled-start-is-null": _set_stalled([1], [None]),
    "stalled-longer-than-its-starts": _set_stalled([1, 2], [0.75]),
    "starts-longer-than-stalled": _set_stalled([1], [0.75, 1.0]),
    "starts-without-stalled": _set_stalled([], [0.75]),
}


class TestResultSerialization:
    @settings(max_examples=300, deadline=None)
    @given(result=simulation_results())
    def test_json_round_trip_is_bit_exact(self, result):
        data = result.to_dict()
        columns = data["kernel_timings"]
        assert list(columns) == ["durations", "duration_index", "stalled", "stalled_start"]
        ideal, starts = result.ideal_durations, result.start_times
        # Each distinct bit pattern stored once, 0.0 apart from -0.0.
        assert len(columns["durations"]) == len({struct.pack("<d", d) for d in ideal})
        assert len(columns["duration_index"]) == len(ideal)
        previous_finish = [0.0] + [s + d for s, d in zip(starts, ideal)][:-1]
        assert columns["stalled"] == [
            index
            for index, (start, finish) in enumerate(zip(starts, previous_finish))
            if struct.pack("<d", start) != struct.pack("<d", finish)
        ]
        # allow_nan=False: strict RFC-8259 JSON, an infinite time stored as null.
        restored = SimulationResult.from_dict(json.loads(json.dumps(data, allow_nan=False)))
        assert bits(restored) == bits(result)

    def test_signed_zeros_and_subnormals_stay_apart(self):
        result = SimulationResult(
            model_name="m", batch_size=1, policy_name="p", ideal_time=0.0, execution_time=1.0,
            ideal_durations=[0.0, -0.0, 5e-324, 0.0, -5e-324, -0.0],
            start_times=[-0.0, 0.0, 0.0, 5e-324, 5e-324, -0.0],
        )
        data = result.to_dict()["kernel_timings"]
        assert sorted(struct.pack("<d", d) for d in data["durations"]) == sorted(
            struct.pack("<d", d) for d in (0.0, -0.0, 5e-324, -5e-324)
        )
        assert bits([data["durations"][i] for i in data["duration_index"]]) == bits(
            result.ideal_durations
        )
        # Kernel 0 starts at -0.0, not at the 0.0 before it, and kernel 5 at
        # -0.0, not at the 0.0 that 5e-324 + -5e-324 gives; kernels 1-4 start
        # at their previous finish.
        assert data["stalled"] == [0, 5]
        restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert bits(restored) == bits(result)

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(SimulationError, match="start times"):
            SimulationResult(
                model_name="m", batch_size=1, policy_name="p", ideal_time=1.0,
                execution_time=1.0, ideal_durations=[0.5, 0.5], start_times=[0.0],
            )

    def test_three_kernel_layout(self):
        assert three_kernel_payload()["kernel_timings"] == {
            "durations": [0.25, 0.5], "duration_index": [1, 0, 1],
            "stalled": [1], "stalled_start": [0.75],
        }

    @pytest.mark.parametrize("mangle", sorted(MALFORMED_LAYOUTS))
    def test_malformed_layouts_are_rejected(self, mangle):
        data = three_kernel_payload()
        MALFORMED_LAYOUTS[mangle](data["kernel_timings"])
        with pytest.raises(SimulationError, match="kernel timing"):
            SimulationResult.from_dict(data)

    @pytest.mark.parametrize(
        "timings",
        [
            None,
            [],
            [{"index": 0, "ideal_duration": 0.5, "stall": 0.0, "start_time": 0.0}],
            {"ideal_duration": [0.5], "stall": [0.0], "start_time": [0.0]},
        ],
        ids=["missing", "empty-rows", "row-layout", "schema-2-columns"],
    )
    def test_timings_in_another_layout_are_rejected(self, timings):
        data = three_kernel_payload()
        if timings is None:
            del data["kernel_timings"]
        else:
            data["kernel_timings"] = timings
        with pytest.raises(SimulationError, match="kernel.timing"):
            SimulationResult.from_dict(data)

    def test_simulation_result_round_trip(self, bert_ci_workload):
        result = run_policy(bert_ci_workload, "g10")
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.normalized_performance == result.normalized_performance
        assert np.array_equal(restored.kernel_slowdowns(), result.kernel_slowdowns())
        # The dict must be pure JSON: a full dump/load cycle preserves it.
        assert SimulationResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result

    def test_failed_result_round_trip(self):
        failed = SimulationResult(
            model_name="m", batch_size=1, policy_name="p",
            ideal_time=1.0, execution_time=float("inf"),
            failed=True, failure_reason="working set exceeds GPU memory",
        )
        # allow_nan=False: the dict must be strict RFC-8259 JSON (no Infinity).
        restored = SimulationResult.from_dict(json.loads(json.dumps(failed.to_dict(), allow_nan=False)))
        assert restored.failed and restored.failure_reason == failed.failure_reason
        assert restored.execution_time == float("inf")


class TestWorkloadMemoKey:
    def test_equal_valued_configs_share_the_memo_entry(self):
        """The memo keys on config *values*: two distinct-but-equal config
        objects must hit the same entry (an id()-based key would miss, and —
        worse — could serve a stale workload after id reuse)."""
        a = build_workload("bert", scale="ci", config=paper_config().with_gpu_memory(10 * GB))
        b = build_workload("bert", scale="ci", config=paper_config().with_gpu_memory(10 * GB))
        assert a is b

    def test_different_configs_do_not_collide(self):
        a = build_workload("bert", scale="ci", config=paper_config().with_gpu_memory(10 * GB))
        b = build_workload("bert", scale="ci", config=paper_config().with_gpu_memory(11 * GB))
        assert a is not b
        assert a.config.gpu.memory_bytes != b.config.gpu.memory_bytes


class TestConfigPatch:
    def test_empty_patch_is_identity(self):
        config = paper_config()
        assert ConfigPatch().is_empty()
        assert ConfigPatch().apply(config) == config

    def test_patch_fields_apply(self):
        patch = ConfigPatch(
            host_memory_bytes=3 * GB,
            interconnect_bandwidth=32 * GB,
            ssd_read_bandwidth=6.4 * GB,
        )
        config = patch.apply(paper_config())
        assert config.host_memory_bytes == 3 * GB
        assert config.interconnect.bandwidth == 32 * GB
        assert config.ssd.read_bandwidth == 6.4 * GB
        # Write bandwidth scales proportionally when not given explicitly.
        assert config.ssd.write_bandwidth == pytest.approx(6.4 * GB * (3.0 / 3.2))

    def test_round_trip(self):
        patch = ConfigPatch(host_memory_bytes=GB, ssd_read_bandwidth=2.0 * GB)
        assert ConfigPatch.from_dict(patch.to_dict()) == patch
        assert ConfigPatch.from_dict({}) == ConfigPatch()

    def test_fields_are_canonical_at_construction(self):
        patch = ConfigPatch(
            host_memory_bytes=16e9,
            gpu_memory_bytes=np.float64(8 * GB),
            interconnect_bandwidth=32 * GB,
            ssd_read_bandwidth=np.int64(GB),
            ssd_write_bandwidth=2.5 * GB,
        )
        assert patch == ConfigPatch(
            host_memory_bytes=16 * 10**9,
            gpu_memory_bytes=8 * GB,
            interconnect_bandwidth=32.0 * GB,
            ssd_read_bandwidth=float(GB),
            ssd_write_bandwidth=2.5 * GB,
        )
        assert [type(value) for value in patch.__dict__.values()] == [int, int, float, float, float]
        assert dataclasses.replace(patch, host_memory_bytes=1.5e9).host_memory_bytes == 1_500_000_000

    @pytest.mark.parametrize(
        "field,value",
        [
            ("host_memory_bytes", "1e9"),
            ("gpu_memory_bytes", True),
            ("gpu_memory_bytes", math.nan),
            ("host_memory_bytes", math.inf),
            ("interconnect_bandwidth", "32"),
            ("ssd_read_bandwidth", False),
        ],
        ids=["bytes-string", "bytes-bool", "bytes-nan", "bytes-inf", "bandwidth-string",
             "bandwidth-bool"],
    )
    def test_a_value_that_is_not_a_number_is_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ConfigPatch(**{field: value})

    def test_write_bandwidth_alone_keeps_read_bandwidth(self):
        base = default_config("bert", "ci")
        config = ConfigPatch(ssd_write_bandwidth=1.5 * GB).apply(base)
        assert config.ssd.write_bandwidth == 1.5 * GB
        assert config.ssd.read_bandwidth == base.ssd.read_bandwidth


#: Each swept axis with a value off the CI default, and where it lands.
PATCH_AXES = {
    "host_memory_bytes": (3 * GB, lambda config: config.host_memory_bytes),
    "gpu_memory_bytes": (12 * GB, lambda config: config.gpu.memory_bytes),
    "interconnect_bandwidth": (32 * GB, lambda config: config.interconnect.bandwidth),
    "ssd_read_bandwidth": (6.4 * GB, lambda config: config.ssd.read_bandwidth),
    "ssd_write_bandwidth": (1.5 * GB, lambda config: config.ssd.write_bandwidth),
}


@pytest.mark.parametrize("axis", sorted(PATCH_AXES))
class TestConfigPatchAxes:
    """Every axis on its own must survive serialization, reach the
    simulated config and change the cell's cache key; an axis that
    stopped at any of these would serve one sensitivity point's results
    for another."""

    def test_axis_round_trips_alone(self, axis):
        value, _ = PATCH_AXES[axis]
        patch = ConfigPatch(**{axis: value})
        assert not patch.is_empty()
        assert patch.to_dict() == {axis: value}
        assert ConfigPatch.from_dict(json.loads(json.dumps(patch.to_dict()))) == patch

    def test_axis_reaches_the_cell_config(self, axis):
        value, read = PATCH_AXES[axis]
        base = default_config("bert", "ci")
        assert read(base) != value
        config = SweepCell(model="bert", scale="ci", patch=ConfigPatch(**{axis: value})).config()
        assert read(config) == value
        assert config.fingerprint() != base.fingerprint()

    @pytest.mark.parametrize(
        "base", [paper_config(), default_config("bert", "ci")], ids=["paper", "ci"]
    )
    def test_axis_config_dict_matches_asdict(self, axis, base):
        value, _ = PATCH_AXES[axis]
        assert_matches_asdict(ConfigPatch(**{axis: value}).apply(base))

    def test_axis_changes_the_cache_key(self, axis):
        value, _ = PATCH_AXES[axis]
        plain = SweepCell(model="bert", scale="ci")
        patched = dataclasses.replace(plain, patch=ConfigPatch(**{axis: value}))
        assert patched.cache_key() != plain.cache_key()


#: Each field that canonicalization makes one type, with whole values that
#: float64 spells exactly.
SPELLED_FIELDS = {
    "batch_size": st.integers(1, 2**20),
    "seed": st.integers(0, 2**31),
    "host_memory_bytes": st.integers(0, 2**45),
    "gpu_memory_bytes": st.integers(1, 2**45),
    "interconnect_bandwidth": st.integers(1, 2**45),
    "ssd_read_bandwidth": st.integers(1, 2**45),
    "ssd_write_bandwidth": st.integers(1, 2**45),
}


def _spelled_cell(field: str, value) -> SweepCell:
    """A noisy CI cell (so the seed counts) with one field set to ``value``."""
    cell = SweepCell(model="bert", policy="g10", scale="ci", profiling_error=0.1)
    if field in ("batch_size", "seed"):
        return dataclasses.replace(cell, **{field: value})
    return dataclasses.replace(cell, patch=ConfigPatch(**{field: value}))


class TestSweepCell:
    def test_resolution_fills_defaults(self):
        cell = SweepCell(model="BERT", policy="g10", scale="ci").resolved()
        assert cell.model == "bert"
        assert cell.batch_size == resolve_batch_size("bert", "ci")

    def test_seed_is_canonicalized_without_noise(self):
        assert SweepCell(model="bert", seed=7).resolved().seed == 0
        assert SweepCell(model="bert", profiling_error=0.1, seed=7).resolved().seed == 7

    @pytest.mark.parametrize(
        "zero", [0, -0.0, np.float64(-0.0)], ids=["int", "negative", "numpy-negative"]
    )
    def test_every_spelling_of_zero_error_shares_one_cache_key(self, zero):
        cell = SweepCell(model="bert", policy="g10", scale="ci")
        spelled = dataclasses.replace(cell, profiling_error=zero)
        resolved = spelled.resolved().profiling_error
        assert type(resolved) is float and str(resolved) == "0.0"
        assert spelled.cache_key() == cell.cache_key()

    @given(field=st.sampled_from(sorted(SPELLED_FIELDS)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_spellings_share_one_key_and_one_memo_entry(self, field, data):
        """An int, a float and the numpy spellings of one value make equal
        cells, so they get one cache key, and a runner keys them once."""
        value = data.draw(SPELLED_FIELDS[field])
        cells = [
            _spelled_cell(field, spelling)
            for spelling in (value, float(value), np.int64(value), np.float64(value))
        ]
        assert all(cell == cells[0] for cell in cells)
        real_key, keyed = SweepCell.cache_key, []

        def recording_key(cell):
            keyed.append(cell)
            return real_key(cell)

        runner = SweepRunner()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SweepCell, "cache_key", recording_key)
            memoized = {runner.cache_key(cell) for cell in cells}
        assert len(keyed) == 1
        assert {cell.cache_key() for cell in cells} == memoized

    @pytest.mark.parametrize(
        "batch", [8.5, math.nan, math.inf, True, "8"],
        ids=["fractional", "nan", "inf", "bool", "string"],
    )
    def test_a_batch_size_that_is_not_whole_is_rejected(self, batch):
        cell = SweepCell(model="bert", policy="g10", scale="ci", batch_size=batch)
        with pytest.raises(ConfigurationError, match="whole number"):
            cell.cache_key()

    def test_cache_key_is_stable_and_sensitive(self):
        cell = SweepCell(model="bert", policy="g10", scale="ci")
        assert cell.cache_key() == SweepCell(model="BERT", policy="g10", scale="ci").cache_key()
        assert cell.cache_key() != dataclasses.replace(cell, policy="deepum").cache_key()
        assert cell.cache_key() != dataclasses.replace(cell, batch_size=16).cache_key()
        assert (
            cell.cache_key()
            != dataclasses.replace(cell, patch=ConfigPatch(host_memory_bytes=GB)).cache_key()
        )

    def test_cell_config_applies_patch_to_scale_default(self):
        cell = SweepCell(model="bert", scale="ci", patch=ConfigPatch(host_memory_bytes=GB))
        config = cell.config()
        assert config.host_memory_bytes == GB
        assert config.gpu.memory_bytes == default_config("bert", "ci").gpu.memory_bytes

    def test_round_trip(self):
        cell = SweepCell(
            model="vit", policy=None, batch_size=32, scale="ci",
            patch=ConfigPatch(ssd_read_bandwidth=GB), profiling_error=0.1, seed=3,
        )
        assert SweepCell.from_dict(cell.to_dict()) == cell

    @pytest.mark.parametrize("cell", MODE_CELLS, ids=MODE_IDS)
    def test_cell_survives_the_worker_round_trip(self, cell):
        """Pool workers and cache entries see a cell only as its JSON dict."""
        restored = SweepCell.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert restored == cell
        assert restored.cache_key() == cell.cache_key()

    def test_characterization_cell_has_no_scenario(self):
        """A characterization cell analyzes a workload but simulates nothing."""
        with pytest.raises(ConfigurationError, match="no policy"):
            SweepCell(model="bert", policy=None, scale="ci").run()


class TestSweepSpecGrid:
    def test_grid_is_model_major(self):
        spec = SweepSpec.grid("g", models=("bert", "vit"), policies=("g10", "deepum"), scale="ci")
        assert [(c.model, c.policy) for c in spec.cells] == [
            ("bert", "g10"), ("bert", "deepum"), ("vit", "g10"), ("vit", "deepum"),
        ]


class TestSweepRunner:
    SPEC = SweepSpec.grid(
        "unit", models=("bert",), policies=("g10", "base_uvm"), scale="ci"
    )

    @pytest.mark.parametrize("jobs", (-1, -2, -64))
    def test_negative_jobs_rejected(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be >= 0"):
            SweepRunner(jobs=jobs)

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = SweepRunner().run(self.SPEC)
        parallel = SweepRunner(jobs=2).run(self.SPEC)
        assert [out.cell for out in serial] == [out.cell for out in parallel]
        for s, p in zip(serial, parallel):
            assert s.payload == p.payload
            assert s.result == p.result

    def test_cache_hit_miss_and_invalidation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache)

        first = runner.run(self.SPEC)
        stats = runner.last_stats
        assert (stats["cells"], stats["cache_hits"], stats["executed"]) == (2, 0, 2)
        # The executed g10 cell planned in-process, so the plan-fragment
        # cache saw at least one lookup (hit or miss depends on what earlier
        # tests already warmed into the process-global cache).
        assert stats["plan_full_hits"] + stats["plan_fragment_hits"] + stats["plan_misses"] >= 1
        assert all(not out.cached for out in first)

        second = runner.run(self.SPEC)
        stats = runner.last_stats
        assert (stats["cells"], stats["cache_hits"], stats["executed"]) == (2, 2, 0)
        # A pure result-cache resume never plans, so no plan-cache lookups.
        assert stats["plan_full_hits"] + stats["plan_fragment_hits"] + stats["plan_misses"] == 0
        assert all(out.cached for out in second)
        assert [s.payload for s in first] == [s.payload for s in second]

        # Changing any configuration input changes the key: a miss, not a stale hit.
        patched = SweepSpec.grid(
            "unit", models=("bert",), policies=("g10", "base_uvm"), scale="ci",
            patches=(ConfigPatch(host_memory_bytes=GB),),
        )
        runner.run(patched)
        assert runner.last_stats["cache_hits"] == 0
        assert runner.last_stats["executed"] == 2

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        cell = self.SPEC.cells[0]
        runner.run([cell])
        cache.path_for(cell.cache_key()).write_text("{not json", encoding="utf-8")
        out = runner.run([cell])[0]
        assert not out.cached

    def test_identical_cells_execute_once(self, tmp_path):
        cell = SweepCell(model="bert", policy="g10", scale="ci")
        runner = SweepRunner(cache=ResultCache(tmp_path))
        outs = runner.run([cell, dataclasses.replace(cell, seed=5), cell])
        assert runner.last_stats["executed"] == 1
        assert outs[0].payload == outs[1].payload == outs[2].payload

    def test_cache_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        SweepRunner(cache=cache).run(self.SPEC)
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_accepts_a_one_shot_iterable_of_cells(self):
        cells = self.SPEC.cells
        from_generator = SweepRunner().run(cell for cell in cells)
        assert [out.cell for out in from_generator] == list(cells)
        assert [out.payload for out in from_generator] == [
            out.payload for out in SweepRunner().run(self.SPEC)
        ]


@pytest.fixture(scope="module")
def serial_modes():
    return SweepRunner().run(MODE_CELLS)


@pytest.fixture(scope="module", params=(2, 4), ids=lambda jobs: f"jobs{jobs}")
def pooled_modes(request):
    """A cold pooled run of MODE_CELLS and the runner's stats. 18 cells over
    2 workers go in two chunks of 9; over 4 workers, in chunks of 4,4,4,4,2."""
    runner = SweepRunner(jobs=request.param)
    outs = runner.run(MODE_CELLS)
    return outs, runner.last_stats


class TestJobsMatchSerial:
    @pytest.mark.parametrize("index", range(len(MODE_CELLS)), ids=MODE_IDS)
    def test_cell_is_bit_identical_to_serial(self, serial_modes, pooled_modes, index):
        pooled = pooled_modes[0][index]
        serial = serial_modes[index]
        assert pooled.cell == serial.cell == MODE_CELLS[index]
        assert not pooled.cached
        assert pooled.payload == serial.payload

    def test_pooled_stats_count_cells_but_not_worker_planning(self, pooled_modes):
        """Workers plan in their own processes, so this process's
        plan-cache counters must not move."""
        _, stats = pooled_modes
        assert (stats["cells"], stats["cache_hits"], stats["executed"]) == (18, 0, 18)
        assert (stats["plan_full_hits"], stats["plan_fragment_hits"], stats["plan_misses"]) == (0, 0, 0)


class _RecordingPool:
    """In-process stand-in for ``ProcessPoolExecutor`` that records how the
    runner sized and chunked its pool."""

    def __init__(self, created: list, max_workers: int):
        self.max_workers = max_workers
        self.chunksize = None
        self.submitted: list[dict] = []
        created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksize = chunksize
        self.submitted = list(items)
        return map(fn, self.submitted)


def _stub_payload(cell: SweepCell) -> dict:
    return {"kind": "simulation", "seed": cell.seed}


def _noisy_cells(count: int) -> list[SweepCell]:
    """``count`` cells with distinct cache keys (one noise seed each)."""
    return [
        SweepCell(model="bert", policy="g10", scale="ci", profiling_error=0.1, seed=seed)
        for seed in range(1, count + 1)
    ]


class TestPoolDispatch:
    """How ``run`` chooses between in-process execution and the pool, and
    what it hands the pool. Cells execute through stubs, so no simulation
    or worker process runs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created: list[_RecordingPool] = []
        monkeypatch.setattr(
            sweep_module, "ProcessPoolExecutor",
            lambda max_workers: _RecordingPool(created, max_workers),
        )
        monkeypatch.setattr(
            sweep_module, "_execute_cell_dict",
            lambda data: _stub_payload(SweepCell.from_dict(data)),
        )
        monkeypatch.setattr(sweep_module, "execute_cell", _stub_payload)
        return created

    @pytest.mark.parametrize("jobs", (None, 0, 1))
    def test_serial_values_never_start_a_pool(self, pools, jobs):
        cells = _noisy_cells(4)
        outs = SweepRunner(jobs=jobs).run(cells)
        assert pools == []
        assert [out.payload["seed"] for out in outs] == [1, 2, 3, 4]

    def test_a_single_miss_runs_in_process(self, pools):
        cell = _noisy_cells(1)[0]
        runner = SweepRunner(jobs=4)
        outs = runner.run([cell, cell, cell])
        assert pools == []
        assert runner.last_stats["executed"] == 1
        assert len(outs) == 3

    def test_a_warm_grid_never_starts_a_pool(self, pools, tmp_path):
        cache = ResultCache(tmp_path)
        cells = _noisy_cells(5)
        for cell in cells:
            cache.put(cell.cache_key(), _stub_payload(cell))
        runner = SweepRunner(jobs=4, cache=cache)
        outs = runner.run(cells)
        assert pools == []
        assert runner.last_stats["cache_hits"] == 5
        assert all(out.cached for out in outs)

    def test_payloads_without_a_result_record_empty_counters(self, pools, tmp_path):
        cache = ResultCache(tmp_path)
        a, b, c = _noisy_cells(3)
        cache.put(a.cache_key(), _stub_payload(a))
        runner = SweepRunner(jobs=2, cache=cache)
        runner.run([a, b, c])
        assert runner.perf_counters == {cell.cache_key(): {} for cell in (a, b, c)}

    @pytest.mark.parametrize(
        "jobs,misses,workers,chunksize",
        [(2, 6, 2, 3), (4, 6, 4, 1), (8, 6, 6, 1), (3, 10, 3, 3), (4, 18, 4, 4)],
    )
    def test_pool_size_and_chunking(self, pools, jobs, misses, workers, chunksize):
        """Never more workers than misses; consecutive cells chunked onto
        one worker so cells that share a workload share its memo."""
        SweepRunner(jobs=jobs).run(_noisy_cells(misses))
        (pool,) = pools
        assert (pool.max_workers, pool.chunksize) == (workers, chunksize)
        assert len(pool.submitted) == misses

    def test_pool_gets_distinct_misses_and_results_keep_spec_order(self, pools, tmp_path):
        cache = ResultCache(tmp_path)
        a, b, c, d = _noisy_cells(4)
        cache.put(b.cache_key(), _stub_payload(b))
        spec = [d, a, b, d, c, a]
        runner = SweepRunner(jobs=2, cache=cache)
        outs = runner.run(spec)
        (pool,) = pools
        assert [SweepCell.from_dict(data) for data in pool.submitted] == [d, a, c]
        assert [out.cell for out in outs] == spec
        assert [out.payload["seed"] for out in outs] == [4, 1, 2, 4, 3, 1]
        assert [out.cached for out in outs] == [False, False, True, False, False, False]
        assert (runner.last_stats["cache_hits"], runner.last_stats["executed"]) == (1, 3)


class TestCharacterizationCells:
    def test_characterization_cell_matches_direct_analysis(self, bert_ci_workload):
        out = SweepRunner().run_one(SweepCell(model="bert", policy=None, scale="ci"))
        assert out.kind == "characterization"
        direct = characterize_workload(bert_ci_workload.report)
        char = out.characterization
        assert np.allclose(char.total_fraction, direct.total_fraction)
        assert np.allclose(char.inactive_period_seconds, direct.inactive_period_seconds)
        assert char.mean_active_fraction == pytest.approx(direct.mean_active_fraction)

    def test_simulation_accessor_guards_kind(self):
        out = SweepRunner().run_one(SweepCell(model="bert", policy=None, scale="ci"))
        with pytest.raises(ConfigurationError):
            _ = out.result

    def test_characterization_accessor_guards_kind(self):
        out = SweepRunner().run_one(SweepCell(model="bert", policy="g10", scale="ci"))
        with pytest.raises(ConfigurationError, match="not a characterization"):
            _ = out.characterization

    def test_workload_metadata_present(self):
        out = SweepRunner().run_one(SweepCell(model="bert", policy="g10", scale="ci"))
        meta = out.workload
        assert meta["model"] == "bert"
        assert meta["num_kernels"] > 50
        assert meta["memory_footprint_ratio"] > 1.0


class TestExecuteCell:
    def test_profiling_error_cell(self, bert_ci_workload):
        payload = execute_cell(
            SweepCell(model="bert", policy="g10", scale="ci", profiling_error=0.2, seed=5)
        )
        direct = run_policy(bert_ci_workload, "g10", profiling_error=0.2, seed=5)
        assert SimulationResult.from_dict(payload["result"]) == direct

    def test_patched_cell_simulates_under_patched_config(self):
        # Zero host memory forces every eviction to flash: traffic must shift.
        plain = SweepRunner().run_one(SweepCell(model="bert", policy="g10", scale="ci"))
        patched = SweepRunner().run_one(
            SweepCell(model="bert", policy="g10", scale="ci", patch=ConfigPatch(host_memory_bytes=0))
        )
        assert patched.result.traffic.gpu_host_bytes == 0
        assert plain.result.traffic.gpu_host_bytes > 0


class TestSweepPlan:
    SPEC = figure11_spec("ci", models=("bert",))  # 6 cells, 6 distinct keys

    def test_manifest_covers_every_cell_with_keys_and_status(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plan = SweepPlan.build(self.SPEC, cache=cache)
        assert [e.cell for e in plan.entries] == list(self.SPEC.cells)
        assert all(len(e.key) == 64 for e in plan.entries)
        assert plan.counts() == {"cells": 6, "distinct": 6, "warm": 0, "to_execute": 6}

        # Warm one cell: the plan flips exactly that entry to cached.
        SweepRunner(cache=cache).run([self.SPEC.cells[0]])
        plan = SweepPlan.build(self.SPEC, cache=cache)
        assert [e.cached for e in plan.entries] == [True] + [False] * 5
        assert plan.counts()["warm"] == 1 and plan.counts()["to_execute"] == 5

    def test_duplicate_cells_share_a_key(self):
        cell = self.SPEC.cells[0]
        plan = SweepPlan.build([cell, dataclasses.replace(cell, seed=9), self.SPEC.cells[1]])
        assert plan.counts() == {"cells": 3, "distinct": 2, "warm": 0, "to_execute": 2}
        assert plan.entries[0].key == plan.entries[1].key

    def test_interrupted_run_resumes_without_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        SweepRunner(cache=cache).run(self.SPEC.cells[:3])  # "crash" halfway through
        resumed = SweepRunner(cache=cache)
        outs = resumed.run(self.SPEC)
        stats = resumed.last_stats
        assert (stats["cells"], stats["cache_hits"], stats["executed"]) == (6, 3, 3)
        assert [out.cell for out in outs] == list(self.SPEC.cells)


class TestExperimentGrids:
    """The plan of every built-in experiment's grid, built without running
    a cell."""

    def test_table_lists_every_experiment_with_a_grid(self):
        assert GRID_EXPERIMENTS == tuple(e.id for e in EXPERIMENTS if e.spec is not None)

    @pytest.mark.parametrize("experiment_id", GRID_EXPERIMENTS)
    def test_cache_key_is_injective_over_resolved_cells(self, experiment_id):
        """Cells that would simulate differently never share a key, and
        spellings of one cell never split it."""
        cells = get_experiment(experiment_id).spec("ci").cells
        distinct = len({cell.resolved() for cell in cells})
        assert len({cell.cache_key() for cell in cells}) == distinct
        assert SweepPlan.build(cells).counts()["distinct"] == distinct

    @pytest.mark.parametrize("experiment_id", GRID_EXPERIMENTS)
    def test_plan_marks_exactly_the_warm_keys(self, experiment_id, tmp_path):
        spec = get_experiment(experiment_id).spec("ci")
        keys = list(dict.fromkeys(cell.cache_key() for cell in spec.cells))
        warm = set(keys[::2])
        cache = ResultCache(tmp_path)
        for key in warm:
            cache.put(key, {"kind": "simulation"})
        plan = SweepPlan.build(spec, cache=cache)
        assert [entry.key for entry in plan.entries] == [cell.cache_key() for cell in spec.cells]
        assert [entry.cached for entry in plan.entries] == [
            entry.key in warm for entry in plan.entries
        ]
        assert plan.counts() == {
            "cells": len(spec.cells), "distinct": len(keys),
            "warm": len(warm), "to_execute": len(keys) - len(warm),
        }

    @pytest.mark.parametrize("experiment_id", GRID_EXPERIMENTS)
    def test_models_subset_selects_that_models_cells(self, experiment_id):
        """``repro figure ID --models bert`` plans exactly the full grid's
        BERT cells, in order; fixed-workload experiments ignore it."""
        experiment = get_experiment(experiment_id)
        full = experiment.spec("ci").cells
        subset = experiment.spec("ci", ("bert",)).cells
        if experiment.supports_models:
            assert subset == tuple(cell for cell in full if cell.resolved().model == "bert")
            assert subset and len(subset) < len(full)
        else:
            assert subset == full


#: Characterization cells, two figures over the same 20 simulation cells,
#: a patched grid, a static table and the tenancy sweep.
PERF_FIGURES = ("2", "12", "13", "16", "table2", "tenancy")
PERF_FIELDS = ("events_processed", "pages_moved", "fault_events", "eviction_stalls")


def decoded_perf_totals(cache: ResultCache, figures) -> dict[str, dict[str, int]]:
    """Reference per-figure totals: decode every distinct cell's cache entry."""
    totals = {}
    for experiment_id in figures:
        experiment = get_experiment(experiment_id)
        figure = dict.fromkeys(PERF_FIELDS, 0)
        cells = experiment.spec("ci").cells if experiment.spec is not None else ()
        for key in dict.fromkeys(cell.cache_key() for cell in cells):
            payload = cache.get(key)
            if payload is not None and payload["kind"] == "simulation":
                for field in PERF_FIELDS:
                    figure[field] += payload["result"]["perf"][field]
        totals[experiment.id] = figure
    return totals


@pytest.fixture(scope="class")
def perf_reports(tmp_path_factory):
    """A cold report into an empty cache, then a warm one that records every
    ``ResultCache.get`` made outside ``SweepRunner.run`` (which serves the
    cells the figures render) and every ``SweepCell.cache_key`` call."""
    root = tmp_path_factory.mktemp("perf-reports")
    cache = ResultCache(root / "cache")
    cold = generate_report(
        scale="ci", figures=PERF_FIGURES, runner=SweepRunner(cache=cache), output_dir=root / "cold"
    )
    real_get, real_run, real_key = ResultCache.get, SweepRunner.run, SweepCell.cache_key
    running, gets_outside_run, keyed = [False], [], []

    def recording_get(self, key):
        if not running[0]:
            gets_outside_run.append(key)
        return real_get(self, key)

    def watched_run(self, spec):
        running[0] = True
        try:
            return real_run(self, spec)
        finally:
            running[0] = False

    def recording_key(self):
        keyed.append(self)
        return real_key(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ResultCache, "get", recording_get)
        patch.setattr(SweepRunner, "run", watched_run)
        patch.setattr(SweepCell, "cache_key", recording_key)
        warm = generate_report(
            scale="ci", figures=PERF_FIGURES, runner=SweepRunner(cache=cache),
            output_dir=root / "warm", expect_warm=True,
        )
    return SimpleNamespace(
        cache=cache, cold=cold, warm=warm, gets_outside_run=gets_outside_run, keyed=keyed
    )


class TestReportPerfTotals:
    """Per-figure simulator work comes from the payloads the runner served
    or executed, so it is the same cold, warm and without a cache."""

    @pytest.mark.parametrize("label", ["cold", "warm"])
    def test_totals_equal_decoding_every_entry(self, perf_reports, label):
        manifest = getattr(perf_reports, label)
        reference = decoded_perf_totals(perf_reports.cache, PERF_FIGURES)
        assert {figure["id"]: figure["perf"] for figure in manifest["figures"]} == reference
        assert reference["12"]["events_processed"] > 0
        assert reference["tenancy"]["eviction_stalls"] > 0
        assert manifest["totals"]["perf"] == {
            field: sum(figure[field] for figure in reference.values()) for field in PERF_FIELDS
        }

    def test_warm_totals_decode_no_entry(self, perf_reports):
        assert perf_reports.gets_outside_run == []

    def test_warm_report_keys_each_distinct_cell_once(self, perf_reports):
        """The runner plans and then runs every figure's cells; both share
        one ``cache_key`` call per distinct cell."""
        calls = Counter(map(repr, perf_reports.keyed))
        assert calls and max(calls.values()) == 1

    def test_report_without_a_cache_reports_the_same_work(self, perf_reports, tmp_path):
        cold = perf_reports.cold
        manifest = generate_report(
            scale="ci", figures=("12",), runner=SweepRunner(), output_dir=tmp_path
        )
        assert manifest["totals"]["recomputed"] == 20
        (cached,) = [figure for figure in cold["figures"] if figure["id"] == "12"]
        assert manifest["figures"][0]["perf"] == cached["perf"]
        assert cached["perf"]["events_processed"] > 0

    def test_each_distinct_cell_counts_once_and_unknown_cells_zero(self):
        counters = {"a": {}, "b": {"events_processed": 3, "pages_moved": 5}}
        plan = SweepPlan(
            name="p",
            entries=tuple(
                sweep_module.PlanEntry(cell=SweepCell(model="bert"), key=key, cached=True)
                for key in ("a", "b", "b", "c")
            ),
        )
        assert reporting._perf_totals(plan, counters) == {
            "events_processed": 3, "pages_moved": 5, "fault_events": 0, "eviction_stalls": 0,
        }


class TestReportOutputDirectory:
    def test_unusable_output_dir_fails_before_any_cell(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("")
        cache = ResultCache(tmp_path / "c")
        with pytest.raises(ConfigurationError, match="cannot create report directory"):
            generate_report(
                scale="ci", figures=["2"], runner=SweepRunner(cache=cache),
                output_dir=plain / "report",
            )
        assert cache.stats()["entries"] == 0


class TestReportFromWarmCache:
    FIGURES = ("2", "3", "4")  # three figures over the same 4 characterization cells

    def test_combined_spec_deduplicates_across_figures(self):
        counts = SweepPlan.build(combined_spec("ci", self.FIGURES)).counts()
        assert counts["cells"] == 12 and counts["distinct"] == 4

    def test_warmed_cache_renders_an_all_warm_report(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        warmer = SweepRunner(cache=cache)
        warmer.run(combined_spec("ci", self.FIGURES))
        assert warmer.last_stats["executed"] == 4

        # Regenerating every figure from the warm cache is pure resume: the
        # report proves it by marking every provenance row warm.
        out_dir = tmp_path / "report"
        manifest = generate_report(
            scale="ci", figures=self.FIGURES,
            runner=SweepRunner(cache=cache),
            output_dir=out_dir, expect_warm=True,
        )
        assert manifest["totals"]["recomputed"] == 0
        assert manifest["totals"]["warm"] == 12
        for figure in manifest["figures"]:
            assert figure["to_execute"] == 0
            assert all(row["status"] == "warm" for row in figure["provenance"])

        report_md = (out_dir / "report.md").read_text(encoding="utf-8")
        assert "**12 served warm**" in report_md and "**0 recomputed**" in report_md
        assert "recomputed |" in report_md  # summary column present
        manifest_json = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        perf_totals = manifest_json["totals"].pop("perf")
        assert manifest_json["totals"] == {
            "cells": 12, "distinct": 12, "warm": 12, "recomputed": 0,
        }
        # Characterization-only figures do no simulation work.
        assert set(perf_totals) == {
            "events_processed", "pages_moved", "fault_events", "eviction_stalls",
        }
        assert all(value == 0 for value in perf_totals.values())
        for fid in self.FIGURES:
            assert (out_dir / f"figure{fid}.json").exists()

    def test_expect_warm_fails_on_a_cold_cache_but_still_writes_artifacts(self, tmp_path):
        out_dir = tmp_path / "report"
        with pytest.raises(ReproError, match="recomputed"):
            generate_report(
                scale="ci", figures=("2",),
                runner=SweepRunner(cache=ResultCache(tmp_path / "cold")),
                output_dir=out_dir, expect_warm=True,
            )
        assert (out_dir / "figure2.json").exists()
        assert (out_dir / "report.md").exists()
