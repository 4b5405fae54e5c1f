"""Cross-policy invariants: cheap oracles behind the paper's ordering claims.

Figure 11's headline (every design normalised to the ideal, G10 closest to
1.0) silently assumes two things the simulator must never violate, whatever
the configuration:

* the ``ideal`` (infinite-memory) policy is a true lower bound on end-to-end
  execution time, and
* every policy simulates the *identical* kernel set — same kernels, same
  ideal durations — so their times are comparable at all.

These tests check both over randomized small configurations (model, batch,
host-memory and SSD-bandwidth scalings drawn from seeded RNGs, so failures
reproduce), plus the derived-metric consistency the figures rely on.
"""

from __future__ import annotations

import json
import random
import struct
from functools import cache

import pytest

from repro.baselines.factory import POLICY_NAMES, make_policy
from repro.config import GB, MB, paper_config
from repro.core.vitality import TensorVitalityAnalyzer
from repro.experiments import ConfigPatch, SweepCell, SweepRunner, default_config
from repro.experiments.figures import FIGURE11_MODELS
from repro.experiments.harness import build_workload, run_policy
from repro.graph import expand_training
from repro.profiling import profile_training_graph
from repro.sim.executor import ExecutionSimulator
from repro.sim.observer import TraceRecorder
from repro.sim.results import SimulationResult
from repro.uvm.page_table import MemoryLocation

#: Tolerance for float accumulation differences between policies' clocks.
EPS = 1e-9


def _random_cells(seed: int) -> list[SweepCell]:
    """One small randomized configuration, simulated under every policy."""
    rng = random.Random(seed)
    model = rng.choice(("bert", "vit", "resnet152"))
    batch = rng.choice((8, 12, 16, 24))
    base = default_config(model, "ci")
    host_factor = rng.choice((0.0, 0.25, 1.0, 4.0))
    patch = ConfigPatch(
        host_memory_bytes=int(base.host_memory_bytes * host_factor),
        ssd_read_bandwidth=rng.choice((3.2 * GB, 6.4 * GB, 12.8 * GB)),
    )
    return [
        SweepCell(model=model, policy=policy, batch_size=batch, scale="ci", patch=patch)
        for policy in POLICY_NAMES
    ]


@pytest.fixture(scope="module", params=range(4))
def policy_results(request):
    outs = SweepRunner().run(_random_cells(request.param))
    return {out.cell.policy: out.result for out in outs}


def test_ideal_is_a_lower_bound(policy_results):
    ideal = policy_results["ideal"]
    assert not ideal.failed, "the infinite-memory ideal can never fail"
    for policy, result in policy_results.items():
        # Failed runs have infinite execution time, trivially >= ideal.
        assert ideal.execution_time <= result.execution_time + EPS, (
            f"{policy} beat the infinite-memory ideal"
        )


def test_all_policies_share_the_ideal_time(policy_results):
    expected = policy_results["ideal"].ideal_time
    for policy, result in policy_results.items():
        assert result.ideal_time == pytest.approx(expected, rel=1e-12), (
            f"{policy} planned against a different ideal time"
        )


def test_all_policies_simulate_the_identical_kernel_set(policy_results):
    reference = [
        (t.index, t.ideal_duration) for t in policy_results["ideal"].kernel_timings
    ]
    assert reference, "ideal run produced no kernel timings"
    for policy, result in policy_results.items():
        if result.failed:
            continue
        kernels = [(t.index, t.ideal_duration) for t in result.kernel_timings]
        assert kernels == reference, f"{policy} simulated a different kernel set"


def test_execution_time_is_at_least_the_kernel_sum(policy_results):
    for policy, result in policy_results.items():
        if result.failed:
            continue
        kernel_sum = sum(t.actual_duration for t in result.kernel_timings)
        assert result.execution_time + EPS >= kernel_sum - EPS, (
            f"{policy} finished before its own kernels did"
        )
        assert result.normalized_performance <= 1.0 + EPS


# -- kernel stalls derive from the executor's own values ---------------------------
#
# A result stores each kernel's ideal duration and start time and derives its
# stall as ``start_i - (start_{i-1} + ideal_{i-1})``. That is only sound if it
# reproduces, bit for bit, the ``ready - now`` the executor hands its observers.


def _float_bytes(values) -> bytes:
    """``values`` as packed IEEE-754 doubles, so equality tells -0.0 from 0.0."""
    return struct.pack(f"<{len(values)}d", *values)


def assert_stalls_are_the_executors(result: SimulationResult, recorder: TraceRecorder) -> None:
    """The result's derived stalls and its start times equal what the
    recorder saw, before and after a JSON round trip; a failed run stores
    no timings."""
    stalls = [event[2] for event in recorder.events if event[0] == "kernel_finish"]
    starts = [event[2] for event in recorder.events if event[0] == "kernel_start"]
    restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
    for timings in (result, restored):
        if result.failed:
            assert timings.ideal_durations == timings.start_times == []
        else:
            assert len(timings.start_times) == len(stalls) > 0
            assert _float_bytes(timings.kernel_stalls()) == _float_bytes(stalls)
            assert _float_bytes(timings.start_times) == _float_bytes(starts)
            assert _float_bytes([t.stall for t in timings.kernel_timings]) == _float_bytes(stalls)


def _traced_run(workload, policy: str, config=None):
    recorder = TraceRecorder()
    result = run_policy(workload, policy, config=config, observers=(recorder,))
    return result, recorder


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("model", FIGURE11_MODELS)
def test_stalls_derive_on_every_ci_model(model, policy):
    assert_stalls_are_the_executors(*_traced_run(build_workload(model, scale="ci"), policy))


@pytest.mark.parametrize("seed", range(4))
def test_stalls_derive_on_randomized_configurations(seed):
    for cell in _random_cells(seed):
        workload = build_workload(cell.model, cell.batch_size, cell.scale)
        assert_stalls_are_the_executors(*_traced_run(workload, cell.policy, cell.config()))


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("graph", ["tiny_graph", "branchy_graph"])
def test_stalls_derive_on_small_graphs(request, graph, policy, small_config):
    training = profile_training_graph(expand_training(request.getfixturevalue(graph)), small_config)
    recorder = TraceRecorder()
    result = ExecutionSimulator(
        training, small_config, make_policy(policy), TensorVitalityAnalyzer(training).analyze(),
        observers=(recorder,),
    ).run()
    assert_stalls_are_the_executors(result, recorder)


def test_a_failed_run_round_trips_with_empty_columns(tiny_training, tiny_report):
    # 16 KB of GPU memory cannot hold one linear layer's working set.
    config = paper_config().with_gpu_memory(16 * 1024).with_host_memory(64 * MB)
    recorder = TraceRecorder()
    result = ExecutionSimulator(
        tiny_training, config, make_policy("flashneuron"), tiny_report, observers=(recorder,)
    ).run()
    assert result.failed
    assert_stalls_are_the_executors(result, recorder)


# -- end-of-run residency ---------------------------------------------------------
#
# tests/test_runtime_invariants.py checks the executor while it runs, on every
# golden cell, and pins the three known eviction-lifecycle defects as strict
# xfails, including the end-of-run disagreements between the pools and the
# page table. The checks below read only a finished run, over every CI model
# and policy: what the page table places on flash is stored to the byte, and
# no dead tensor keeps a flash object.


@cache
def _finished_run(model: str, policy: str):
    workload = build_workload(model, scale="ci")
    simulator = ExecutionSimulator(
        workload.graph, workload.config, make_policy(policy), workload.report
    )
    assert not simulator.run().failed
    return workload, simulator


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("model", FIGURE11_MODELS)
def test_flash_residents_are_stored_to_the_byte(model, policy):
    # Every tensor the page table places on flash has its object on the SSD,
    # and the device stores exactly its objects' tensor sizes. The converse,
    # that every stored object is placed on flash, is a known defect.
    workload, simulator = _finished_run(model, policy)
    table, ssd = simulator.page_table, simulator.engine.ssd
    on_flash = [
        tensor.tensor_id
        for tensor in workload.graph.tensors
        if tensor.tensor_id in table
        and table.location_of(tensor.tensor_id) is MemoryLocation.FLASH
    ]
    assert all(ssd.contains(tensor_id) for tensor_id in on_flash)
    assert ssd.stored_bytes == sum(
        tensor.size_bytes for tensor in workload.graph.tensors if ssd.contains(tensor.tensor_id)
    )


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("model", FIGURE11_MODELS)
def test_dead_tensors_keep_no_flash_object(model, policy):
    # A tensor whose flash eviction an operand cancelled is back on the GPU,
    # but its flash object stays stored until the tensor dies.
    workload, simulator = _finished_run(model, policy)
    ssd = simulator.engine.ssd
    dead = [usage.tensor_id for usage in workload.report.usages.values() if not usage.is_global]
    assert [tensor_id for tensor_id in dead if ssd.contains(tensor_id)] == []
