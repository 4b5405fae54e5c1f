"""Degenerate-tenancy equivalence: N=1 reproduces every solo run bit-for-bit.

The multi-tenant engine promises that wrapping a scenario as a single tenant
issuing one request at time zero is a no-op: no queueing, no contention, no
floating-point drift — the request latency *is* the solo ``execution_time``,
down to the last bit. This suite enforces that promise against the same grid
the golden files pin: every distinct simulation cell of every registered
experiment's CI-scale spec (the cells behind ``tests/golden/*.json``) is run
solo and colocated-with-nobody, and the two must agree exactly.

Sharing the session-scoped ``golden_runner`` means each cell simulates once;
the tenancy wrap replays cached kernel timings, so the whole sweep stays
CI-cheap.
"""

from __future__ import annotations

import pytest

from repro.baselines.factory import POLICY_NAMES
from repro.experiments.tenancy import ArrivalProcess, MultiTenantScenario, Tenant

from helpers import cell_id, simulation_cells

CELLS = simulation_cells()


def test_the_grid_is_nontrivial():
    """The sweep below must actually cover the golden experiments' cells."""
    assert len(CELLS) >= 30
    assert {cell.model for cell in CELLS} >= {"bert", "vit", "resnet152"}
    assert {cell.policy for cell in CELLS} == set(POLICY_NAMES)
    assert any(cell.profiling_error for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_single_tenant_matches_solo_bit_for_bit(cell, golden_runner):
    solo = cell.run(runner=golden_runner)
    multi = MultiTenantScenario(
        tenants=(Tenant("only", cell, ArrivalProcess.trace((0.0,))),)
    ).run(runner=golden_runner)
    outcome = multi.tenants["only"]

    # Bit-for-bit: not approx, equality on the raw floats.
    assert outcome.latencies == (solo.result.execution_time,)
    assert outcome.p50_latency == solo.result.execution_time
    assert outcome.p99_latency == solo.result.execution_time
    assert outcome.solo_latency == solo.result.execution_time
    assert multi.makespan == solo.result.execution_time

    # And the degenerate run is contention-free by construction.
    assert outcome.queue_delays == (0.0,)
    assert outcome.mean_slowdown == 1.0
    assert outcome.eviction_stalls == 0
    assert outcome.eviction_stall_seconds == 0.0
    assert outcome.gc_interference_seconds == 0.0
    assert outcome.times_evicted == 0
    assert multi.fairness == 1.0
    assert outcome.cache_key == solo.cache_key
    assert outcome.config_fingerprint == solo.config_fingerprint
