"""Multi-tenant serving: the deterministic engine and the scenario layer.

Covers the replay-exact contention engine (:mod:`repro.sim.tenancy`), the
seeded arrival processes and fairness aggregation
(:mod:`repro.experiments.tenancy`), the ``Scenario.colocated_with``
combinator, and the registration-order invariance property the engine
guarantees: permuting the order tenants are handed to the simulator cannot
change a single bit of the outcome.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.errors import ConfigurationError
from repro.experiments import jsonify
from repro.experiments.tenancy import (
    MAX_REQUESTS,
    ArrivalProcess,
    MultiTenantScenario,
    Tenant,
    derive_tenant_seed,
    jain_fairness,
)
from repro.sim import tenancy as tenancy_module
from repro.sim.tenancy import (
    SharedSystem,
    TenantTrace,
    simulate_tenancy,
)

GB = 1 << 30


def make_trace(name="a", offsets=(1.0, 2.0, 3.0), footprint=GB, **kwargs):
    if "arrivals" not in kwargs and "think_times" not in kwargs:
        kwargs["think_times"] = (0.0,)
    return TenantTrace(name=name, offsets=tuple(offsets), footprint_bytes=footprint, **kwargs)


def make_system(capacity=2 * GB, **kwargs):
    defaults = dict(
        gpu_capacity_bytes=capacity,
        spill_write_bandwidth=1.0 * GB,
        spill_read_bandwidth=2.0 * GB,
        ssd_capacity_bytes=16 * GB,
    )
    defaults.update(kwargs)
    return SharedSystem(**defaults)


def outcome_fingerprint(outcome) -> str:
    """Canonical text form of a TenancyOutcome for bit-identity comparison."""
    payload = {
        "makespan": outcome.makespan,
        "records": [
            {
                "tenant": r.tenant,
                "index": r.index,
                "arrival": r.arrival,
                "first_start": r.first_start,
                "completion": r.completion,
                "latency": r.latency,
                "queue_delay": r.queue_delay,
                "stall_seconds": r.stall_seconds,
            }
            for r in outcome.records
        ],
        "tenants": {
            name: {
                "latencies": list(stats.latencies),
                "queue_delays": list(stats.queue_delays),
                "eviction_stalls": stats.eviction_stalls,
                "eviction_stall_seconds": stats.eviction_stall_seconds,
                "gc_interference_seconds": stats.gc_interference_seconds,
                "times_evicted": stats.times_evicted,
                "spill_bytes_written": stats.spill_bytes_written,
                "spill_bytes_read": stats.spill_bytes_read,
            }
            for name, stats in outcome.tenants.items()
        },
    }
    return json.dumps(jsonify(payload), sort_keys=True)


#: Three distinct times, so arrivals, kernel offsets and attained service tie
#: often; zero-length kernels leave a tenant's attained service unchanged.
TIMES = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def tenant_traces(draw) -> list[TenantTrace]:
    """One to five tenants, each open loop (sorted arrivals) or closed loop
    (think times), with up to six requests of up to three kernels."""
    traces = []
    for position in range(draw(st.integers(min_value=1, max_value=5))):
        offsets = tuple(itertools.accumulate(draw(st.lists(TIMES, min_size=1, max_size=3))))
        times = draw(st.lists(TIMES, min_size=1, max_size=6))
        open_loop = draw(st.booleans())
        loop = {"arrivals": tuple(sorted(times))} if open_loop else {"think_times": tuple(times)}
        footprint = draw(st.sampled_from([0, GB // 2, GB, 3 * GB // 2]))
        traces.append(make_trace(f"t{position}", offsets, footprint, **loop))
    return traces


class NaiveReadyRequests:
    """The scan the per-tenant heaps replaced: ``min`` over every ready
    request by ``(attained, arrival, tenant, index)``."""

    def __init__(self, states):
        self.states = states
        self.ready = []

    def __len__(self):
        return len(self.ready)

    def add(self, request):
        self.ready.append(request)

    def least(self):
        return min(
            self.ready,
            key=lambda r: (self.states[r.tenant].attained, r.arrival, r.tenant, r.index),
        )

    def remove(self, request):
        self.ready.remove(request)


class TestTenantTrace:
    def test_validates_name_and_offsets(self):
        with pytest.raises(ConfigurationError):
            TenantTrace(name="", offsets=(1.0,), footprint_bytes=0, think_times=(0.0,))
        with pytest.raises(ConfigurationError):
            TenantTrace(name="a", offsets=(), footprint_bytes=0, think_times=(0.0,))
        with pytest.raises(ConfigurationError):
            make_trace(offsets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            make_trace(footprint=-1)

    def test_exactly_one_arrival_mode(self):
        with pytest.raises(ConfigurationError):
            TenantTrace(name="a", offsets=(1.0,), footprint_bytes=0)
        with pytest.raises(ConfigurationError):
            TenantTrace(
                name="a", offsets=(1.0,), footprint_bytes=0,
                arrivals=(0.0,), think_times=(0.0,),
            )

    def test_arrival_and_think_validation(self):
        with pytest.raises(ConfigurationError):
            make_trace(arrivals=(2.0, 1.0), think_times=())
        with pytest.raises(ConfigurationError):
            make_trace(think_times=(-0.5,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_times_rejected(self, bad):
        """NaN passes a ``<`` check, and a NaN offset or arrival used to
        reach ``simulate_tenancy`` and make its makespan NaN."""
        with pytest.raises(ConfigurationError, match="finite"):
            TenantTrace(name="a", offsets=(bad, 1.0), footprint_bytes=0, arrivals=(0.0, bad))
        with pytest.raises(ConfigurationError, match="kernel offsets"):
            make_trace(offsets=(1.0, bad))
        with pytest.raises(ConfigurationError, match="arrivals"):
            make_trace(arrivals=(0.0, bad), think_times=())
        with pytest.raises(ConfigurationError, match="think times"):
            make_trace(think_times=(bad,))
        with pytest.raises(ConfigurationError, match="footprint"):
            make_trace(footprint=bad)

    def test_request_count_and_solo_latency(self):
        open_loop = make_trace(arrivals=(0.0, 1.0, 2.0), think_times=())
        assert open_loop.request_count == 3
        closed_loop = make_trace(think_times=(0.0, 1.0))
        assert closed_loop.request_count == 2
        assert closed_loop.solo_latency == 3.0


class TestSharedSystem:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("gpu_capacity_bytes", 0),
            ("spill_write_bandwidth", 0.0),
            ("spill_read_bandwidth", -1.0),
            ("ssd_capacity_bytes", 0),
            ("gc_alpha", -0.1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            make_system(**{field: value})


class TestSimulateTenancy:
    def test_needs_traces_and_unique_names(self):
        with pytest.raises(ConfigurationError):
            simulate_tenancy((), make_system())
        with pytest.raises(ConfigurationError):
            simulate_tenancy((make_trace("a"), make_trace("a")), make_system())

    def test_single_request_is_replay_exact(self):
        """The degenerate case: latency equals the solo timeline bit-for-bit."""
        trace = make_trace(offsets=(0.1, 0.30000000000000004, 0.7))
        outcome = simulate_tenancy((trace,), make_system())
        stats = outcome.tenants["a"]
        assert stats.latencies == (trace.solo_latency,)
        assert stats.queue_delays == (0.0,)
        assert stats.eviction_stalls == 0
        assert outcome.makespan == trace.solo_latency
        assert outcome.records[0].stall_seconds == 0.0

    def test_closed_loop_back_to_back(self):
        """Think time 0 chains requests seamlessly; latencies stay solo-exact."""
        trace = make_trace(offsets=(1.0, 2.5), think_times=(0.0, 0.0, 0.5))
        outcome = simulate_tenancy((trace,), make_system())
        stats = outcome.tenants["a"]
        assert stats.latencies == (2.5, 2.5, 2.5)
        assert outcome.makespan == 2.5 + 2.5 + 0.5 + 2.5

    @settings(max_examples=300, deadline=None)
    @given(traces=tenant_traces(), capacity=st.sampled_from([GB, 2 * GB]))
    # A zero-length kernel leaves t0's attained service at 0.0, so t0's
    # second request ties t1's first on service and arrival: the tenant
    # name, not the request index, must decide.
    @example(
        traces=[
            make_trace("t0", (0.0,), GB, arrivals=(0.0, 0.0)),
            make_trace("t1", (0.5,), GB, arrivals=(0.0,)),
        ],
        capacity=GB,
    )
    def test_picks_match_a_scan_of_every_ready_request(self, traces, capacity):
        """Every pick, and so every bit of the outcome, is the naive scan's."""
        system = make_system(capacity)
        outcome = simulate_tenancy(traces, system)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tenancy_module, "_ReadyRequests", NaiveReadyRequests)
            expected = simulate_tenancy(traces, system)
        assert repr(outcome) == repr(expected)

    def test_open_loop_queueing_delay(self):
        """A request arriving while another runs waits, and the wait is latency."""
        trace = make_trace(offsets=(2.0,), arrivals=(0.0, 1.0), think_times=())
        outcome = simulate_tenancy((trace,), make_system())
        stats = outcome.tenants["a"]
        # Second request arrives at 1.0, starts at 2.0, finishes at 4.0.
        assert stats.latencies == (2.0, 3.0)
        assert stats.queue_delays == (0.0, 1.0)
        assert outcome.makespan == 4.0

    def test_contention_spills_and_stalls(self):
        """An arrival that preempts a resident working set spills it via SSD.

        ``b`` arrives mid-run of ``a`` with less attained service, so the
        scheduler switches at the next kernel boundary; both footprints fill
        the GPU, so admitting ``b`` evicts ``a``, and ``a`` later pays a
        refill read to resume.
        """
        a = make_trace("a", offsets=(1.0, 2.0, 3.0, 4.0), footprint=2 * GB,
                       arrivals=(0.0,), think_times=())
        b = make_trace("b", offsets=(1.0, 2.0), footprint=2 * GB,
                       arrivals=(0.5,), think_times=())
        outcome = simulate_tenancy((a, b), make_system(capacity=2 * GB))
        assert outcome.tenants["a"].times_evicted > 0
        assert outcome.tenants["b"].eviction_stalls > 0  # charged the spill write
        assert outcome.tenants["a"].eviction_stalls > 0  # charged the refill read
        assert outcome.tenants["b"].spill_bytes_written > 0
        assert outcome.tenants["a"].spill_bytes_read > 0
        assert outcome.perf.eviction_stall_seconds > 0
        assert outcome.perf.pages_moved > 0
        assert outcome.perf.fault_events > 0
        # Contention only ever adds latency over the solo run.
        for trace, stats in ((a, outcome.tenants["a"]), (b, outcome.tenants["b"])):
            assert all(latency >= trace.solo_latency for latency in stats.latencies)

    def test_gc_interference_grows_with_alpha(self):
        """The second spill sees non-zero SSD utilization, so gc_alpha bites."""
        def run(alpha):
            a = make_trace("a", offsets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                           footprint=2 * GB, arrivals=(0.0,), think_times=())
            b = make_trace("b", offsets=(0.5,), footprint=2 * GB,
                           arrivals=(0.5, 2.0, 4.5), think_times=())
            system = make_system(capacity=2 * GB, ssd_capacity_bytes=4 * GB, gc_alpha=alpha)
            return simulate_tenancy((a, b), system)

        calm = run(0.0)
        noisy = run(4.0)
        assert sum(s.times_evicted for s in calm.tenants.values()) >= 2
        assert sum(s.gc_interference_seconds for s in calm.tenants.values()) == 0.0
        assert sum(s.gc_interference_seconds for s in noisy.tenants.values()) > 0.0
        assert noisy.makespan > calm.makespan

    def test_least_attained_service_prefers_newcomer(self):
        """A tenant that arrives late has zero attained service and runs next."""
        early = make_trace("early", offsets=(1.0, 2.0, 3.0, 4.0), arrivals=(0.0,), think_times=())
        late = make_trace("late", offsets=(1.0,), arrivals=(1.5,), think_times=())
        outcome = simulate_tenancy((early, late), make_system(capacity=4 * GB))
        by_tenant = {r.tenant: r for r in outcome.records}
        # The late tenant preempts at the next kernel boundary (2.0) instead
        # of waiting for early's full four-kernel run.
        assert by_tenant["late"].completion < by_tenant["early"].completion

    def test_registration_order_is_irrelevant(self):
        """Bit-identical outcomes for every permutation of the trace tuple."""
        traces = [
            make_trace("alpha", offsets=(0.5, 1.5), footprint=GB, arrivals=(0.0, 2.0), think_times=()),
            make_trace("beta", offsets=(0.5, 1.5), footprint=2 * GB, arrivals=(0.0, 1.0), think_times=()),
            make_trace("gamma", offsets=(1.0,), footprint=GB, think_times=(0.0, 0.25)),
        ]
        system = make_system(capacity=2 * GB)
        reference = outcome_fingerprint(simulate_tenancy(tuple(traces), system))
        for permutation in itertools.permutations(traces):
            assert outcome_fingerprint(simulate_tenancy(permutation, system)) == reference

    def test_same_timestamp_ties_break_on_content(self):
        """Simultaneous arrivals drain by (attained, arrival, name, index) —
        the drain order is alphabetical here regardless of schedule order."""
        a = make_trace("a", offsets=(1.0,), arrivals=(0.0,), think_times=())
        b = make_trace("b", offsets=(1.0,), arrivals=(0.0,), think_times=())
        for order in ((a, b), (b, a)):
            outcome = simulate_tenancy(order, make_system(capacity=4 * GB))
            assert [r.tenant for r in outcome.records] == ["a", "b"]

    def test_deterministic_across_runs(self):
        traces = (
            make_trace("x", footprint=2 * GB, arrivals=(0.0, 0.5, 3.0), think_times=()),
            make_trace("y", footprint=GB, think_times=(0.1, 0.0)),
        )
        system = make_system(capacity=2 * GB)
        first = outcome_fingerprint(simulate_tenancy(traces, system))
        second = outcome_fingerprint(simulate_tenancy(traces, system))
        assert first == second


class TestArrivalProcess:
    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalProcess(kind="uniform")
        with pytest.raises(ConfigurationError):
            ArrivalProcess.poisson()  # neither load nor rate
        with pytest.raises(ConfigurationError):
            ArrivalProcess.poisson(load=1.0, rate=1.0)
        with pytest.raises(ConfigurationError):
            ArrivalProcess.poisson(load=1.0, requests=0)
        with pytest.raises(ConfigurationError):
            ArrivalProcess.trace(())
        with pytest.raises(ConfigurationError):
            ArrivalProcess.trace((-1.0,))
        with pytest.raises(ConfigurationError):
            ArrivalProcess.poisson(load=1.0, seed=-1)
        for load, rate in ((math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ConfigurationError):
                ArrivalProcess.poisson(load=load, rate=rate)
        for think_times in ((math.nan,), (1.0, math.inf)):
            with pytest.raises(ConfigurationError):
                ArrivalProcess.trace(think_times)

    def test_poisson_request_count_is_bounded(self):
        assert ArrivalProcess.poisson(load=1.0, requests=MAX_REQUESTS).requests == MAX_REQUESTS
        with pytest.raises(ConfigurationError, match=f"1 to {MAX_REQUESTS} requests"):
            ArrivalProcess.poisson(load=1.0, requests=MAX_REQUESTS + 1)

    def test_poisson_resolve_is_seeded_and_sorted(self):
        process = ArrivalProcess.poisson(load=1.0, requests=8, seed=7)
        arrivals, think = process.resolve("tenant-a", solo_latency=2.0)
        assert think == ()
        assert len(arrivals) == 8
        assert all(a > 0 for a in arrivals)
        assert list(arrivals) == sorted(arrivals)
        again, _ = process.resolve("tenant-a", solo_latency=2.0)
        assert arrivals == again
        other, _ = process.resolve("tenant-b", solo_latency=2.0)
        assert arrivals != other

    def test_poisson_rate_vs_load(self):
        by_rate = ArrivalProcess.poisson(rate=0.5, requests=4, seed=3)
        by_load = ArrivalProcess.poisson(load=1.0, requests=4, seed=3)
        # load=1.0 at solo latency 2.0 is exactly rate 0.5.
        assert by_rate.resolve("t", 123.0) == by_load.resolve("t", 2.0)
        with pytest.raises(ConfigurationError):
            by_load.resolve("t", 0.0)

    def test_trace_resolve(self):
        absolute = ArrivalProcess.trace((1.0, 2.0))
        assert absolute.resolve("t", 5.0) == ((), (1.0, 2.0))
        relative = ArrivalProcess.trace((0.5, 1.0), relative=True)
        assert relative.resolve("t", 2.0) == ((), (1.0, 2.0))

    def test_to_dict_round_trips_the_salient_fields(self):
        assert ArrivalProcess.poisson(load=1.5, requests=2, seed=9).to_dict() == {
            "kind": "poisson", "requests": 2, "seed": 9, "load": 1.5,
        }
        assert ArrivalProcess.trace((0.0,), relative=True).to_dict() == {
            "kind": "trace", "think_times": [0.0], "relative": True,
        }

    def test_derive_tenant_seed_depends_on_name_only(self):
        assert derive_tenant_seed("a", 1) == derive_tenant_seed("a", 1)
        assert derive_tenant_seed("a", 1) != derive_tenant_seed("b", 1)
        assert 0 <= derive_tenant_seed("anything", 2**32 - 1) <= 2**32 - 1


class TestJainFairness:
    def test_bounds(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        skewed = jain_fairness([1.0, 10.0])
        assert 0.5 <= skewed < 1.0


class TestMultiTenantScenario:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiTenantScenario(tenants=())
        scenario = Scenario(model="bert", policy="g10", scale="ci")
        tenant = Tenant(name="t0", scenario=scenario, arrivals=ArrivalProcess.trace((0.0,)))
        with pytest.raises(ConfigurationError):
            MultiTenantScenario(tenants=(tenant, tenant))
        for gc_alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                MultiTenantScenario(tenants=(tenant,), gc_alpha=gc_alpha)
        with pytest.raises(ConfigurationError):
            Tenant(name="", scenario=scenario, arrivals=ArrivalProcess.trace((0.0,)))

    def test_with_tenant_is_immutable(self):
        scenario = Scenario(model="bert", policy="g10", scale="ci")
        one = MultiTenantScenario(
            tenants=(Tenant("t0", scenario, ArrivalProcess.trace((0.0,))),)
        )
        two = one.with_tenant("t1", scenario)
        assert len(one.tenants) == 1
        assert len(two.tenants) == 2
        assert two.with_gc_alpha(0.5).gc_alpha == 0.5

    def test_colocated_with_builds_the_combinator(self):
        bert = Scenario(model="bert", policy="g10", scale="ci")
        vit = Scenario(model="vit", policy="base_uvm", scale="ci")
        multi = bert.colocated_with(vit)
        assert isinstance(multi, MultiTenantScenario)
        assert [t.name for t in multi.tenants] == ["t0", "t1"]
        assert multi.tenants[0].scenario is bert
        assert multi.tenants[1].scenario is vit

    def test_colocated_with_rejects_non_scenarios(self):
        bert = Scenario(model="bert", policy="g10", scale="ci")
        with pytest.raises(ConfigurationError):
            bert.colocated_with("vit")

    def test_run_reports_slo_and_fairness(self, golden_runner):
        bert = Scenario(model="bert", policy="g10", scale="ci")
        vit = Scenario(model="vit", policy="g10", scale="ci")
        arrivals = ArrivalProcess.poisson(load=0.75, requests=3, seed=11)
        multi = MultiTenantScenario(
            tenants=(
                Tenant("t0-bert", bert, arrivals),
                Tenant("t1-vit", vit, arrivals),
            )
        )
        result = multi.run(runner=golden_runner)
        assert set(result.tenants) == {"t0-bert", "t1-vit"}
        assert 0.0 < result.fairness <= 1.0
        assert result.makespan > 0
        for outcome in result.tenants.values():
            assert len(outcome.latencies) == 3
            assert outcome.p50_latency <= outcome.p99_latency
            assert outcome.mean_slowdown >= 1.0
            assert outcome.cache_key
            assert outcome.config_fingerprint
        rows = result.summary_rows()
        assert [row["tenant"] for row in rows] == ["t0-bert", "t1-vit"]
        payload = json.dumps(jsonify(result.to_dict()), sort_keys=True)
        assert "fairness" in payload

    def test_run_is_deterministic(self, golden_runner):
        def build():
            bert = Scenario(model="bert", policy="g10", scale="ci")
            return MultiTenantScenario(
                tenants=(
                    Tenant("a", bert, ArrivalProcess.poisson(load=1.0, requests=2, seed=5)),
                    Tenant("b", bert, ArrivalProcess.poisson(load=1.0, requests=2, seed=5)),
                )
            )

        first = json.dumps(jsonify(build().run(runner=golden_runner).to_dict()), sort_keys=True)
        second = json.dumps(jsonify(build().run(runner=golden_runner).to_dict()), sort_keys=True)
        assert first == second

    def test_tenant_registration_order_is_irrelevant_end_to_end(self, golden_runner):
        """The property test the ISSUE asks for, at the scenario layer."""
        bert = Scenario(model="bert", policy="g10", scale="ci")
        vit = Scenario(model="vit", policy="g10", scale="ci")
        tenants = [
            Tenant("t0", bert, ArrivalProcess.poisson(load=0.5, requests=2, seed=2)),
            Tenant("t1", vit, ArrivalProcess.poisson(load=0.5, requests=2, seed=2)),
            Tenant("t2", bert, ArrivalProcess.trace((0.0, 0.5))),
        ]
        reference = None
        for permutation in itertools.permutations(tenants):
            result = MultiTenantScenario(tenants=tuple(permutation)).run(runner=golden_runner)
            text = json.dumps(jsonify(result.to_dict()), sort_keys=True)
            if reference is None:
                reference = text
            assert text == reference


class TestExperimentRegistration:
    def test_tenancy_experiment_is_registered(self):
        from repro.experiments import get_experiment
        from repro.experiments.reporting import artifact_name, experiment_ids

        assert "tenancy" in experiment_ids()
        assert get_experiment("serving").id == "tenancy"
        assert get_experiment("multitenant").id == "tenancy"
        assert artifact_name("tenancy") == "tenancy"
        assert artifact_name("11") == "figure11"

    def test_tenancy_spec_covers_the_grid(self):
        from repro.experiments.tenancy import tenancy_spec

        spec = tenancy_spec(scale="ci")
        assert spec.cells
        assert all(cell.scale == "ci" for cell in spec.cells)
