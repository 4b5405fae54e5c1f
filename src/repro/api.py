"""The Scenario API: the library's composable entry point.

A :class:`Scenario` is an immutable, fluent description of one simulation —
which model, at which batch size and scale, on which system configuration,
under which migration policy::

    from repro import GB, Scenario

    scenario = (
        Scenario(model="bert")
        .with_batch_size(128)
        .with_gpu_memory(40 * GB)
        .with_profiling_error(0.10)
        .on_policy("g10")
    )
    outcome = scenario.run()
    print(outcome.normalized_performance, outcome.cache_key)

Every ``with_*``/``on_*``/``at_*`` method returns a *new* scenario, so
partial scenarios compose freely::

    base = Scenario("vit", scale="ci")
    results = {name: base.on_policy(name).run() for name in ("base_uvm", "g10")}

A scenario is also the cell of the sweep grid (``SweepCell`` is the same
class), so ``Scenario(...).run()`` is bit-identical to the same cell run
through :class:`~repro.experiments.sweep.SweepRunner`, the CLI, or the
:mod:`repro.experiments.harness` ``build_workload``/``run_policy`` engine
functions. Running a scenario yields a :class:`SessionResult`: the raw
:class:`~repro.sim.results.SimulationResult` *plus provenance* (the resolved
scenario, its configuration fingerprint, the content-hash cache key shared
with the sweep cache, and the registered policy metadata).

Models and policies resolve through the open registries
(:mod:`repro.registry`); anything registered with ``@register_policy`` /
``@register_model`` is immediately scenario-runnable.
"""

from .experiments.sweep import Scenario, SessionResult

__all__ = ["Scenario", "SessionResult"]
