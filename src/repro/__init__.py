"""repro — a from-scratch reproduction of G10 (MICRO 2023).

G10 is a unified GPU memory and storage architecture that scales GPU memory
with flash while hiding the slow flash accesses behind *smart tensor
migrations* planned at compile time. This package implements the complete
system in pure Python: the DNN workload substrate, the tensor vitality
analyzer, the smart migration scheduler, the unified GPU/host/flash memory
system with an SSD simulator, the execution simulator, the published
baselines, and the experiment harness that regenerates every figure of the
paper's evaluation.

Quickstart::

    from repro import Scenario

    outcome = Scenario("bert", scale="ci").on_policy("g10").run()
    print(outcome.normalized_performance)

Scenarios compose fluently; each one is also a cell of the sweep grid::

    base = Scenario("bert").with_batch_size(128).with_gpu_memory(10 * GB)
    for policy in ("base_uvm", "deepum", "g10"):
        print(policy, base.on_policy(policy).run().normalized_performance)

New policies, models and experiments plug in through the open registries —
``@register_policy`` / ``@register_model`` / ``register_experiment`` — and
are immediately runnable through :class:`Scenario`, the sweep runner and the
``python -m repro`` CLI (see ``repro run --list-policies``).
"""

from .config import (
    GB,
    GPUConfig,
    InterconnectConfig,
    SSDConfig,
    SystemConfig,
    UVMConfig,
    paper_config,
)
from .core import MigrationPlanner, TensorVitalityAnalyzer
from .api import Scenario, SessionResult
from .registry import (
    EXPERIMENT_REGISTRY,
    MODEL_REGISTRY,
    POLICY_REGISTRY,
    Registry,
    load_plugins,
    register_experiment,
    register_model,
    register_policy,
)
from .experiments import (
    ConfigPatch,
    ResultCache,
    SweepCell,
    SweepRunner,
    SweepSpec,
)
from .graph import DataflowGraph, TrainingGraph, expand_training
from .models import available_models, build_model
from .profiling import profile_training_graph
from .baselines import POLICY_NAMES, available_policies
from .sim import (
    ExecutionSimulator,
    PerfCounters,
    SimObserver,
    SimulationResult,
    TraceRecorder,
    simulate,
)

__version__ = "1.6.0"

__all__ = [
    "GB",
    "GPUConfig",
    "SSDConfig",
    "InterconnectConfig",
    "UVMConfig",
    "SystemConfig",
    "paper_config",
    "MigrationPlanner",
    "TensorVitalityAnalyzer",
    "Scenario",
    "SessionResult",
    "Registry",
    "POLICY_REGISTRY",
    "MODEL_REGISTRY",
    "EXPERIMENT_REGISTRY",
    "register_policy",
    "register_model",
    "register_experiment",
    "load_plugins",
    "DataflowGraph",
    "TrainingGraph",
    "expand_training",
    "available_models",
    "available_policies",
    "build_model",
    "profile_training_graph",
    "POLICY_NAMES",
    "ExecutionSimulator",
    "PerfCounters",
    "SimObserver",
    "TraceRecorder",
    "SimulationResult",
    "simulate",
    "ConfigPatch",
    "ResultCache",
    "SweepCell",
    "SweepRunner",
    "SweepSpec",
    "__version__",
]
