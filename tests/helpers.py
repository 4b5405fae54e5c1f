"""Shared graph builders and golden cells used by tests (importable; never
import from conftest).

Living in a regular module rather than ``conftest.py`` keeps test imports
working no matter which conftest pytest happens to bind to the top-level
``conftest`` module name when collecting from the repository root.
"""

from __future__ import annotations

from repro.experiments.reporting import EXPERIMENTS
from repro.graph import DataflowGraph
from repro.graph.tensor import TensorKind
from repro.models.builder import ModelBuilder


def build_tiny_mlp(batch_size: int = 4, hidden: int = 64, layers: int = 3) -> DataflowGraph:
    """A minimal multi-layer perceptron used across unit tests."""
    builder = ModelBuilder(name=f"tiny-mlp-{batch_size}", batch_size=batch_size)
    x = builder.graph.add_tensor("input", (batch_size, hidden), TensorKind.INPUT)
    for _ in range(layers):
        x = builder.linear(x, hidden)
        x = builder.relu(x)
    builder.classifier(x, 10)
    return builder.build()


def build_branchy_graph(batch_size: int = 2) -> DataflowGraph:
    """A graph with a residual branch, exercising join/branch lifetimes."""
    builder = ModelBuilder(name=f"branchy-{batch_size}", batch_size=batch_size)
    x = builder.input_image(3, 16, 16)
    a = builder.conv2d(x, 8, 3)
    a = builder.batchnorm(a)
    b = builder.conv2d(a, 8, 3)
    b = builder.batchnorm(b)
    joined = builder.add(a, b)
    joined = builder.relu(joined)
    pooled = builder.global_pool(joined)
    builder.classifier(pooled, 5)
    return builder.build()


def simulation_cells() -> list:
    """Every distinct simulation cell of every registered experiment's CI spec:
    the cells behind ``tests/golden/*.json``, noisy ones included."""
    seen = {}
    for experiment in EXPERIMENTS:
        if experiment.spec is None:
            continue
        for cell in experiment.spec("ci", None).cells:
            if cell.policy is None:
                continue  # characterization cells simulate nothing
            resolved = cell.resolved()
            seen.setdefault(resolved, resolved)
    return sorted(
        seen,
        key=lambda c: (c.model, str(c.policy), c.batch_size or 0, c.profiling_error, c.seed),
    )


def cell_id(cell) -> str:
    parts = [cell.model, str(cell.policy), f"b{cell.batch_size}"]
    if cell.profiling_error:
        parts.append(f"e{cell.profiling_error:g}s{cell.seed}")
    return "/".join(parts)
