"""Shared helpers for the benchmark suite (importable module).

Benchmark modules import from here rather than from a ``conftest`` so that
the tests/ and benchmarks/ suites cannot shadow each other's helpers when
pytest collects from the repository root.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
