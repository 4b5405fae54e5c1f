"""Shared fixtures: tiny hand-built graphs and session-cached CI workloads."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig, paper_config
from repro.core.vitality import TensorVitalityAnalyzer
from repro.experiments import ResultCache, SweepRunner
from repro.experiments.harness import build_workload
from repro.graph import DataflowGraph, expand_training
from repro.profiling import profile_training_graph

from helpers import build_branchy_graph, build_tiny_mlp


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current figure/table outputs",
    )


@pytest.fixture(scope="session")
def update_goldens(request) -> bool:
    """Whether golden files should be rewritten instead of compared."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def golden_runner(tmp_path_factory) -> SweepRunner:
    """One cached runner shared by the golden + tenancy-equivalence suites:
    figures share most of their cells (12-14 are subsets of 11's grid), so
    later experiments render almost entirely from the session cache."""
    return SweepRunner(cache=ResultCache(tmp_path_factory.mktemp("golden-cache")))


@pytest.fixture(scope="session")
def tiny_graph() -> DataflowGraph:
    return build_tiny_mlp()


@pytest.fixture(scope="session")
def branchy_graph() -> DataflowGraph:
    return build_branchy_graph()


@pytest.fixture(scope="session")
def small_config() -> SystemConfig:
    """A deliberately tiny system so the tiny MLP still overflows GPU memory:
    its training iteration peaks at ~154 KiB of live tensors."""
    return paper_config().with_gpu_memory(128 * 1024).with_host_memory(256 * 1024)


@pytest.fixture(scope="session")
def paper_cfg() -> SystemConfig:
    return paper_config()


@pytest.fixture(scope="session")
def tiny_training(tiny_graph, paper_cfg):
    """Profiled training iteration of the tiny MLP."""
    return profile_training_graph(expand_training(tiny_graph), paper_cfg)


@pytest.fixture(scope="session")
def tiny_report(tiny_training):
    return TensorVitalityAnalyzer(tiny_training).analyze()


@pytest.fixture(scope="session")
def bert_ci_workload():
    """A CI-scale BERT workload whose footprint exceeds its (scaled) GPU memory."""
    return build_workload("bert", scale="ci")


@pytest.fixture(scope="session")
def resnet_ci_workload():
    return build_workload("resnet152", scale="ci")
