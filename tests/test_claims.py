"""The claims table (repro.experiments.claims) on goldens, live runs and paper scale.

CI-scale rows read the committed goldens, which ``tests/test_golden.py`` ties
to live output. The ``ablations`` rows read live CI runs of three G10
variants that no figure renders. The slow test renders Figure 11 at paper
scale and requires its rows to hold there too.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.baselines import G10Policy
from repro.experiments import SweepRunner, figure11_end_to_end, generate_report, jsonify
from repro.experiments.claims import CLAIMS, evaluate
from repro.experiments.figures import FIGURE11_MODELS
from repro.experiments.harness import build_workload
from repro.experiments.reporting import EXPERIMENTS, artifact_name
from repro.sim.engine import simulate

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: G10 and the design ablations of the ``ablations`` payload, by key.
ABLATIONS = {
    "g10": G10Policy,
    "lazy_prefetch": lambda: G10Policy(eager_prefetch=False),
    "largest_tensor": lambda: G10Policy(ranking="largest_tensor"),
    "longest_period": lambda: G10Policy(ranking="longest_period"),
}

FIGURE_CLAIMS = [claim for claim in CLAIMS if claim.source != "ablations"]
ABLATION_CLAIMS = [claim for claim in CLAIMS if claim.source == "ablations"]


@pytest.fixture(scope="module")
def golden_payloads() -> dict:
    return {
        experiment.id: json.loads(
            (GOLDEN_DIR / f"{artifact_name(experiment.id)}.json").read_text(encoding="utf-8")
        )
        for experiment in EXPERIMENTS
    }


@pytest.fixture(scope="module")
def golden_rows(golden_payloads) -> dict:
    return {row["id"]: row for row in evaluate(golden_payloads, "ci")}


@pytest.fixture(scope="module")
def ablation_payloads() -> dict:
    payload = {}
    for model in FIGURE11_MODELS:
        workload = build_workload(model, scale="ci")
        payload[model] = {
            name: simulate(
                workload.graph, workload.config, make_policy(), workload.report
            ).normalized_performance
            for name, make_policy in ABLATIONS.items()
        }
    return {"ablations": payload}


def test_row_ids_are_unique_and_sources_registered():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
    registered = {experiment.id for experiment in EXPERIMENTS}
    assert {claim.source for claim in FIGURE_CLAIMS} <= registered


@pytest.mark.parametrize("claim", FIGURE_CLAIMS, ids=lambda claim: claim.id)
def test_row_holds_on_the_goldens(claim, golden_rows):
    row = golden_rows[claim.id]
    assert row["holds"], row


@pytest.mark.parametrize("claim", ABLATION_CLAIMS, ids=lambda claim: claim.id)
def test_ablation_row_holds_on_live_ci_runs(claim, ablation_payloads):
    (row,) = [row for row in evaluate(ablation_payloads, "ci") if row["id"] == claim.id]
    assert row["holds"], (row, ablation_payloads)


def test_only_rows_of_present_payloads_are_evaluated(golden_payloads):
    rows = evaluate({"11": golden_payloads["11"]}, "ci")
    assert [row["id"] for row in rows] == [c.id for c in CLAIMS if c.source == "11"]
    assert {row["figure"] for row in rows} == {"Figure 11"}
    assert {row["scale"] for row in rows} == {"ci"}
    assert evaluate({}, "ci") == []


def test_a_broken_claim_fails_its_row(golden_payloads, ablation_payloads):
    figure11 = copy.deepcopy(golden_payloads["11"])
    figure11["bert"]["g10"] = figure11["bert"]["base_uvm"] - 0.01
    rows = {row["id"]: row for row in evaluate({"11": figure11}, "ci")}
    assert not rows["fig11_g10_beats_base_uvm"]["holds"]

    figure13 = copy.deepcopy(golden_payloads["13"])
    figure13["bert"]["g10"] = []  # a failed run times no kernel
    rows = {row["id"]: row for row in evaluate({"13": figure13}, "ci")}
    assert math.isnan(rows["fig13_g10_stalled_share"]["measured"])
    assert not rows["fig13_g10_stalled_share"]["holds"]

    ablations = copy.deepcopy(ablation_payloads)
    bert = ablations["ablations"]["bert"]
    bert["lazy_prefetch"] = bert["g10"] + 0.1
    rows = {row["id"]: row for row in evaluate(ablations, "ci")}
    assert not rows["ablation_eager_prefetch"]["holds"]


def test_report_carries_the_claims_of_its_figures(tmp_path, golden_payloads):
    manifest = generate_report(scale="ci", figures=("2", "table1"), output_dir=tmp_path)
    expected = evaluate({"2": golden_payloads["2"], "table1": golden_payloads["table1"]}, "ci")
    assert manifest["claims"] == expected
    assert all(row["holds"] for row in expected)
    assert json.loads((tmp_path / "report.json").read_text())["claims"] == expected
    report_md = (tmp_path / "report.md").read_text()
    assert "## Claims" in report_md
    assert f"{len(expected)} of {len(expected)} rows hold" in report_md
    for row in expected:
        assert f"| {row['id']} |" in report_md


@pytest.mark.slow
def test_paper_scale_figure11_rows_hold():
    payload = jsonify(figure11_end_to_end(scale="paper", runner=SweepRunner(jobs=2)))
    rows = evaluate({"11": payload}, "paper")
    assert len(rows) == sum(claim.source == "11" for claim in CLAIMS)
    assert [row for row in rows if not row["holds"]] == []
