"""The paper's comparative claims as one table, read from figure payloads.

Each :class:`Claim` row reads the JSON payload of one experiment (the
artifact ``repro report`` writes and ``tests/golden/`` pins), measures one
number on it and compares that number with a bound. :func:`evaluate` returns
every row whose payload is present, so a report of Figure 11 alone shows
Figure 11's rows only. Rows span each figure's whole grid: a "worst model"
row takes the minimum or maximum over every model the payload holds.

The ``paper`` column quotes a value only where the repository already quotes
one; the measured number is what the row names, which is not always the
paper's statistic. A row that stops holding after a golden moves is a
finding to triage, never a bound to relax in the same change.

The ``ablations`` rows read a payload no figure renders: per model, the
normalized performance of G10 (``g10``), of G10 with latest-safe prefetching
only (``lazy_prefetch``) and of G10 ranking eviction candidates by size
(``largest_tensor``) or by inactive-period length (``longest_period``).
``tests/test_claims.py`` builds it from live CI-scale runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

#: The comparison operators a row may use.
_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}

#: Table 1's models, in the paper's naming.
_TABLE1_MODELS = frozenset({"BERT", "ViT", "Inceptionv3", "ResNet152", "SENet154"})


@dataclass(frozen=True)
class Claim:
    """One row: ``measure(payload) <op> bound`` on the ``source`` experiment."""

    id: str
    source: str
    claim: str
    measure: Callable[[Any], float]
    op: str
    bound: float
    paper: str = ""


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def _points(series: Mapping[str, Any]) -> list[Any]:
    """A sweep's values in ascending order of their numeric (string) keys."""
    return [series[key] for key in sorted(series, key=float)]


def _ratio_of_means(series: Mapping, policy: str, other: str) -> float:
    """Mean of ``policy`` over the series' points divided by the mean of ``other``."""
    return _mean(v[policy] for v in series.values()) / _mean(v[other] for v in series.values())


def _stalled(slowdowns: list[float]) -> float:
    """Share of kernels slowed by more than 1% (Figure 13)."""
    return sum(s > 1.01 for s in slowdowns) / len(slowdowns)


def _batch_gap_growth(per_batch: Mapping) -> float:
    """Ideal/Base UVM gap at the largest batch over the gap at the smallest."""
    points = _points(per_batch)
    small, large = points[0], points[-1]
    return (large["ideal"] / max(large["base_uvm"], 1e-9)) / (
        small["ideal"] / max(small["base_uvm"], 1e-9)
    )


CLAIMS: tuple[Claim, ...] = (
    # §3 characterization (Figures 2-4).
    Claim("fig2_four_workloads", "2", "characterized workloads", len, "==", 4),
    Claim("fig2_active_share_small", "2", "mean active share of the footprint, worst workload",
          lambda p: max(w["mean_active_fraction"] for w in p.values()), "<", 0.15, "~1%"),
    Claim("fig2_total_peaks_at_one", "2", "abs(peak total share − 1), worst workload",
          lambda p: max(abs(max(w["total"]) - 1.0) for w in p.values()), "<=", 1e-6),
    Claim("fig3_periods_hide_a_swap", "3",
          "share of inactive periods longer than one SSD round trip (40 us), worst workload",
          lambda p: min(sum(s > 40e-6 for s in w) / len(w) for w in p.values()), ">", 0.5),
    Claim("fig4_sizes_span_orders", "4", "log10(largest / smallest tensor), worst workload",
          lambda p: min(math.log10(max(w["bytes"]) / min(w["bytes"])) for w in p.values()),
          ">", 2.0),
    # §7.2 end-to-end performance (Figures 11-14).
    Claim("fig11_g10_beats_base_uvm", "11", "G10 − Base UVM, worst model",
          lambda p: min(v["g10"] - v["base_uvm"] for v in p.values()), ">", 0.0),
    Claim("fig11_host_staging_vs_gds", "11", "G10-Host − G10-GDS, worst model",
          lambda p: min(v["g10_host"] - v["g10_gds"] for v in p.values()), ">=", -0.02),
    Claim("fig11_g10_vs_gds", "11", "G10 − G10-GDS (host staging on vs off), worst model",
          lambda p: min(v["g10"] - v["g10_gds"] for v in p.values()), ">=", -0.02),
    Claim("fig11_g10_near_deepum", "11", "G10 − DeepUM+, worse of bert and resnet152",
          lambda p: min(p[m]["g10"] - p[m]["deepum"] for m in ("bert", "resnet152")),
          ">=", -0.02),
    Claim("fig11_g10_at_most_ideal", "11", "G10, best model",
          lambda p: max(v["g10"] for v in p.values()), "<=", 1.0),
    Claim("fig11_g10_nonnegative", "11", "G10, worst model",
          lambda p: min(v["g10"] for v in p.values()), ">=", 0.0),
    Claim("fig11_vs_deepum", "11", "mean G10 / mean DeepUM+ (ratio of the means)",
          lambda p: _ratio_of_means(p, "g10", "deepum"), ">", 1.0, "1.31x"),
    Claim("fig11_vs_flashneuron", "11", "mean G10 / mean FlashNeuron (ratio of the means)",
          lambda p: _ratio_of_means(p, "g10", "flashneuron"), ">", 1.0, "1.56x"),
    Claim("fig11_mean_g10", "11", "mean G10 over models",
          lambda p: _mean(v["g10"] for v in p.values()), ">", 0.75, "90.3%"),
    Claim("fig12_g10_stalls_less", "12", "G10 stall − Base UVM stall, worst model",
          lambda p: max(v["g10"]["stall"] - v["base_uvm"]["stall"] for v in p.values()),
          "<=", 1e-6),
    Claim("fig12_shares_sum_to_one", "12", "abs(overlap + stall − 1), worst cell",
          lambda p: max(abs(s["overlap"] + s["stall"] - 1.0)
                        for v in p.values() for s in v.values()), "<", 1e-6),
    Claim("fig12_mean_stall_vs_deepum", "12", "mean G10 stall − mean DeepUM+ stall",
          lambda p: _mean(v["g10"]["stall"] for v in p.values())
          - _mean(v["deepum"]["stall"] for v in p.values()), "<=", 0.02),
    Claim("fig13_g10_stalls_fewer_kernels", "13",
          "G10 − Base UVM share of kernels slowed >1%, worst model",
          lambda p: max(_stalled(v["g10"]) - _stalled(v["base_uvm"]) for v in p.values()),
          "<=", 0.0),
    Claim("fig13_g10_stalled_share", "13", "G10 share of kernels slowed >1%, worst model",
          lambda p: max(_stalled(v["g10"]) for v in p.values()), "<", 0.40),
    Claim("fig13_slowdowns_at_least_one", "13", "smallest kernel slowdown, any design",
          lambda p: min(min(s) for v in p.values() for s in v.values()), ">=", 1.0 - 1e-9),
    Claim("fig14_flashneuron_gds_only", "14", "FlashNeuron GPU-host traffic (GB), worst model",
          lambda p: max(v["flashneuron"]["gpu_host_gb"] for v in p.values()), "==", 0.0),
    Claim("fig14_g10_migrates", "14", "G10 GPU-SSD + GPU-host traffic (GB), least model",
          lambda p: min(v["g10"]["gpu_ssd_gb"] + v["g10"]["gpu_host_gb"] for v in p.values()),
          ">", 0.0),
    Claim("fig14_transformers_prefer_host", "14",
          "G10 GPU-host − GPU-SSD traffic (GB), worse of bert and vit",
          lambda p: min(p[m]["g10"]["gpu_host_gb"] - p[m]["g10"]["gpu_ssd_gb"]
                        for m in ("bert", "vit")), ">", 0.0),
    # §7.3 batch sizes (Figure 15), in samples/s.
    Claim("fig15_g10_at_least_base_uvm", "15", "G10 − Base UVM throughput, worst point",
          lambda p: min(t["g10"] - t["base_uvm"] for v in p.values() for t in v.values()),
          ">=", -1e-9),
    Claim("fig15_g10_at_most_ideal", "15", "G10 − ideal throughput, worst point",
          lambda p: max(t["g10"] - t["ideal"] for v in p.values() for t in v.values()),
          "<=", 1e-6),
    Claim("fig15_gap_widens", "15",
          "ideal/Base UVM gap at the largest batch over the smallest, worst model",
          lambda p: min(_batch_gap_growth(v) for v in p.values()), ">=", 0.9),
    # §7.4 host memory (Figures 16-17), in seconds.
    Claim("fig16_host_memory_never_hurts", "16", "G10 time / time at 0 GB, worst point",
          lambda p: max(t / _points(v)[0] for v in p.values() for t in _points(v)),
          "<=", 1.05),
    Claim("fig16_32gb_no_slower", "16", "G10 time at 32 GB / at 0 GB, worst model",
          lambda p: max(v["32"] / v["0"] for v in p.values()), "<=", 1.01),
    Claim("fig16_32gb_captures_most", "16",
          "G10 time at 32 GB / at the largest capacity, worst model",
          lambda p: max(v["32"] / _points(v)[-1] for v in p.values()), "<=", 2.0),
    Claim("fig17_g10_vs_deepum", "17",
          "mean G10 time / mean DeepUM+ time over the sweep, worst model",
          lambda p: max(_ratio_of_means(v, "g10", "deepum") for v in p.values()),
          "<=", 1.02, "1.26x speedup"),
    Claim("fig17_g10_vs_flashneuron", "17",
          "mean G10 time / mean FlashNeuron time over the sweep, worst model",
          lambda p: max(_ratio_of_means(v, "g10", "flashneuron") for v in p.values()),
          "<=", 1.05, "1.33x speedup"),
    Claim("fig17_flashneuron_flat", "17", "FlashNeuron slowest / fastest time, worst model",
          lambda p: max(max(t["flashneuron"] for t in v.values())
                        / min(t["flashneuron"] for t in v.values()) for v in p.values()),
          "<=", 1.05),
    # §7.5 SSD bandwidth (Figure 18).
    Claim("fig18_g10_at_least_base_uvm", "18", "G10 − Base UVM, worst point",
          lambda p: min(t["g10"] - t["base_uvm"] for v in p.values() for t in v.values()),
          ">=", -1e-9),
    Claim("fig18_g10_near_deepum", "18", "G10 − DeepUM+, worst point",
          lambda p: min(t["g10"] - t["deepum"] for v in p.values() for t in v.values()),
          ">=", -0.03),
    Claim("fig18_bandwidth_never_hurts", "18",
          "G10 at the top bandwidth − at the lowest, worst model",
          lambda p: min(_points(v)[-1]["g10"] - _points(v)[0]["g10"] for v in p.values()),
          ">=", -0.02),
    Claim("fig18_top_band", "18", "G10 at the top bandwidth, worst model",
          lambda p: min(_points(v)[-1]["g10"] for v in p.values()), ">", 0.7),
    # §7.6 profiling error (Figure 19), relative to the error-free run.
    Claim("fig19_error_free_is_baseline", "19", "abs(error-free point − 1), worst model",
          lambda p: max(abs(_points(v)[0] - 1.0) for v in p.values()), "==", 0.0),
    Claim("fig19_error_tolerated", "19", "performance relative to error-free, worst point",
          lambda p: min(r for v in p.values() for r in v.values()), ">", 0.9,
          "<0.5% loss at ±20%"),
    # §7.7 SSD lifetime and Table 1.
    Claim("sec77_g10_outlives_flashneuron", "lifetime",
          "G10 / FlashNeuron projected SSD lifetime, worst model",
          lambda p: min(v["g10_lifetime_years"] / v["flashneuron_lifetime_years"]
                        for v in p.values() if "flashneuron_lifetime_years" in v),
          ">=", 0.95),
    Claim("sec77_multi_year_lifetime", "lifetime",
          "G10 projected SSD lifetime (years), worst model",
          lambda p: min(v["g10_lifetime_years"] for v in p.values()), ">", 1.0),
    Claim("table1_models", "table1", "models missing from or extra to Table 1's five",
          lambda p: len({row["model"] for row in p} ^ _TABLE1_MODELS), "==", 0),
    Claim("table1_exceeds_gpu_memory", "table1",
          "memory footprint (% of GPU memory), least model",
          lambda p: min(row["memory_footprint_pct"] for row in p), ">", 100.0),
    # Design ablations, from live runs.
    Claim("ablation_eager_prefetch", "ablations",
          "G10 − G10 with latest-safe prefetch, worst model",
          lambda p: min(v["g10"] - v["lazy_prefetch"] for v in p.values()), ">=", -0.08),
    Claim("ablation_benefit_cost_ranking", "ablations",
          "G10 − best naive ranking (largest tensor, longest period), worst model",
          lambda p: min(v["g10"] - max(v["largest_tensor"], v["longest_period"])
                        for v in p.values()), ">=", -0.05),
)


def _figure_label(source: str) -> str:
    """The paper artifact a source experiment reproduces (``"11"`` → ``"Figure 11"``)."""
    if source.isdigit():
        return f"Figure {source}"
    return {"lifetime": "§7.7", "table1": "Table 1"}.get(source, source)


def evaluate(payloads: Mapping[str, Any], scale: str) -> list[dict[str, Any]]:
    """Every row whose source payload is present, measured and checked.

    ``payloads`` maps an experiment id (``"11"``, ``"lifetime"``,
    ``"ablations"``) to its JSON payload as ``jsonify`` writes it: numeric
    sweep keys are strings. A row that does not hold is returned with
    ``holds`` false, never raised; so is a row whose measure has no value,
    such as a share of a failed run's empty kernel list, which reads NaN.
    """
    rows = []
    for claim in CLAIMS:
        if claim.source not in payloads:
            continue
        try:
            measured = float(claim.measure(payloads[claim.source]))
        except (ArithmeticError, ValueError):
            measured = math.nan
        rows.append(
            {
                "id": claim.id,
                "figure": _figure_label(claim.source),
                "claim": claim.claim,
                "paper": claim.paper,
                "scale": scale,
                "measured": measured,
                "op": claim.op,
                "bound": claim.bound,
                "holds": bool(_OPS[claim.op](measured, claim.bound)),
            }
        )
    return rows


def table_rows(rows: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Evaluated rows as the Claims table shows them."""
    return [
        {
            "id": row["id"],
            "figure": row["figure"],
            "claim": row["claim"],
            "paper": row["paper"],
            "measured": row["measured"],
            "bound": f"{row['op']} {row['bound']:g}",
            "holds": row["holds"],
        }
        for row in rows
    ]
