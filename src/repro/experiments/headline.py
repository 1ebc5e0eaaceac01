"""Headline accuracy experiments: Figure 1 and Tables 5, 6, 11, 13.

Each driver returns the rows of the corresponding paper table, computed on the
synthetic benchmark replicas with the runner's (small) training budget.
Absolute values are far below the paper's GPU-scale numbers; the claims being
reproduced are the *relative* ones (R1-R3): accuracy collapses on the
de-redundant variants, TransE's successors lose their edge, and the simple
statistics-based model rivals the learned models on the redundant datasets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..api.pipeline import Runner
from ..api.schema import FB15K, FB15K237, WN18, WN18RR, YAGO, YAGO_DR
from ..core.reporting import render_table


def _model_rows(
    runner: Runner, dataset_pairs: Sequence[tuple[str, str]], models: Sequence[str]
) -> List[Dict[str, object]]:
    """One row per model per dataset with raw and filtered measures."""
    rows: List[Dict[str, object]] = []
    for model_name in models:
        for label, dataset_name in dataset_pairs:
            result = runner.evaluation(model_name, dataset_name)
            row: Dict[str, object] = {"model": model_name, "dataset": label}
            row.update(result.metrics().as_dict())
            rows.append(row)
    return rows


def figure1_overview(runner: Runner) -> Dict[str, object]:
    """Figure 1: FMRR of the core models on FB15k vs FB15k-237 and WN18 vs WN18RR."""
    models = list(runner.spec.models)
    series: Dict[str, Dict[str, float]] = {}
    for dataset_name in (FB15K, FB15K237, WN18, WN18RR):
        series[dataset_name] = {
            model: runner.evaluation(model, dataset_name).filtered_metrics().mean_reciprocal_rank
            for model in models
        }
    rows = [
        {"model": model, **{name: series[name][model] for name in series}}
        for model in models
    ]
    degradation = {
        model: {
            "FB15k drop": series[FB15K][model] - series[FB15K237][model],
            "WN18 drop": series[WN18][model] - series[WN18RR][model],
        }
        for model in models
    }
    return {
        "experiment": "figure1",
        "series": series,
        "rows": rows,
        "degradation": degradation,
        "text": render_table(rows, title="Figure 1: FMRR on original vs de-redundant datasets"),
    }


def table5_fb15k(runner: Runner) -> Dict[str, object]:
    """Table 5: link prediction results on FB15k-like vs FB15k-237-like."""
    models = runner.lineup()
    rows = _model_rows(runner, [("FB15k-like", FB15K), ("FB15k-237-like", FB15K237)], models)
    return {
        "experiment": "table5",
        "rows": rows,
        "text": render_table(rows, title="Table 5: Link prediction on FB15k-like vs FB15k-237-like"),
    }


def table6_wn18(runner: Runner) -> Dict[str, object]:
    """Table 6: link prediction results on WN18-like vs WN18RR-like."""
    models = runner.lineup()
    rows = _model_rows(runner, [("WN18-like", WN18), ("WN18RR-like", WN18RR)], models)
    return {
        "experiment": "table6",
        "rows": rows,
        "text": render_table(rows, title="Table 6: Link prediction on WN18-like vs WN18RR-like"),
    }


def table11_yago(runner: Runner) -> Dict[str, object]:
    """Table 11: link prediction results on YAGO3-10-like vs YAGO3-10-like-DR."""
    models = runner.lineup()
    rows = _model_rows(runner, [("YAGO3-10-like", YAGO), ("YAGO3-10-like-DR", YAGO_DR)], models)
    return {
        "experiment": "table11",
        "rows": rows,
        "text": render_table(rows, title="Table 11: Link prediction on YAGO3-10-like vs YAGO3-10-like-DR"),
    }


def table13_hits1_simple_model(runner: Runner) -> Dict[str, object]:
    """Table 13: FHits@1 of every model plus the simple statistics-based model."""
    models = list(runner.lineup()) + ["SimpleModel"]
    datasets = [
        ("FB15k-like", FB15K),
        ("FB15k-237-like", FB15K237),
        ("WN18-like", WN18),
        ("WN18RR-like", WN18RR),
    ]
    rows: List[Dict[str, object]] = []
    for model_name in models:
        row: Dict[str, object] = {"model": model_name}
        for label, dataset_name in datasets:
            metrics = runner.evaluation(model_name, dataset_name).filtered_metrics()
            row[label] = 100.0 * metrics.hits_at_1
        rows.append(row)
    return {
        "experiment": "table13",
        "rows": rows,
        "text": render_table(rows, title="Table 13: FHits@1 results (including the simple model)"),
    }
