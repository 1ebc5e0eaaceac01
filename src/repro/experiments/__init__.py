"""Experiment drivers: one function per table/figure of the paper.

Every driver takes a :class:`repro.api.Runner` and reads its artifacts
through the runner's accessors (``dataset``, ``leakage``, ``evaluation``,
...), so one runner trains each (model, dataset) pair once for a whole
session of tables.
"""

from ..api.schema import ALL_DATASETS, FB15K, FB15K237, WN18, WN18RR, YAGO, YAGO_DR
from .dataset_experiments import (
    ablation_thresholds,
    figure2_mediators,
    figure4_redundancy_pie,
    section42_leakage,
    table1_statistics,
)
from .headline import (
    figure1_overview,
    table5_fb15k,
    table6_wn18,
    table11_yago,
    table13_hits1_simple_model,
)
from .cartesian_experiments import table2_cartesian_strength, table3_cartesian_predictor
from .comparison_experiments import (
    figure5_6_per_relation_heatmap,
    figure7_8_category_breakdown,
    table7_outperform_redundancy,
    table8_best_model_counts,
    table9_10_12_category_hits,
)

#: Every experiment driver keyed by its paper artefact, for discovery and docs.
EXPERIMENT_INDEX = {
    "table1": table1_statistics,
    "figure1": figure1_overview,
    "figure2": figure2_mediators,
    "figure4": figure4_redundancy_pie,
    "section4.2": section42_leakage,
    "table2": table2_cartesian_strength,
    "table3_4": table3_cartesian_predictor,
    "table5": table5_fb15k,
    "table6": table6_wn18,
    "table7": table7_outperform_redundancy,
    "table8": table8_best_model_counts,
    "figure5_6": figure5_6_per_relation_heatmap,
    "figure7_8": figure7_8_category_breakdown,
    "table9_10_12": table9_10_12_category_hits,
    "table11": table11_yago,
    "table13": table13_hits1_simple_model,
    "ablation_thresholds": ablation_thresholds,
}

#: Drivers that read only datasets and audits; they train no model.
DATASET_EXPERIMENTS = ("table1", "figure2", "figure4", "section4.2", "ablation_thresholds")

__all__ = [
    "ALL_DATASETS",
    "FB15K",
    "FB15K237",
    "WN18",
    "WN18RR",
    "YAGO",
    "YAGO_DR",
    "EXPERIMENT_INDEX",
    "DATASET_EXPERIMENTS",
    "table1_statistics",
    "figure1_overview",
    "figure2_mediators",
    "figure4_redundancy_pie",
    "section42_leakage",
    "ablation_thresholds",
    "table2_cartesian_strength",
    "table3_cartesian_predictor",
    "table5_fb15k",
    "table6_wn18",
    "table7_outperform_redundancy",
    "table8_best_model_counts",
    "figure5_6_per_relation_heatmap",
    "figure7_8_category_breakdown",
    "table9_10_12_category_hits",
    "table11_yago",
    "table13_hits1_simple_model",
]
