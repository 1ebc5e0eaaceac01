"""Dataset-level experiments: Table 1, Figure 2 (descriptive), Figure 4, §4.2.1
leakage statistics and the threshold ablation.
"""

from __future__ import annotations

from typing import Dict, List

from ..api.pipeline import Runner, ensure_snapshot
from ..api.schema import ALL_DATASETS, FB15K, WN18, YAGO
from ..core.cartesian import find_cartesian_relations
from ..core.redundancy import analyse_redundancy
from ..core.reporting import render_key_values, render_table
from ..kg.statistics import dataset_statistics, relation_frequency_share


def table1_statistics(runner: Runner) -> Dict[str, object]:
    """Table 1: statistics of the six evaluation datasets."""
    rows = [
        dataset_statistics(runner.dataset(name)).as_row() for name in ALL_DATASETS
    ]
    return {
        "experiment": "table1",
        "rows": rows,
        "text": render_table(rows, title="Table 1: Statistics of evaluation datasets"),
    }


def figure2_mediators(runner: Runner) -> Dict[str, object]:
    """Figure 2/Section 4.1 (descriptive): mediator nodes and concatenated edges.

    The paper's Figure 2 is an illustration of CVT nodes; the quantitative
    claims around it are the snapshot statistics reproduced here: how many
    triples are adjacent to CVT nodes, how many concatenated relations exist,
    how many relations carry an explicit ``reverse_property`` annotation, and
    how much of the FB15k-like benchmark is made of concatenated edges.
    """
    snapshot = ensure_snapshot(runner.store, runner.config)
    fb15k = runner.dataset(FB15K)
    cvt_triples = sum(1 for h, _, t in snapshot.triples if "cvt/" in h or "cvt/" in t)
    concatenated = set(snapshot.concatenated_relations)
    benchmark_concat_triples = sum(
        1
        for _, r, _ in fb15k.all_triples()
        if fb15k.relation_name(r) in concatenated
    )
    values = {
        "snapshot triples": len(snapshot.triples),
        "triples adjacent to CVT nodes": cvt_triples,
        "concatenated relations": len(concatenated),
        "reverse_property pairs": len(snapshot.reverse_property_pairs),
        "cartesian relations (snapshot)": len(snapshot.cartesian_relations),
        "FB15k-like triples": len(fb15k.all_triples()),
        "FB15k-like concatenated triples": benchmark_concat_triples,
        "FB15k-like concatenated share": benchmark_concat_triples / max(1, len(fb15k.all_triples())),
    }
    return {
        "experiment": "figure2",
        "values": values,
        "text": render_key_values(values, title="Figure 2 / Section 4.1: mediator nodes and concatenated edges"),
    }


def figure4_redundancy_pie(runner: Runner) -> Dict[str, object]:
    """Figure 4: redundancy bitmap breakdown of the FB15k-like test set."""
    leakage = runner.leakage(FB15K)
    breakdown = leakage.bitmap_breakdown()
    rows = [{"case": bitmap, "share_percent": share} for bitmap, share in breakdown.items()]
    return {
        "experiment": "figure4",
        "breakdown": breakdown,
        "rows": rows,
        "text": render_table(
            rows, title="Figure 4: Redundancy in the test set of FB15k-like (bitmap cases)"
        ),
    }


def section42_leakage(runner: Runner) -> Dict[str, object]:
    """Section 4.2.1/4.2.2 headline statistics for all three raw benchmarks."""
    rows: List[Dict[str, object]] = []
    for name in (FB15K, WN18, YAGO):
        leakage = runner.leakage(name)
        dataset = runner.dataset(name)
        rows.append(
            {
                "dataset": name,
                "train_reverse_share": leakage.training_reverse_share,
                "test_reverse_in_train_share": leakage.test_reverse_in_train_share,
                "test_redundant_share": leakage.test_redundant_share,
                "top2_relation_share": relation_frequency_share(dataset.train),
            }
        )
    return {
        "experiment": "section42",
        "rows": rows,
        "text": render_table(rows, title="Section 4.2: data-leakage statistics"),
    }


def ablation_thresholds(runner: Runner) -> Dict[str, object]:
    """Ablation (ours): sensitivity of the detectors to the θ thresholds.

    DESIGN.md calls out the 0.8 overlap threshold and the 0.8 Cartesian
    density threshold as the two central design constants of the paper's
    analysis; this ablation sweeps both and reports how many redundant /
    Cartesian relations are detected at each setting.
    """
    fb15k = runner.dataset(FB15K)
    triples = fb15k.all_triples()
    rows: List[Dict[str, object]] = []
    for theta in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        report = analyse_redundancy(triples, theta, theta)
        cartesian = find_cartesian_relations(triples, density_threshold=theta)
        rows.append(
            {
                "theta": theta,
                "duplicate_pairs": len(report.duplicate_pairs),
                "reverse_duplicate_pairs": len(report.reverse_duplicate_pairs),
                "reverse_pairs": len(report.reverse_pairs),
                "symmetric": len(report.symmetric_relations),
                "cartesian_relations": len(cartesian),
            }
        )
    return {
        "experiment": "ablation_thresholds",
        "rows": rows,
        "text": render_table(
            rows, title="Ablation: detector sensitivity to the θ thresholds (FB15k-like)"
        ),
    }
