"""Every oracle accepts a correct answer and rejects a deliberately corrupted one."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402


def tied_row(seed: int = 0, size: int = 60) -> np.ndarray:
    # Few distinct values, so ties are everywhere.
    return np.random.default_rng(seed).integers(0, 8, size).astype(np.float64)


def test_rank_oracle_agrees_with_the_program_and_rejects_a_corrupted_rank():
    from repro.eval.sharding import mean_tie_ranks

    row = tied_row()
    known = np.array([3, 7, 11, 20, 41], dtype=np.int64)
    targets = np.array([7, 12, 30], dtype=np.int64)
    _, filtered = mean_tie_ranks(row, targets, known)
    expected = {int(t): workloads.mean_tie_rank(row, int(t), known) for t in targets}
    observed = {int(t): float(rank) for t, rank in zip(targets, filtered)}
    assert workloads.check_ranks(expected, observed) == []
    corrupted = {**observed, 7: observed[7] + 0.5}
    assert workloads.check_ranks(expected, corrupted)
    assert workloads.check_ranks(expected, {12: observed[12], 30: observed[30]})


def test_topk_oracle_agrees_with_the_engine_and_rejects_a_corrupted_id():
    from repro.serve.engine import topk_row

    row = tied_row(1)
    known = np.array([0, 5, 9, 33], dtype=np.int64)
    candidates = np.setdiff1d(np.arange(row.size), known)
    ids, _ = topk_row(row, 10, candidates)
    expected = workloads.reference_topk(row, known, 10)
    assert workloads.check_topk("q", ids.tolist(), expected) == []
    corrupted = ids.tolist()
    corrupted[4] = int(known[0])
    assert workloads.check_topk("q", corrupted, expected)
    swapped = ids.tolist()
    swapped[0], swapped[1] = swapped[1], swapped[0]
    if row[swapped[0]] == row[swapped[1]]:
        assert workloads.check_topk("q", swapped, expected)


def test_audit_check_rejects_a_corrupted_audit(tmp_path):
    from repro.kg import LiveDatasetMaintainer, ingest_dataset, write_triples_tsv

    rows = {"train": [("a", "r", "b"), ("b", "s", "a"), ("c", "r", "d"), ("d", "s", "c")],
            "valid": [("a", "r", "c")], "test": [("e", "r", "f"), ("f", "s", "e")]}
    for split, triples in rows.items():
        write_triples_tsv(tmp_path / f"{split}.txt", triples)
    maintainer = LiveDatasetMaintainer.from_dataset(ingest_dataset(tmp_path).dataset)
    live = maintainer.audit_report()
    assert workloads.check_audits_equal(live, copy.deepcopy(live)) == []
    corrupted = copy.deepcopy(live)
    corrupted["statistics"]["entities"] = corrupted["statistics"].get("entities", 0) + 1
    assert workloads.check_audits_equal(live, corrupted)
    missing = copy.deepcopy(live)
    missing.pop("leakage")
    assert workloads.check_audits_equal(live, missing)


def test_warm_check_rejects_a_run_that_built_a_scorer():
    evaluations = ["evaluation/TransE/FB15k-like", "evaluation/AMIE/FB15k-like"]
    assert workloads.check_warm(evaluations, 2, 2) == []
    assert workloads.check_warm(evaluations + ["scorer/TransE/FB15k-like"], 2, 2)
    assert workloads.check_warm(evaluations, 3, 2)


def headline_fixture():
    row = {"model": "TransE", "MR": 40.0, "MRR": 0.2, "Hits@1": 10.0, "Hits@3": 20.0,
           "Hits@10": 40.0, "FMR": 30.0, "FMRR": 0.3, "FHits@1": 15.0, "FHits@3": 25.0,
           "FHits@10": 45.0}
    rows = {name: [dict(row, dataset=name)] for name in workloads.HEADLINE_DATASETS}
    audits = {
        "FB15k-like": {"reverse": 12, "duplicate": 2, "redundant_share": 0.7,
                       "asymmetric_redundant": 300},
        "WN18-like": {"reverse": 7, "duplicate": 0, "redundant_share": 0.9,
                      "asymmetric_redundant": 90},
        "FB15k-237-like": {"reverse": 0, "duplicate": 0, "redundant_share": 0.0,
                           "asymmetric_redundant": 0},
        "WN18RR-like": {"reverse": 0, "duplicate": 0, "redundant_share": 0.05,
                        "asymmetric_redundant": 0},
    }
    entities = {name: 1000 for name in workloads.HEADLINE_DATASETS}
    return rows, audits, entities


def test_headline_check_accepts_a_sane_table():
    rows, audits, entities = headline_fixture()
    assert workloads.check_headline(rows, ["TransE"], audits, entities) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows, audits: rows["WN18-like"][0].update(FMRR=1.5),
        lambda rows, audits: rows["FB15k-like"][0].update(MR=0.5),
        lambda rows, audits: rows["WN18RR-like"][0].update({"Hits@3": 50.0}),
        lambda rows, audits: rows["FB15k-237-like"].clear(),
        lambda rows, audits: audits["FB15k-237-like"].update(reverse=1),
        lambda rows, audits: audits["WN18RR-like"].update(asymmetric_redundant=3),
        lambda rows, audits: audits["FB15k-like"].update(duplicate=0),
        lambda rows, audits: audits["WN18-like"].update(redundant_share=0.0),
    ],
)
def test_headline_check_rejects_a_corrupted_row_or_audit(corrupt):
    rows, audits, entities = headline_fixture()
    corrupt(rows, audits)
    assert workloads.check_headline(rows, ["TransE"], audits, entities)


def test_table_digest_sees_the_last_bit():
    rows, _, _ = headline_fixture()
    nudged = copy.deepcopy(rows)
    nudged["FB15k-like"][0]["MRR"] = np.nextafter(0.2, 1.0)
    assert workloads.table_digest(rows) == workloads.table_digest(copy.deepcopy(rows))
    assert workloads.table_digest(rows) != workloads.table_digest(nudged)
