"""The per-triple ranking protocol of Section 3.2, kept as a test oracle.

One scoring call and one masked copy per test triple: the slow, obviously
correct reading of the protocol.  :class:`repro.eval.LinkPredictionEvaluator`
must agree with it bit for bit on every scorer family; the equivalence tests
and ``benchmarks/bench_eval_throughput.py`` import this one copy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.eval import EvaluationResult, LinkPredictionEvaluator, RankRecord
from repro.kg.triples import Triple


def rank_with_mean_ties(scores: np.ndarray, target_index: int, mask: np.ndarray) -> float:
    """1-based rank of ``target_index`` among candidates where ``mask`` is True."""
    target_score = scores[target_index]
    considered = scores[mask]
    higher = float(np.sum(considered > target_score))
    tied = float(np.sum(considered == target_score))
    # The target itself is always inside ``considered`` — exclude it from the tie count.
    tied_others = max(tied - 1.0, 0.0)
    return 1.0 + higher + tied_others / 2.0


def row_ranks(
    scores: np.ndarray, targets: np.ndarray, known: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw and filtered oracle ranks of each target in one score row."""
    scores = np.asarray(scores, dtype=np.float64)
    all_candidates = np.ones(len(scores), dtype=bool)
    raw, filtered = [], []
    for target in targets:
        mask = all_candidates.copy()
        for entity in () if known is None else known:
            if entity != target:
                mask[entity] = False
        raw.append(rank_with_mean_ties(scores, target, all_candidates))
        filtered.append(rank_with_mean_ties(scores, target, mask))
    return np.array(raw), np.array(filtered)


def evaluate_per_triple(
    evaluator: LinkPredictionEvaluator,
    scorer,
    test_triples: Optional[Sequence[Triple]] = None,
    model_name: Optional[str] = None,
    sides: Tuple[str, ...] = ("head", "tail"),
) -> EvaluationResult:
    """Rank every test triple with its own scoring call, using ``evaluator``'s filter."""
    triples = list(test_triples) if test_triples is not None else list(evaluator.dataset.test)
    name = model_name or getattr(scorer, "name", type(scorer).__name__)
    result = EvaluationResult(model_name=name, dataset_name=evaluator.dataset.name)
    all_candidates = np.ones(evaluator.dataset.num_entities, dtype=bool)
    for h, r, t in triples:
        if "tail" in sides:
            scores = np.asarray(scorer.score_all_tails(h, r), dtype=np.float64)
            raw = rank_with_mean_ties(scores, t, all_candidates)
            mask = all_candidates.copy()
            for known_tail in evaluator._known_tails.get((h, r), ()):
                if known_tail != t:
                    mask[known_tail] = False
            filtered = rank_with_mean_ties(scores, t, mask)
            result.records.append(RankRecord(h, r, t, "tail", raw, filtered))
        if "head" in sides:
            scores = np.asarray(scorer.score_all_heads(r, t), dtype=np.float64)
            raw = rank_with_mean_ties(scores, h, all_candidates)
            mask = all_candidates.copy()
            for known_head in evaluator._known_heads.get((r, t), ()):
                if known_head != h:
                    mask[known_head] = False
            filtered = rank_with_mean_ties(scores, h, mask)
            result.records.append(RankRecord(h, r, t, "head", raw, filtered))
    return result


def assert_identical_results(reference: EvaluationResult, other: EvaluationResult) -> None:
    """Same records in the same order, with bit-identical raw and filtered ranks."""
    assert len(reference.records) == len(other.records)
    for expected, actual in zip(reference.records, other.records):
        assert (expected.triple, expected.side) == (actual.triple, actual.side)
        assert expected.raw_rank == actual.raw_rank, (expected, actual)
        assert expected.filtered_rank == actual.filtered_rank, (expected, actual)
