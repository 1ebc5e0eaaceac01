"""Regression tests: the evaluator must be bit-identical to the per-triple
protocol (the oracle in ``ranking_oracle.py``) for every scorer family, at
every batch size and worker count, and must score each unique ``(h, r)`` /
``(r, t)`` query exactly once per run."""

import numpy as np
import pytest

from repro.api.options import EvalOptions
from repro.core.baselines import SimpleRuleModel
from repro.core.cartesian import CartesianProductPredictor
from repro.eval import LinkPredictionEvaluator
from repro.eval.sharding import mean_tie_ranks
from repro.models import ModelConfig, make_model
from repro.models.registry import ALL_EMBEDDING_MODELS
from repro.rules.amie import AmieConfig, AmieMiner
from repro.rules.predictor import RuleBasedPredictor

from ranking_oracle import assert_identical_results, evaluate_per_triple, row_ranks

#: Every scorer family: the registered embedding models plus the rule-based
#: (AMIE), SimpleModel and Cartesian-product predictors.
SCORER_FAMILIES = sorted(ALL_EMBEDDING_MODELS) + ["AMIE", "SimpleModel", "Cartesian"]


def _query_rich_triples(dataset):
    """Every triple of the dataset — lots of shared (h, r) / (r, t) queries."""
    return list(dataset.train) + list(dataset.valid) + list(dataset.test)


def _scorer(family, dataset):
    if family == "AMIE":
        rules = AmieMiner(dataset.train, AmieConfig()).mine()
        return RuleBasedPredictor(rules.rules, dataset.train, dataset.num_entities)
    if family == "SimpleModel":
        return SimpleRuleModel(dataset.train, dataset.num_entities, threshold=0.5)
    if family == "Cartesian":
        return CartesianProductPredictor(dataset.train, dataset.num_entities)
    extra = {"embedding_height": 4} if family == "ConvE" else {}
    model = make_model(
        family,
        dataset.num_entities,
        dataset.num_relations,
        ModelConfig(dim=16, seed=7, extra=extra),
    )
    model.train_mode(False)
    return model


# ---------------------------------------------------------------------------- row kernel
def test_mean_tie_ranks_matches_the_oracle_row():
    rng = np.random.default_rng(7)
    scores = rng.integers(0, 6, size=64).astype(np.float64)  # heavy ties
    targets = np.array([0, 5, 5, 63, 17])
    for known in (None, np.array([], dtype=np.int64), np.array([5, 12, 17, 40])):
        raw, filtered = mean_tie_ranks(scores, targets, known)
        raw_ref, filtered_ref = row_ranks(scores, targets, known)
        np.testing.assert_array_equal(raw, raw_ref)
        np.testing.assert_array_equal(filtered, filtered_ref)


def test_mean_tie_ranks_adds_back_target_in_known_set():
    # When the target itself appears among the known entities, filtering must
    # not subtract it from its own tie group.
    scores = np.array([3.0, 1.0, 3.0, 3.0, 0.0])
    targets = np.array([2])
    known = np.array([0, 2])  # one tied competitor filtered, target re-added
    raw, filtered = mean_tie_ranks(scores, targets, known)
    np.testing.assert_array_equal(raw, [2.0])
    np.testing.assert_array_equal(filtered, [1.5])


# ---------------------------------------------------------------------------- full-metric identity
@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=pytest.mark.multiprocess)]
)
@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("family", SCORER_FAMILIES)
def test_every_scorer_family_matches_the_per_triple_oracle(
    family, batch_size, workers, toy_dataset, capped_workers
):
    scorer = _scorer(family, toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    evaluator = LinkPredictionEvaluator(
        toy_dataset,
        options=EvalOptions(batch_size=batch_size, workers=capped_workers(workers)),
    )
    reference = evaluate_per_triple(evaluator, scorer, test_triples=triples)
    assert_identical_results(reference, evaluator.evaluate(scorer, test_triples=triples))


class _CountingScorer:
    """Records every query the evaluator asks for, delegating to uniform scores."""

    name = "Counting"

    def __init__(self, num_entities):
        self.num_entities = num_entities
        self.tail_queries = []
        self.head_queries = []

    def score_all_tails(self, head, relation):
        raise AssertionError("batched contract must be preferred when present")

    def score_all_heads(self, relation, tail):
        raise AssertionError("batched contract must be preferred when present")

    def score_tails_batch(self, heads, relations):
        self.tail_queries.extend(zip(heads.tolist(), relations.tolist()))
        return np.zeros((len(heads), self.num_entities))

    def score_heads_batch(self, relations, tails):
        self.head_queries.extend(zip(relations.tolist(), tails.tolist()))
        return np.zeros((len(relations), self.num_entities))


@pytest.mark.parametrize("eval_batch_size", [2, 256])
def test_each_unique_query_scored_exactly_once(toy_dataset, eval_batch_size):
    triples = _query_rich_triples(toy_dataset)
    scorer = _CountingScorer(toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(
        toy_dataset, options=EvalOptions(batch_size=eval_batch_size)
    )
    evaluator.evaluate(scorer, test_triples=triples)
    unique_tail_queries = {(h, r) for h, r, _ in triples}
    unique_head_queries = {(r, t) for _, r, t in triples}
    assert len(scorer.tail_queries) == len(set(scorer.tail_queries)) == len(unique_tail_queries)
    assert len(scorer.head_queries) == len(set(scorer.head_queries)) == len(unique_head_queries)
    assert set(scorer.tail_queries) == unique_tail_queries
    assert set(scorer.head_queries) == unique_head_queries


class _ScalarOnlyScorer:
    """A third-party scorer implementing only the single-query contract."""

    name = "ScalarOnly"

    def __init__(self, triples, num_entities):
        self.triples = triples
        self.num_entities = num_entities

    def score_all_tails(self, head, relation):
        scores = np.zeros(self.num_entities)
        for tail in self.triples.tails_of(head, relation):
            scores[tail] = 1.0
        return scores

    def score_all_heads(self, relation, tail):
        scores = np.zeros(self.num_entities)
        for head in self.triples.heads_of(relation, tail):
            scores[head] = 1.0
        return scores


def test_scalar_only_scorers_still_work(toy_dataset):
    scorer = _ScalarOnlyScorer(toy_dataset.all_triples(), toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    reference = evaluate_per_triple(evaluator, scorer, test_triples=triples)
    batched = evaluator.evaluate(scorer, test_triples=triples)
    assert_identical_results(reference, batched)
    filtered = batched.filtered_metrics()
    assert filtered.hits_at_1 == pytest.approx(1.0)
