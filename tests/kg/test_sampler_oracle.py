"""The packed-key samplers must match the set-based oracle bit for bit.

Same negatives, same ``positive_index`` and the same generator state after
every ``sample()`` call — for both samplers, one and several negatives per
positive, an indexed :class:`TripleSet` train split and a fused-ingest
:class:`ArraySplitView`, and a dense graph where resampling runs many rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg import (
    BernoulliNegativeSampler,
    Dataset,
    TripleSet,
    UniformNegativeSampler,
    Vocabulary,
    ingest_dataset,
    save_dataset,
)
from repro.kg.streaming import ArraySplitView

from sampling_oracle import OracleBernoulliSampler, OracleUniformSampler

PAIRS = [
    (UniformNegativeSampler, OracleUniformSampler),
    (BernoulliNegativeSampler, OracleBernoulliSampler),
]
PAIR_IDS = ["uniform", "bernoulli"]


def dense_train(num_entities: int = 7, num_relations: int = 3) -> TripleSet:
    """About two thirds of every possible triple: most corruptions clash."""
    return TripleSet(
        (h, r, t)
        for h in range(num_entities)
        for r in range(num_relations)
        for t in range(num_entities)
        if (h + 2 * t + r) % 3
    )


def assert_matches_oracle(sampler_class, oracle_class, train, num_entities, positives,
                          num_negatives, seed=0, calls=3):
    sampler = sampler_class(train, num_entities, rng=np.random.default_rng(seed))
    oracle = oracle_class(train, num_entities, rng=np.random.default_rng(seed))
    rounds = []
    for _ in range(calls):
        negatives, positive_index = sampler.sample(positives, num_negatives)
        expected, expected_index = oracle.sample(positives, num_negatives)
        assert np.array_equal(negatives, expected)
        assert np.array_equal(positive_index, expected_index)
        assert sampler.rng.bit_generator.state == oracle.rng.bit_generator.state
        rounds.append(oracle.clash_rounds)
    return rounds


@pytest.fixture(scope="module")
def dense_dataset() -> Dataset:
    num_entities, num_relations = 7, 3
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(num_entities)], [f"r{i}" for i in range(num_relations)]
    )
    train = dense_train(num_entities, num_relations)
    return Dataset("dense", vocab, train, TripleSet([train[0]]), TripleSet([train[1]]))


@pytest.fixture(scope="module")
def fused_dense_train(dense_dataset, tmp_path_factory) -> ArraySplitView:
    directory = save_dataset(dense_dataset, tmp_path_factory.mktemp("dense") / "dense")
    train = ingest_dataset(directory, chunk_size=16, fused=True).dataset.train
    assert isinstance(train, ArraySplitView)
    return train


@pytest.mark.parametrize("num_negatives", [1, 4])
@pytest.mark.parametrize("sampler_class, oracle_class", PAIRS, ids=PAIR_IDS)
def test_toy_graph_matches_the_oracle(sampler_class, oracle_class, num_negatives, toy_dataset):
    train = toy_dataset.train
    assert_matches_oracle(
        sampler_class, oracle_class, train, toy_dataset.num_entities,
        train.to_array(), num_negatives,
    )


@pytest.mark.parametrize("split", ["triple_set", "fused"])
@pytest.mark.parametrize("num_negatives", [1, 4])
@pytest.mark.parametrize("sampler_class, oracle_class", PAIRS, ids=PAIR_IDS)
def test_dense_graph_resamples_for_several_rounds_like_the_oracle(
    sampler_class, oracle_class, num_negatives, split, dense_dataset, fused_dense_train
):
    train = dense_dataset.train if split == "triple_set" else fused_dense_train
    rounds = assert_matches_oracle(
        sampler_class, oracle_class, train, dense_dataset.num_entities,
        train.to_array(), num_negatives,
    )
    assert max(rounds) >= 3


@pytest.mark.parametrize("sampler_class, oracle_class", PAIRS, ids=PAIR_IDS)
def test_empty_train_split_filters_nothing(sampler_class, oracle_class):
    positives = np.array([[0, 0, 1], [2, 1, 3]])
    for train in (TripleSet(), ArraySplitView()):
        rounds = assert_matches_oracle(sampler_class, oracle_class, train, 5, positives, 4)
        assert rounds == [0, 0, 0]


@pytest.mark.parametrize("sampler_class, oracle_class", PAIRS, ids=PAIR_IDS)
def test_relation_outside_the_train_range_is_never_known(sampler_class, oracle_class):
    # With E=6 and R=2 a naive key for (h, 2, t) equals the key of
    # (h + 1, 0, t); every such triple is in train, so aliasing would resample.
    num_entities = 6
    train = TripleSet((h, r, t) for h in range(num_entities) for r in (0, 1) for t in range(num_entities))
    positives = np.array([[0, 2, 0], [3, 2, 5], [1, 7, 2]])
    rounds = assert_matches_oracle(sampler_class, oracle_class, train, num_entities, positives, 4)
    assert rounds == [0, 0, 0]
    sampler = sampler_class(train, num_entities)
    assert not sampler._is_known(np.array([[0, 2, 0], [5, 2, 5], [0, -1, 0]])).any()
    assert sampler._is_known(np.array([[1, 0, 0], [5, 1, 5]])).all()


def test_key_space_overflowing_int64_is_rejected():
    train = TripleSet([(0, 2 ** 40, 1)])
    with pytest.raises(ValueError, match="int64"):
        UniformNegativeSampler(train, num_entities=2 ** 12)
    # A key space that fits still packs.
    UniformNegativeSampler(TripleSet([(0, 2 ** 30, 1)]), num_entities=2 ** 12)


def test_train_ids_outside_the_entity_range_are_rejected():
    with pytest.raises(ValueError, match="num_entities"):
        UniformNegativeSampler(TripleSet([(0, 0, 9)]), num_entities=5)
