"""The set-based filtered negative sampler, kept as a test oracle.

One Python set lookup per corrupted row, one ``dict.get`` per row for the
Bernoulli side: the slow, obviously correct reading of the corruption
protocol.  :mod:`repro.kg.sampling` must produce the same negatives from the
same random stream, leaving the generator in the same state.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class OracleSampler:
    """Corrupt positives and resample known training triples, row by row."""

    def __init__(self, train, num_entities: int, rng: np.random.Generator,
                 filtered: bool = True, max_resample_rounds: int = 10) -> None:
        self.train = train
        self.num_entities = num_entities
        self.rng = rng
        self.filtered = filtered
        self.max_resample_rounds = max_resample_rounds
        self.known = train.as_set()
        #: Resample rounds that found a clash during the last ``sample`` call.
        self.clash_rounds = 0

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, positives: np.ndarray, num_negatives: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        positives = np.asarray(positives, dtype=np.int64)
        repeated = np.repeat(positives, num_negatives, axis=0)
        positive_index = np.repeat(np.arange(len(positives)), num_negatives)
        corrupt_head = self.corrupt_side(repeated)
        negatives = repeated.copy()
        random_entities = self.rng.integers(0, self.num_entities, size=len(repeated))
        negatives[corrupt_head, 0] = random_entities[corrupt_head]
        negatives[~corrupt_head, 2] = random_entities[~corrupt_head]
        self.clash_rounds = 0
        if self.filtered:
            for _ in range(self.max_resample_rounds):
                clashes = np.array([tuple(row) in self.known for row in negatives], dtype=bool)
                if not clashes.any():
                    break
                self.clash_rounds += 1
                fresh = self.rng.integers(0, self.num_entities, size=int(clashes.sum()))
                rows = np.flatnonzero(clashes)
                head_rows = rows[corrupt_head[rows]]
                tail_rows = rows[~corrupt_head[rows]]
                negatives[head_rows, 0] = fresh[: len(head_rows)]
                negatives[tail_rows, 2] = fresh[len(head_rows):]
        return negatives, positive_index


class OracleUniformSampler(OracleSampler):
    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        return self.rng.random(len(positives)) < 0.5


class OracleBernoulliSampler(OracleSampler):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.head_probability: Dict[int, float] = {}
        for relation in self.train.relations:
            pairs = self.train.pairs_of(relation)
            heads = {h for h, _ in pairs}
            tails = {t for _, t in pairs}
            tails_per_head = len(pairs) / len(heads) if heads else 0.0
            heads_per_tail = len(pairs) / len(tails) if tails else 0.0
            total = tails_per_head + heads_per_tail
            self.head_probability[relation] = tails_per_head / total if total else 0.5

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        probs = np.array([self.head_probability.get(int(r), 0.5) for r in positives[:, 1]])
        return self.rng.random(len(positives)) < probs
