"""Negative sampling for embedding-model training.

The paper's models are trained with the corruption protocol of Bordes et al.:
each positive triple ``(h, r, t)`` is paired with negatives obtained by
replacing the head or the tail with a random entity.  Two samplers are
provided:

* :class:`UniformNegativeSampler` — the plain protocol (corrupt head or tail
  with equal probability, uniformly over entities).
* :class:`BernoulliNegativeSampler` — the TransH variant that corrupts the
  side chosen by the relation's head/tail cardinality ratio, reducing false
  negatives on 1-to-n / n-to-1 relations.

Both can *filter* negatives, i.e. resample corruptions that happen to be known
positive triples.  Membership is one vectorized test per resample round: the
training triples are packed once into a sorted array of ``int64`` keys
``(h * R + r) * E + t`` (``E`` entities, ``R`` the training relation-id
range), and a corruption is known when ``searchsorted`` lands on an equal key.
Ids outside ``[0, E) x [0, R) x [0, E)`` are never known, so keys cannot
alias.  Each round draws exactly the random entities the per-row test drew,
so the negatives and the random stream are unchanged by the vectorization.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .triples import TripleSet


class NegativeSampler:
    """Base class: corrupt a batch of positive triples into negatives."""

    def __init__(
        self,
        train: TripleSet,
        num_entities: int,
        rng: Optional[np.random.Generator] = None,
        filtered: bool = True,
        max_resample_rounds: int = 10,
    ) -> None:
        if num_entities <= 1:
            raise ValueError("negative sampling needs at least two entities")
        self.train = train
        self.num_entities = num_entities
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.filtered = filtered
        self.max_resample_rounds = max_resample_rounds
        self._num_key_relations, self._known_keys = self._pack_known(train.to_array())

    # -- protocol ------------------------------------------------------------
    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        """Return a boolean array: True where the *head* should be corrupted."""
        raise NotImplementedError

    def sample(
        self, positives: np.ndarray, num_negatives: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``num_negatives`` corruptions of each positive.

        Parameters
        ----------
        positives:
            ``(n, 3)`` array of positive triples.
        num_negatives:
            Number of negatives per positive.

        Returns
        -------
        negatives:
            ``(n * num_negatives, 3)`` array of corrupted triples.
        positive_index:
            ``(n * num_negatives,)`` array mapping each negative back to the
            row of the positive it corrupts.
        """
        if num_negatives < 1:
            raise ValueError(f"num_negatives must be at least 1, got {num_negatives}")
        positives = np.asarray(positives, dtype=np.int64)
        if positives.ndim != 2 or positives.shape[1] != 3:
            raise ValueError("positives must be an (n, 3) array")
        repeated = np.repeat(positives, num_negatives, axis=0)
        positive_index = np.repeat(np.arange(len(positives)), num_negatives)
        corrupt_head = self.corrupt_side(repeated)
        negatives = repeated.copy()
        random_entities = self.rng.integers(0, self.num_entities, size=len(repeated))
        negatives[corrupt_head, 0] = random_entities[corrupt_head]
        negatives[~corrupt_head, 2] = random_entities[~corrupt_head]
        if self.filtered:
            negatives = self._resample_known_positives(negatives, corrupt_head)
        return negatives, positive_index

    # -- helpers -----------------------------------------------------------------
    def _pack_known(self, triples: np.ndarray) -> Tuple[int, np.ndarray]:
        """The relation-id range and the sorted unique packed keys of ``triples``."""
        num_relations = int(triples[:, 1].max()) + 1 if len(triples) else 0
        if int(self.num_entities) ** 2 * num_relations > np.iinfo(np.int64).max:
            raise ValueError(
                f"{self.num_entities} entities x {num_relations} relations "
                "overflow the int64 triple keys"
            )
        if len(triples) and not self._in_key_space(triples, num_relations).all():
            raise ValueError(
                "training triples need entity ids in [0, num_entities) "
                "and non-negative relation ids"
            )
        return num_relations, np.unique(self._keys(triples, num_relations))

    def _in_key_space(self, triples: np.ndarray, num_relations: int) -> np.ndarray:
        ends = triples[:, (0, 2)]
        entities = ((ends >= 0) & (ends < self.num_entities)).all(axis=1)
        return entities & (triples[:, 1] >= 0) & (triples[:, 1] < num_relations)

    def _keys(self, triples: np.ndarray, num_relations: int) -> np.ndarray:
        return (triples[:, 0] * num_relations + triples[:, 1]) * self.num_entities + triples[:, 2]

    def _is_known(self, triples: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of ``triples`` are training triples."""
        known = self._in_key_space(triples, self._num_key_relations)
        if not known.any():
            return known
        keys = self._keys(triples[known], self._num_key_relations)
        slots = np.searchsorted(self._known_keys, keys)
        found = slots < len(self._known_keys)
        found[found] = self._known_keys[slots[found]] == keys[found]
        known[known] = found
        return known

    def _resample_known_positives(
        self, negatives: np.ndarray, corrupt_head: np.ndarray
    ) -> np.ndarray:
        """Resample any corruption that is a known training triple.

        Only rows redrawn in the previous round can clash in the next one, so
        each round tests just those rows; the draws match a full re-test.
        """
        rows = np.arange(len(negatives))
        for _ in range(self.max_resample_rounds):
            rows = rows[self._is_known(negatives[rows])]
            if not len(rows):
                break
            fresh = self.rng.integers(0, self.num_entities, size=len(rows))
            head_rows = rows[corrupt_head[rows]]
            tail_rows = rows[~corrupt_head[rows]]
            negatives[head_rows, 0] = fresh[: len(head_rows)]
            negatives[tail_rows, 2] = fresh[len(head_rows):]
        return negatives


class UniformNegativeSampler(NegativeSampler):
    """Corrupt head or tail with probability 0.5, uniformly over entities."""

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        return self.rng.random(len(positives)) < 0.5


class BernoulliNegativeSampler(NegativeSampler):
    """TransH's relation-aware corruption-side selection.

    For each relation the probability of corrupting the head is
    ``tph / (tph + hpt)`` where ``tph`` is the average number of tails per
    head and ``hpt`` the average number of heads per tail, both measured on
    the training set.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._head_probability = self._relation_head_probabilities()
        # Relation id -> P(corrupt head); ids the table does not cover get 0.5.
        self._head_probability_table = np.full(self._num_key_relations, 0.5)
        for relation, probability in self._head_probability.items():
            self._head_probability_table[relation] = probability

    def _relation_head_probabilities(self) -> Dict[int, float]:
        probabilities: Dict[int, float] = {}
        for relation in self.train.relations:
            pairs = self.train.pairs_of(relation)
            heads = {h for h, _ in pairs}
            tails = {t for _, t in pairs}
            tails_per_head = len(pairs) / len(heads) if heads else 0.0
            heads_per_tail = len(pairs) / len(tails) if tails else 0.0
            total = tails_per_head + heads_per_tail
            probabilities[relation] = tails_per_head / total if total else 0.5
        return probabilities

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        relations = positives[:, 1]
        covered = (relations >= 0) & (relations < len(self._head_probability_table))
        probs = np.full(len(positives), 0.5)
        probs[covered] = self._head_probability_table[relations[covered]]
        return self.rng.random(len(positives)) < probs
