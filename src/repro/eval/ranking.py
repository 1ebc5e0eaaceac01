"""The link-prediction ranking protocol (Section 3.2 of the paper), in query batches.

For every test triple ``(h, r, t)`` the evaluator ranks ``t`` against every
entity as a candidate tail of ``(h, r, ?)`` and ``h`` against every entity as
a candidate head of ``(?, r, t)``.  Two ranks are produced per side:

* the **raw** rank over all candidates, and
* the **filtered** rank, where candidates that are known positive triples
  (in train, valid or test — or in an *alternate ground truth* such as the
  simulated Freebase snapshot for Table 3) are removed before ranking.

Ties are resolved with the *mean* convention (the true triple is placed in
the middle of the candidates sharing its score).  This matters for the
rule-based and Cartesian-product predictors, which assign identical scores to
many candidates; optimistic tie-breaking would inflate their accuracy and
pessimistic tie-breaking would unfairly punish them.

The evaluator runs the protocol in **query batches**:

* test queries are deduplicated by ``(h, r)`` (tail side) / ``(r, t)`` (head
  side), so each unique query is scored exactly once per run, however many
  test triples share it;
* unique queries are streamed through the scorer's
  ``score_tails_batch`` / ``score_heads_batch`` contract in chunks of
  ``evaluation.batch_size``; each chunk is one ``(B, E)`` score block that
  stays on the scorer's backend, so peak ranking memory is about
  ``B × E`` scores — scorers without the batch contract transparently fall
  back to per-query ``score_all_*`` calls;
* raw and filtered mean-tie ranks are computed from the backend's exact
  comparison counts, using precomputed flat index arrays of known
  completions per query instead of per-triple boolean-mask copies.

Rank extraction is exact integer comparison counting, so given equal score
vectors the ranks agree bit-for-bit with the per-triple protocol
(one scoring call and one masked copy per triple).  The test suite keeps that
protocol as an oracle (``tests/eval/ranking_oracle.py``) and asserts rank
identity against it for every scorer family.

Because unique queries are fully independent, the evaluation also runs
**sharded across worker processes** (``workers >= 2``): the unique-query
order is partitioned into contiguous shards, workers rank each shard with the
very same kernel the in-process path uses, and the per-shard rank arrays are
merged back deterministically — see :mod:`repro.eval.sharding`.  Metrics are
bit-identical to the single-process path at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from ..api.options import EvalOptions
from ..api.schema import EVALUATION_DEFAULTS
from ..kg.dataset import Dataset
from ..kg.triples import Triple, TripleSet
from .metrics import MetricPair, RankingMetrics, metrics_from_rank_pairs
from .sharding import ShardEntry, evaluate_shards

#: Unique queries scored per batch scorer call; bounds the (B, E) score
#: matrix so large-scale evaluations stay memory-bounded.  The canonical
#: value lives in the knob schema (``evaluation.batch_size``).
DEFAULT_EVAL_BATCH_SIZE = EVALUATION_DEFAULTS["batch_size"]


class CandidateScorer(Protocol):
    """What the evaluator needs from a model (embedding, rule-based or baseline).

    Scorers may additionally provide the batch contract
    (``score_tails_batch(heads, relations)`` / ``score_heads_batch(relations,
    tails)`` returning ``(B, E)`` matrices); the evaluator uses it when
    present and falls back to these per-query methods otherwise.
    """

    def score_all_tails(self, head: int, relation: int) -> np.ndarray: ...

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray: ...


@dataclass(frozen=True)
class RankRecord:
    """The ranks of one test triple on one prediction side."""

    head: int
    relation: int
    tail: int
    side: str                  # "head" or "tail"
    raw_rank: float
    filtered_rank: float

    @property
    def triple(self) -> Triple:
        return (self.head, self.relation, self.tail)


@dataclass
class EvaluationResult:
    """All rank records of one (model, dataset) evaluation plus aggregations."""

    model_name: str
    dataset_name: str
    records: List[RankRecord] = field(default_factory=list)

    # -- aggregation -------------------------------------------------------------
    def metrics(self) -> MetricPair:
        return metrics_from_rank_pairs(
            (record.raw_rank for record in self.records),
            (record.filtered_rank for record in self.records),
        )

    def filtered_metrics(self) -> RankingMetrics:
        return RankingMetrics.from_ranks([record.filtered_rank for record in self.records])

    def raw_metrics(self) -> RankingMetrics:
        return RankingMetrics.from_ranks([record.raw_rank for record in self.records])

    def metrics_for(self, predicate) -> MetricPair:
        """Metrics restricted to the records satisfying ``predicate(record)``."""
        selected = [record for record in self.records if predicate(record)]
        return metrics_from_rank_pairs(
            (record.raw_rank for record in selected),
            (record.filtered_rank for record in selected),
        )

    def metrics_by_relation(self) -> Dict[int, MetricPair]:
        """Per-relation metric pairs (used by Table 8 and Figures 5-8)."""
        by_relation: Dict[int, List[RankRecord]] = {}
        for record in self.records:
            by_relation.setdefault(record.relation, []).append(record)
        return {
            relation: metrics_from_rank_pairs(
                (record.raw_rank for record in records),
                (record.filtered_rank for record in records),
            )
            for relation, records in by_relation.items()
        }

    def metrics_by_side(self) -> Dict[str, MetricPair]:
        """Separate head-prediction and tail-prediction metrics (Tables 9/10/12)."""
        return {
            side: self.metrics_for(lambda record, side=side: record.side == side)
            for side in ("head", "tail")
        }

    def records_by_triple(self) -> Dict[Tuple[Triple, str], RankRecord]:
        """Index records by (triple, side) for cross-model comparisons (Table 7)."""
        return {(record.triple, record.side): record for record in self.records}

    def as_row(self) -> Dict[str, float]:
        """One row of a paper table: raw and filtered measures side by side."""
        row: Dict[str, float] = {"model": self.model_name, "dataset": self.dataset_name}
        row.update(self.metrics().as_dict())
        return row


class LinkPredictionEvaluator:
    """Runs the ranking protocol for any scorer on a dataset's test split."""

    def __init__(
        self,
        dataset: Dataset,
        filter_triples: Optional[Iterable[Triple]] = None,
        extra_ground_truth: Optional[TripleSet] = None,
        options: Optional[EvalOptions] = None,
        known_index: Optional[Any] = None,
    ) -> None:
        options = (options or EvalOptions()).normalized()
        #: How this evaluation runs — the schema-derived option object.
        self.options = options
        self.dataset = dataset
        #: Unique queries per batch scorer call (bounds the (B, E) matrix).
        self.eval_batch_size = options.batch_size
        #: Worker processes for the sharded path; ``1`` keeps the
        #: exact in-process evaluation (no pool is ever created).
        self.n_workers = options.workers
        #: Queries per shard (``None`` = one balanced shard per worker).
        self.shard_size = options.shard_size
        #: Multiprocessing start method override (``None`` = platform best).
        self.mp_start_method = options.mp_start_method
        #: Array backend + dtype the scorer's batch kernels compute on; the
        #: defaults are the bit-identity reference configuration.  Applied to
        #: scorers exposing ``set_score_backend`` at ``evaluate()`` time.
        self.backend = options.backend
        self.eval_dtype = options.eval_dtype
        if known_index is None and filter_triples is None and extra_ground_truth is None:
            # Fused-ingest datasets carry the index grown during the stream
            # (see repro.eval.sharding.StreamingKnownIndexBuilder).
            known_index = getattr(dataset, "known_index", None)
        if known_index is not None and filter_triples is None and extra_ground_truth is None:
            # The streamed index groups and sorts identically, so the filter
            # arrays — and every filtered rank — are bit-identical.
            self._known_tails: Dict[Tuple[int, int], np.ndarray] = known_index.tail_filters()
            self._known_heads: Dict[Tuple[int, int], np.ndarray] = known_index.head_filters()
            return
        known = set(filter_triples) if filter_triples is not None else dataset.known_triples()
        if extra_ground_truth is not None:
            known |= extra_ground_truth.as_set()
        known_tail_sets: Dict[Tuple[int, int], Set[int]] = {}
        known_head_sets: Dict[Tuple[int, int], Set[int]] = {}
        for h, r, t in known:
            known_tail_sets.setdefault((h, r), set()).add(t)
            known_head_sets.setdefault((r, t), set()).add(h)
        # Flat, sorted index arrays per query: the filtered rank subtracts the
        # comparison counts of these candidates, no per-triple mask copies.
        self._known_tails: Dict[Tuple[int, int], np.ndarray] = {
            query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
            for query, values in known_tail_sets.items()
        }
        self._known_heads: Dict[Tuple[int, int], np.ndarray] = {
            query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
            for query, values in known_head_sets.items()
        }

    # -- ranking internals ------------------------------------------------------------
    def _configure_scorer(self, scorer: CandidateScorer) -> None:
        """Apply the evaluator's backend/dtype selection to the scorer.

        Only a non-default selection is pushed, so scorers configured directly
        through ``set_score_backend`` keep their configuration under a default
        evaluator, and scorers without the knob are left untouched.
        """
        if self.backend == "numpy" and self.eval_dtype == "fp64":
            return
        configure = getattr(scorer, "set_score_backend", None)
        if configure is not None:
            configure(self.backend, self.eval_dtype)

    def _side_work(
        self, triples: Sequence[Triple], side: str
    ) -> Tuple[List[ShardEntry], List[List[int]]]:
        """Deduplicated shard entries for one side plus their triple positions.

        Returns ``(entries, positions)`` where ``entries[i]`` is the i-th
        unique query with its target array, and ``positions[i]`` lists the
        triple positions its ranks scatter back to (aligned with the targets).
        """
        groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        order: List[Tuple[int, int]] = []
        for position, (h, r, t) in enumerate(triples):
            query = (h, r) if side == "tail" else (r, t)
            members = groups.get(query)
            if members is None:
                groups[query] = members = []
                order.append(query)
            members.append((position, t if side == "tail" else h))
        # Score unique queries in sorted order: ranks are written back by
        # triple position, so the order is unobservable, but sorting clusters
        # the head side by relation — letting scorers whose cost is dominated
        # by a per-relation precomputation (ConvE's all-entity convolution)
        # reuse it across a whole chunk instead of once per interleaved query.
        order.sort()
        entries: List[ShardEntry] = []
        positions: List[List[int]] = []
        for query in order:
            members = groups[query]
            targets = np.fromiter(
                (target for _, target in members), dtype=np.int64, count=len(members)
            )
            entries.append((query, targets))
            positions.append([position for position, _ in members])
        return entries, positions

    @staticmethod
    def _scatter_ranks(
        ranks: Tuple[np.ndarray, np.ndarray],
        positions: Sequence[Sequence[int]],
        num_triples: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter concatenated per-entry ranks back to triple positions."""
        raw_concat, filtered_concat = ranks
        raw = np.empty(num_triples)
        filtered = np.empty(num_triples)
        offset = 0
        for entry_positions in positions:
            for position in entry_positions:
                raw[position] = raw_concat[offset]
                filtered[position] = filtered_concat[offset]
                offset += 1
        return raw, filtered

    # -- evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        scorer: CandidateScorer,
        test_triples: Optional[Sequence[Triple]] = None,
        model_name: Optional[str] = None,
        sides: Tuple[str, ...] = ("head", "tail"),
    ) -> EvaluationResult:
        """Rank every test triple on the requested sides.

        Runs with the evaluator's :class:`EvalOptions`; ``workers >= 2``
        shards the unique-query order across worker processes with a
        deterministic merge (bit-identical ranks at any worker count or
        batch size).
        """
        unknown = sorted(set(sides) - {"head", "tail"})
        if unknown:
            raise ValueError(f"sides must be 'head' and/or 'tail', got {unknown}")
        triples = list(test_triples) if test_triples is not None else list(self.dataset.test)
        name = model_name or getattr(scorer, "name", type(scorer).__name__)
        result = EvaluationResult(model_name=name, dataset_name=self.dataset.name)
        self._configure_scorer(scorer)
        work: Dict[str, List[ShardEntry]] = {}
        positions: Dict[str, List[List[int]]] = {}
        for side in ("tail", "head"):
            if side in sides:
                work[side], positions[side] = self._side_work(triples, side)
        known = {"tail": self._known_tails, "head": self._known_heads}
        # ``workers <= 1`` takes the exact in-process path inside
        # evaluate_shards (no pool is ever created), so both worker counts
        # share one instrumented entry point.
        side_ranks = evaluate_shards(
            scorer, work, known, self.n_workers, self.shard_size, self.eval_batch_size,
            self.mp_start_method,
        )
        scattered = {
            side: self._scatter_ranks(side_ranks[side], positions[side], len(triples))
            for side in work
        }
        tail_ranks = scattered.get("tail")
        head_ranks = scattered.get("head")
        for position, (h, r, t) in enumerate(triples):
            if tail_ranks is not None:
                result.records.append(
                    RankRecord(h, r, t, "tail",
                               float(tail_ranks[0][position]), float(tail_ranks[1][position]))
                )
            if head_ranks is not None:
                result.records.append(
                    RankRecord(h, r, t, "head",
                               float(head_ranks[0][position]), float(head_ranks[1][position]))
                )
        return result


def evaluate_model(
    scorer: CandidateScorer,
    dataset: Dataset,
    test_triples: Optional[Sequence[Triple]] = None,
    extra_ground_truth: Optional[TripleSet] = None,
    model_name: Optional[str] = None,
    options: Optional[EvalOptions] = None,
) -> EvaluationResult:
    """Convenience wrapper constructing the evaluator with default filtering."""
    evaluator = LinkPredictionEvaluator(
        dataset,
        extra_ground_truth=extra_ground_truth,
        options=options,
    )
    return evaluator.evaluate(scorer, test_triples=test_triples, model_name=model_name)
