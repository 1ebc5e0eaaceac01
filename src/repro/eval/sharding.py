"""Sharded multi-process link-prediction evaluation.

The ranking protocol reduces evaluation to scoring a stream of
deduplicated ``(h, r)`` / ``(r, t)`` queries, and every query's raw and
filtered mean-tie ranks depend only on its own ``(E,)`` score row, its target
entities and its known-completion filter — queries are fully independent
subproblems.  This module exploits that independence: the unique-query order
is partitioned into contiguous **shards**, each shard is ranked in a worker
process, and the per-shard rank arrays are concatenated back in shard order,
so the merged result is bit-identical to ranking the whole order in-process.

Design constraints, in decreasing order of importance:

* **Determinism.** ``plan_shards`` depends only on its arguments, workers are
  mapped over shards with ``Pool.map`` (which preserves submission order), and
  the merge is a plain concatenation — no completion-order nondeterminism can
  leak into the ranks.
* **Bit-identity.** Workers run :func:`rank_shard`, the *same* function the
  in-process path uses, with the same ``eval_batch_size`` chunking; rank
  extraction is exact comparison counting, so shard boundaries are
  unobservable in the output.
* **Spawn safety.** The worker entry points are module-level functions, the
  scorer and the known-completion filter index are shipped exactly once per
  worker through the pool initializer (not once per shard), and
  :mod:`repro.autodiff` tensors drop their autodiff graph on pickling, so the
  subsystem works under ``fork``, ``forkserver`` and ``spawn`` alike.
* **Graceful fallback.** ``n_workers=1`` (or an empty workload, or a platform
  without multiprocessing start methods) never creates a pool — it is the
  exact in-process path.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import ArrayBackend, get_backend
from ..telemetry import Telemetry, get_telemetry, scoped

#: A deduplicated link-prediction query: ``(head, relation)`` on the tail
#: side, ``(relation, tail)`` on the head side.
Query = Tuple[int, int]

#: One unit of shard work: a query plus the target entities whose ranks the
#: test split needs from its score row.
ShardEntry = Tuple[Query, np.ndarray]

#: Per-worker state installed by :func:`_init_worker`; lives in the worker
#: process only.
_WORKER_STATE: Optional[Tuple[Any, ...]] = None


class StreamingKnownIndexBuilder:
    """The filtered-evaluation known-completion index, grown during ingest.

    A :data:`~repro.kg.streaming.ChunkObserver`: hook :meth:`observe` into
    the streaming pipeline and every chunk's newly-added encoded triples
    extend the per-query candidate sets — the same
    ``(h, r) → {t}`` / ``(r, t) → {h}`` grouping
    :class:`repro.eval.ranking.LinkPredictionEvaluator` builds from
    ``dataset.known_triples()``.  Per-split dedup plus set semantics make
    cross-split duplicates harmless, and the finalized arrays use the same
    sorted construction, so filtered ranks are bit-identical to the
    materialized path.  On the fused ingest path the builder rides along as
    ``dataset.known_index`` and the evaluator picks it up automatically,
    skipping its full-scan index build.
    """

    def __init__(self) -> None:
        self._tails: Dict[Query, set] = {}
        self._heads: Dict[Query, set] = {}

    def observe(self, split: str, added_triples: Sequence[Tuple[int, int, int]]) -> None:
        """Fold one chunk's newly-added encoded triples into the index."""
        del split  # the filter pools every split, as dataset.known_triples() does
        for head, relation, tail in added_triples:
            self._tails.setdefault((head, relation), set()).add(tail)
            self._heads.setdefault((relation, tail), set()).add(head)

    def retract(self, removed_triples: Sequence[Tuple[int, int, int]]) -> None:
        """Remove triples that no longer exist in **any** split.

        The filter pools every split, so the caller (the delta maintainer)
        must only retract a triple once its last split occurrence is gone.
        Emptied candidate sets are deleted, keeping the index equal to a
        from-scratch build over the surviving triples.
        """
        for head, relation, tail in removed_triples:
            tails = self._tails.get((head, relation))
            if tails is None or tail not in tails:
                continue
            tails.remove(tail)
            if not tails:
                del self._tails[(head, relation)]
            heads = self._heads[(relation, tail)]
            heads.remove(head)
            if not heads:
                del self._heads[(relation, tail)]

    def tail_filters(self) -> Dict[Query, np.ndarray]:
        """Sorted candidate arrays per ``(h, r)`` query (tail prediction)."""
        return {
            query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
            for query, values in self._tails.items()
        }

    def head_filters(self) -> Dict[Query, np.ndarray]:
        """Sorted candidate arrays per ``(r, t)`` query (head prediction)."""
        return {
            query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
            for query, values in self._heads.items()
        }


# ---------------------------------------------------------------------------- planning
def resolve_start_method(preferred: Optional[str] = None) -> str:
    """The multiprocessing start method the evaluator should use.

    ``fork`` is preferred where available (no re-import, the scorer ships by
    page sharing); otherwise the platform's first supported method is used.
    An explicit ``preferred`` must be supported on this platform.
    """
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} not supported here; available: {available}"
            )
        return preferred
    if not available:  # pragma: no cover - no known platform hits this
        raise RuntimeError("platform supports no multiprocessing start method")
    return "fork" if "fork" in available else available[0]


def multiprocessing_available() -> bool:
    """Whether any process start method exists on this platform."""
    return bool(multiprocessing.get_all_start_methods())


def plan_shards(
    num_queries: int, n_workers: int, shard_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Contiguous, deterministic ``[start, stop)`` bounds covering the query order.

    With ``shard_size=None`` the order is split into one balanced shard per
    worker (the remainder spread over the leading shards); an explicit
    ``shard_size`` yields ``ceil(num_queries / shard_size)`` shards for
    finer-grained load balancing across heterogeneous queries.  Empty shards
    are never produced, so ``n_workers > num_queries`` simply yields
    ``num_queries`` singleton shards.
    """
    if num_queries <= 0:
        return []
    n_workers = max(1, int(n_workers))
    if shard_size is not None:
        step = max(1, int(shard_size))
        return [
            (start, min(start + step, num_queries))
            for start in range(0, num_queries, step)
        ]
    shards: List[Tuple[int, int]] = []
    base, remainder = divmod(num_queries, n_workers)
    start = 0
    for index in range(min(n_workers, num_queries)):
        stop = start + base + (1 if index < remainder else 0)
        if stop > start:
            shards.append((start, stop))
        start = stop
    return shards


# ---------------------------------------------------------------------------- ranking kernels
def score_backend(scorer) -> ArrayBackend:
    """The backend owning a scorer's batch kernel outputs (numpy if unset)."""
    compute = getattr(scorer, "score_compute", None)
    return compute.backend if compute is not None else get_backend("numpy")


def score_query_chunk(scorer, queries: Sequence[Query], side: str):
    """``(len(queries), E)`` score block, resident on :func:`score_backend`.

    Query tuples are already in the batch methods' argument order:
    ``(head, relation)`` for the tail side, ``(relation, tail)`` for the
    head side.  Scorers without the batch contract fall back to one
    ``score_all_*`` call per query, and the stacked host rows are re-wrapped
    by the backend (a no-op on numpy).  Callers that need host rows convert
    with ``score_backend(scorer).to_numpy``.
    """
    backend = score_backend(scorer)
    batch_fn = getattr(
        scorer, "score_tails_batch" if side == "tail" else "score_heads_batch", None
    )
    if batch_fn is not None:
        first = np.fromiter((a for a, _ in queries), dtype=np.int64, count=len(queries))
        second = np.fromiter((b for _, b in queries), dtype=np.int64, count=len(queries))
        return backend.asarray(batch_fn(first, second))
    single_fn = scorer.score_all_tails if side == "tail" else scorer.score_all_heads
    return backend.asarray(
        np.stack([np.asarray(single_fn(a, b), dtype=np.float64) for a, b in queries])
    )


def mean_tie_ranks(
    scores,
    targets: np.ndarray,
    known: Optional[np.ndarray],
    backend: Optional[ArrayBackend] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw and filtered mean-tie ranks of ``targets`` within one score row.

    ``scores`` stays on ``backend`` (numpy by default): the backend's
    ``compare_counts`` kernel reduces it to host integer counts, and only
    those cross to the host.  All quantities are exact comparison counts, so
    the result is bit-identical to the per-triple masked computation
    regardless of batching, sharding or where the row lives.
    """
    backend = backend or get_backend("numpy")
    target_scores = backend.take_rows(scores, backend.index_array(targets))   # (M,)
    greater, equal = backend.compare_counts(scores, target_scores)
    greater = greater.astype(np.float64)
    tied_others = np.maximum(equal.astype(np.float64) - 1.0, 0.0)
    raw = 1.0 + greater + tied_others / 2.0
    if known is None or not len(known):
        return raw, raw.copy()
    known_scores = backend.take_rows(scores, backend.index_array(known))      # (K,)
    known_greater, known_equal = backend.compare_counts(known_scores, target_scores)
    contains_target = (known[None, :] == targets[:, None]).sum(axis=1)
    # Removing known\{target} cannot remove the target itself: its own
    # equality hit is added back before re-deriving the tie count.
    filtered_greater = greater - known_greater
    filtered_equal = equal - (known_equal - contains_target)
    filtered_tied_others = np.maximum(filtered_equal.astype(np.float64) - 1.0, 0.0)
    filtered = 1.0 + filtered_greater + filtered_tied_others / 2.0
    return raw, filtered


def rank_shard(
    scorer,
    entries: Sequence[ShardEntry],
    side: str,
    known_index: Dict[Query, np.ndarray],
    eval_batch_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw/filtered ranks of one shard, concatenated in entry order.

    Each entry contributes ``len(targets)`` consecutive ranks.  This is the
    single ranking implementation: the in-process path runs it on the whole
    query order, workers run it on their shard.  Each chunk of
    ``eval_batch_size`` unique queries is scored as one block that stays on
    the scorer's backend, so peak ranking memory is about
    ``eval_batch_size × num_entities`` scores.
    """
    eval_batch_size = max(1, int(eval_batch_size))
    backend = score_backend(scorer)
    raw_parts: List[np.ndarray] = []
    filtered_parts: List[np.ndarray] = []
    for start in range(0, len(entries), eval_batch_size):
        chunk = entries[start:start + eval_batch_size]
        block = score_query_chunk(scorer, [query for query, _ in chunk], side)
        for row, (query, targets) in zip(block, chunk):
            raw_ranks, filtered_ranks = mean_tie_ranks(
                row, targets, known_index.get(query), backend
            )
            raw_parts.append(raw_ranks)
            filtered_parts.append(filtered_ranks)
    if not raw_parts:
        return np.empty(0), np.empty(0)
    return np.concatenate(raw_parts), np.concatenate(filtered_parts)


# ---------------------------------------------------------------------------- worker plumbing
def _shippable_scorer(scorer):
    """What the pool initializer should pickle for ``scorer``.

    A scorer carrying a saved model artifact (:mod:`repro.serve.artifact`)
    ships as its :class:`ArtifactScorerRef` — a few strings — instead of its
    full parameter tables; each worker re-opens the artifact's ``.npy``
    files memory-mapped, so all workers share one physical copy of the
    tables through the page cache.  Scorers without an artifact ship as
    before (whole-object pickle).
    """
    from ..serve.artifact import artifact_ref_for

    return artifact_ref_for(scorer) or scorer


def _init_worker(
    scorer,
    known: Dict[str, Dict[Query, np.ndarray]],
    eval_batch_size: int,
    telemetry_enabled: bool = False,
) -> None:
    """Pool initializer: install the scorer and filter index once per worker."""
    global _WORKER_STATE
    from ..serve.artifact import ArtifactScorerRef

    if isinstance(scorer, ArtifactScorerRef):
        scorer = scorer.resolve()
    _WORKER_STATE = (scorer, known, eval_batch_size, telemetry_enabled)


def _rank_one_shard(
    telemetry: Telemetry,
    scorer,
    side: str,
    shard_index: int,
    entries: Sequence[ShardEntry],
    known: Dict[Query, np.ndarray],
    eval_batch_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's ranks, wrapped in the shared span/counter instrumentation.

    :func:`rank_shard` itself stays deliberately un-instrumented — it is the
    telemetry-free baseline of the overhead benchmark — so both the in-process
    path and the pool workers record their shards here instead.
    """
    with telemetry.span(
        "eval.rank_shard", side=side, shard=shard_index, entries=len(entries)
    ):
        raw, filtered = rank_shard(scorer, entries, side, known, eval_batch_size)
    telemetry.counter("eval.shards").add(1)
    telemetry.counter("eval.entries").add(len(entries))
    telemetry.counter("eval.ranked_targets").add(len(raw))
    return raw, filtered


def _rank_shard_task(
    task: Tuple[str, int, List[ShardEntry]],
) -> Tuple[np.ndarray, np.ndarray, Optional[Dict[str, Any]]]:
    """Worker entry point: rank one shard against the installed state.

    Returns the shard's rank arrays plus a telemetry payload (``None`` when
    telemetry is off).  Each task runs under its own fresh scoped
    :class:`Telemetry` — workers persist across tasks, so reusing one
    worker-global registry would double-count a shard's metrics into every
    later payload from the same worker.
    """
    assert _WORKER_STATE is not None, "worker used before initialization"
    scorer, known, eval_batch_size, telemetry_enabled = _WORKER_STATE
    side, shard_index, entries = task
    with scoped(Telemetry(enabled=telemetry_enabled)) as telemetry:
        raw, filtered = _rank_one_shard(
            telemetry, scorer, side, shard_index, entries,
            known.get(side, {}), eval_batch_size,
        )
        payload = telemetry.worker_payload() if telemetry_enabled else None
    return raw, filtered, payload


def evaluate_shards(
    scorer,
    work: Dict[str, Sequence[ShardEntry]],
    known: Dict[str, Dict[Query, np.ndarray]],
    n_workers: int,
    shard_size: Optional[int],
    eval_batch_size: int,
    start_method: Optional[str] = None,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Rank every side's query order, sharded across worker processes.

    ``work`` maps a side (``"tail"`` / ``"head"``) to its ordered shard
    entries; the returned arrays are concatenated in that same order, so the
    caller scatters them back to triple positions exactly as it would the
    in-process result.  ``n_workers <= 1``, an empty workload, or a platform
    without multiprocessing support all take the exact in-process path.
    """
    n_workers = max(1, int(n_workers))
    telemetry = get_telemetry()
    total_entries = sum(len(entries) for entries in work.values())
    if n_workers == 1 or total_entries == 0 or not multiprocessing_available():
        return {
            side: _rank_one_shard(
                telemetry, scorer, side, 0, entries, known.get(side, {}), eval_batch_size
            )
            for side, entries in work.items()
        }
    tasks: List[Tuple[str, int, List[ShardEntry]]] = []
    for side, entries in work.items():
        for index, (start, stop) in enumerate(
            plan_shards(len(entries), n_workers, shard_size)
        ):
            tasks.append((side, index, list(entries[start:stop])))
    context = multiprocessing.get_context(resolve_start_method(start_method))
    processes = min(n_workers, len(tasks))
    with context.Pool(
        processes=processes,
        initializer=_init_worker,
        initargs=(_shippable_scorer(scorer), known, eval_batch_size, telemetry.enabled),
    ) as pool:
        # Pool.map preserves task submission order: the merge below is a
        # deterministic concatenation, independent of completion order.
        shard_results = pool.map(_rank_shard_task, tasks)
    raw_parts: Dict[str, List[np.ndarray]] = {side: [] for side in work}
    filtered_parts: Dict[str, List[np.ndarray]] = {side: [] for side in work}
    for (side, _, _), (raw, filtered, payload) in zip(tasks, shard_results):
        raw_parts[side].append(raw)
        filtered_parts[side].append(filtered)
        # Metric merges are exact (integer counts, rational sums) and
        # order-independent; absorbing in submission order keeps the span
        # stream deterministic too.
        telemetry.absorb_worker_payload(payload)
    return {
        side: (
            np.concatenate(raw_parts[side]) if raw_parts[side] else np.empty(0),
            np.concatenate(filtered_parts[side]) if filtered_parts[side] else np.empty(0),
        )
        for side in work
    }
