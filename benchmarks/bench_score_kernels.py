"""Score-and-rank kernel: batch-size sweep and accelerator backend report.

The evaluator scores each chunk of ``evaluation.batch_size`` unique queries
as one ``(batch_size, |E|)`` block on the scorer's backend and reduces every
row to integer comparison counts with the backend's ``compare_counts``
kernel.  On an FB15k-shaped workload (thousands of entities, hundreds of
redundant test queries) this records:

1. **Batch-size sweep** — wall-clock through :class:`LinkPredictionEvaluator`
   across batch sizes from a handful of rows to one block holding every
   query, with each run's rank records asserted bit-identical to the default
   batch size first.  Peak ranking memory is about ``batch_size × |E|``
   scores; the sweep exposes the matching latency curve.
2. **Accelerator backends** — when torch or cupy is importable, the evaluator
   on that backend at fp32 is timed; absent backends are listed as skipped,
   never failed, so CPU-only CI stays green.

Timings are report-only: there is no second ranking path left to race, and
end-to-end ranking throughput is bounded by the repository benchmark
(``perfbench``, ``headline-cold`` ``throughput_per_s``).  The script still
fails (non-zero exit) when any rank record differs across batch sizes.  It
always writes ``BENCH_score_kernels.json`` (``--json PATH`` to override).

Run standalone (``python benchmarks/bench_score_kernels.py``) or via
``pytest benchmarks/bench_score_kernels.py``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.api.options import EvalOptions
from repro.backend import available_backends
from repro.eval import LinkPredictionEvaluator
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.models import ModelConfig, make_model
from repro.telemetry.bench import bench_main

NUM_ENTITIES = 6000
NUM_RELATIONS = 30
NUM_TRAIN = 20_000
NUM_QUERIES = 256          # unique (h, r) test queries ...
TAILS_PER_QUERY = 4        # ... each answered by several test triples
DIM = 64
REPEATS = 5

#: Unique queries per score block; 256 is the ``evaluation.batch_size`` default.
SWEEP_BATCH_SIZES = (16, 64, 256, 1024)
DEFAULT_JSON_PATH = "BENCH_score_kernels.json"


def fb15k_shaped_dataset(seed: int = 41) -> Dataset:
    """Synthetic FB15k-shaped workload with redundant test queries."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(NUM_ENTITIES)],
        [f"r{i}" for i in range(NUM_RELATIONS)],
    )
    relation_weights = 1.0 / np.arange(1, NUM_RELATIONS + 1)
    relation_weights /= relation_weights.sum()
    train = TripleSet(
        zip(
            rng.integers(0, NUM_ENTITIES, NUM_TRAIN),
            rng.choice(NUM_RELATIONS, NUM_TRAIN, p=relation_weights),
            rng.integers(0, NUM_ENTITIES, NUM_TRAIN),
        )
    )
    test = TripleSet()
    for _ in range(NUM_QUERIES):
        head = int(rng.integers(0, NUM_ENTITIES))
        relation = int(rng.choice(NUM_RELATIONS, p=relation_weights))
        for tail in rng.integers(0, NUM_ENTITIES, TAILS_PER_QUERY):
            test.add((head, relation, int(tail)))
    return Dataset("fb15k-shaped-kernels", vocab, train, TripleSet(), test)


def build_workload(seed: int = 41):
    dataset = fb15k_shaped_dataset(seed)
    model = make_model(
        "DistMult",
        dataset.num_entities,
        dataset.num_relations,
        ModelConfig(dim=DIM, seed=seed),
    )
    model.train_mode(False)
    return dataset, model


def _assert_identical(reference, other, context: str) -> None:
    assert len(reference.records) == len(other.records), context
    for expected, actual in zip(reference.records, other.records):
        assert (expected.triple, expected.side) == (actual.triple, actual.side), context
        assert (expected.raw_rank, expected.filtered_rank) == (
            actual.raw_rank,
            actual.filtered_rank,
        ), (context, expected, actual)


def _best_of(fn, repeats: int = REPEATS) -> Tuple[float, object]:
    """Min-of-repeats wall clock plus the last result (for identity checks)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_batch_size_sweep(
    batch_sizes: Sequence[int] = SWEEP_BATCH_SIZES, seed: int = 41, repeats: int = REPEATS
) -> dict:
    """Wall-clock across batch sizes; every run is rank-identical to the default."""
    dataset, model = build_workload(seed)
    default = LinkPredictionEvaluator(dataset)
    num_test = len(dataset.test)
    reference = default.evaluate(model)  # also warms caches outside the timed runs

    results = []
    for batch_size in batch_sizes:
        evaluator = LinkPredictionEvaluator(dataset, options=EvalOptions(batch_size=batch_size))
        seconds, outcome = _best_of(lambda: evaluator.evaluate(model), repeats=repeats)
        _assert_identical(reference, outcome, f"batch_size={batch_size}")
        results.append(
            {
                "batch_size": batch_size,
                "block_scores": batch_size * dataset.num_entities,
                "seconds": seconds,
                "triples_per_second": num_test / seconds,
            }
        )
    return {
        "test_triples": num_test,
        "entities": dataset.num_entities,
        "dim": DIM,
        "default_batch_size": default.eval_batch_size,
        "results": results,
    }


def measure_accelerators(seed: int = 41) -> dict:
    """Report-only timings on every importable accelerator backend."""
    entries = []
    for name in ("torch", "cupy"):
        if name not in available_backends():
            entries.append({"backend": name, "status": "skipped", "reason": "not importable"})
            continue
        dataset, model = build_workload(seed)
        evaluator = LinkPredictionEvaluator(
            dataset, options=EvalOptions(backend=name, eval_dtype="fp32")
        )
        seconds, outcome = _best_of(lambda: evaluator.evaluate(model), repeats=1)
        entries.append(
            {
                "backend": name,
                "eval_dtype": "fp32",
                "status": "measured",
                "seconds": seconds,
                "triples_per_second": len(dataset.test) / seconds,
                "records": len(outcome.records),
            }
        )
    return {"results": entries}


def build_report() -> Tuple[dict, bool]:
    """All measurements; returns ``(report, True)`` — identity is asserted inline."""
    report = {
        "benchmark": "score_kernels",
        "cpu_count": os.cpu_count() or 1,
        "available_backends": available_backends(),
        "batch_size_sweep": measure_batch_size_sweep(),
        "accelerators": measure_accelerators(),
        "gates": [],
    }
    return report, True


def _print_report(report: dict) -> None:
    sweep = report["batch_size_sweep"]
    print(
        f"{sweep['test_triples']} test triples, {sweep['entities']} entities, "
        f"dim {sweep['dim']}; ranks identical at every batch size"
    )
    for entry in sweep["results"]:
        print(
            f"{'batch_size=' + str(entry['batch_size']):>36}: "
            f"{entry['triples_per_second']:,.0f} triples/s "
            f"({entry['block_scores']:,} scores/block)"
        )
    print()
    for entry in report["accelerators"]["results"]:
        if entry["status"] == "skipped":
            print(f"{entry['backend']:>36}: SKIP ({entry['reason']})")
        else:
            print(
                f"{entry['backend']:>36}: {entry['triples_per_second']:,.0f} triples/s "
                f"(fp32, report-only)"
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run all measurements and write the JSON report."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_batch_size_sweep_is_rank_identical():
    sweep = measure_batch_size_sweep(batch_sizes=(1, 7, 1024), repeats=1)
    assert [entry["batch_size"] for entry in sweep["results"]] == [1, 7, 1024]


if __name__ == "__main__":
    sys.exit(main())
