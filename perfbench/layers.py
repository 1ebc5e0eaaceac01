"""The metric catalogue: end-to-end and per-layer names, units and links.

``END_TO_END`` and ``DECLARED_PER_LAYER`` are the lists ``BENCHMARK.json``
declares (a test keeps the two in step); ``PER_LAYER`` also holds the layers
only the ungated workloads reach.  Every per-layer metric names the
end-to-end metric and workload it should move, written down before any
optimisation is measured against it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import workloads

#: ``name -> (unit, better, bound, meaning per workload)``.
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25,
                "per-run set-up: process start plus import; plus the cache copy on rank-warm "
                "and the whole server cold start on serve-zipf"),
    "latency_ms": ("ms", "lower", 0.25,
                   "median latency of one operation: a cold Runner.run (headline-cold), a warm "
                   "evaluate-only Runner.run (rank-warm), a 16-query request (serve-zipf), "
                   "a delta batch applied and audited (ingest-churn)"),
    "throughput_per_s": ("1/s", "higher", 0.25,
                         "ranking queries per second of the evaluate stage (headline-cold) or of "
                         "the run (rank-warm), served queries per second of load (serve-zipf), "
                         "triples written per second of ingest, bootstrap and delta apply "
                         "(ingest-churn)"),
    "peak_rss_mb": ("MB", "lower", 0.05,
                    "median peak RSS of the process doing the work (the server on serve-zipf)"),
}

HEADLINE = "headline-cold"
RANK = "rank-warm"
SERVE = "serve-zipf"
CHURN = "ingest-churn"
ALL = "all"

#: ``name -> (unit, better, end-to-end metric it should move, workload)``.
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    "cli.import_s": ("s", "lower", "setup_s", ALL),
    "kg.generate_s": ("s", "lower", "latency_ms", HEADLINE),
    "core.audit_s": ("s", "lower", "latency_ms", HEADLINE),
    "kg.sampling.sample_s": ("s", "lower", "latency_ms", HEADLINE),
    "kg.sampling.negatives": ("count", "higher", "latency_ms", HEADLINE),
    "models.forward_s": ("s", "lower", "latency_ms", HEADLINE),
    "autodiff.backward_s": ("s", "lower", "latency_ms", HEADLINE),
    "models.optim.step_s": ("s", "lower", "latency_ms", HEADLINE),
    "models.constraints_s": ("s", "lower", "latency_ms", HEADLINE),
    "rules.amie.mine_s": ("s", "lower", "latency_ms", HEADLINE),
    "rules.amie.rules": ("count", "higher", "latency_ms", HEADLINE),
    "eval.filter_index_s": ("s", "lower", "throughput_per_s", HEADLINE),
    "eval.score_s.TransE": ("s", "lower", "throughput_per_s", HEADLINE),
    "eval.score_s.DistMult": ("s", "lower", "throughput_per_s", HEADLINE),
    "eval.score_s.ComplEx": ("s", "lower", "throughput_per_s", RANK),
    "eval.score_s.AMIE": ("s", "lower", "throughput_per_s", HEADLINE),
    "eval.score_s.other": ("s", "lower", "throughput_per_s", RANK),
    "eval.rank_s": ("s", "lower", "throughput_per_s", HEADLINE),
    "eval.queries": ("count", "higher", "throughput_per_s", HEADLINE),
    "api.artifacts.read_s": ("s", "lower", "latency_ms", RANK),
    "api.artifacts.write_s": ("s", "lower", "latency_ms", RANK),
    "api.artifacts.hits": ("count", "higher", "latency_ms", RANK),
    "api.artifacts.misses": ("count", "lower", "latency_ms", RANK),
    "serve.cache.hit_ratio": ("ratio", "higher", "throughput_per_s", SERVE),
    "serve.rows_per_flush": ("rows", "higher", "throughput_per_s", SERVE),
    "serve.scored_rows": ("count", "lower", "throughput_per_s", SERVE),
    "serve.score_s": ("s", "lower", "latency_ms", SERVE),
    "serve.answer_s": ("s", "lower", "latency_ms", SERVE),
    "serve.topk_s": ("s", "lower", "latency_ms", SERVE),
    "serve.wire_s": ("s", "lower", "latency_ms", SERVE),
    "kg.streaming.ingest_s": ("s", "lower", "throughput_per_s", CHURN),
    "kg.deltas.bootstrap_s": ("s", "lower", "throughput_per_s", CHURN),
    "kg.deltas.apply_s": ("s", "lower", "throughput_per_s", CHURN),
    "kg.deltas.redundancy_s": ("s", "lower", "latency_ms", CHURN),
    "kg.deltas.leakage_s": ("s", "lower", "latency_ms", CHURN),
    "unattributed_s": ("s", "lower", "latency_ms", ALL),
    "trace.run_s": ("s", "lower", "latency_ms", ALL),
    "trace.overhead": ("ratio", "lower", "latency_ms", ALL),
}

#: The per-layer metrics ``BENCHMARK.json`` declares: those the declared
#: workloads measure.  The rest are reported by the ungated workloads only.
DECLARED_PER_LAYER = tuple(name for name, spec in PER_LAYER.items()
                           if spec[3] == ALL or spec[3] in workloads.WORKLOADS)
