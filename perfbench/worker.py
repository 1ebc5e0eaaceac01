"""One unit of benchmark work in a fresh process.

Usage (by ``run.py``, never by hand)::

    python3 perfbench/worker.py '<job json>'

The worker imports the package first and prints ``PERFBENCH-READY`` the
moment the import is done, so the parent can time process start plus import
as set-up.  It then runs one job and prints ``PERFBENCH-RESULT <json>`` as
its last line.  A job that raises or fails its correctness check reports
``"ok": false`` with the errors and exits 1.

Jobs: ``prepare-rank``, ``prepare-serve``, ``prepare-churn`` (one-time
inputs), ``headline``, ``rank``, ``churn`` (the timed operations),
``load`` (the serving load generator) and ``check-serve``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT"
BLAS_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def provenance() -> dict:
    """What produced a measurement: versions, backend, threads, hash seed, host."""
    import numpy

    stamp = {
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "numpy": numpy.__version__,
    }
    try:
        stamp["numpy_blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        stamp["numpy_blas"] = None
    if "repro" in sys.modules:
        import repro
        from repro.backend import active_backend
        from repro.telemetry.bench import host_info

        stamp.update(
            repro=repro.__version__,
            repro_path=os.path.dirname(repro.__file__),
            backend=active_backend().name,
            host=host_info(),
        )
    return stamp


# --------------------------------------------------------------------------- tracing
def start_tracer(job: dict):
    if not job.get("trace"):
        return None
    from tracing import Tracer

    return Tracer().install()


def stop_tracer(tracer) -> None:
    """End of the timed region: the checks that follow are not traced."""
    if tracer is not None:
        tracer.uninstall()


def finish_tracer(tracer, job: dict, run_seconds: float, stamp: dict) -> dict:
    """Per-layer table of one traced operation; spans go to the job's file."""
    from pathlib import Path

    from tracing import TIME_METRICS

    table = tracer.table()
    table["unattributed_s"] = run_seconds - sum(table[name] for name in TIME_METRICS)
    table["trace.run_s"] = run_seconds
    tracer.write_spans(Path(job["spans_path"]), stamp)
    return table


# --------------------------------------------------------------------------- jobs
def job_headline(job: dict, tracer) -> dict:
    from repro.api import ExperimentSpec, Runner

    import workloads

    spec = ExperimentSpec.from_dict(job["spec"])
    runner = Runner(spec)
    started = time.perf_counter()
    report = runner.run()
    run_seconds = time.perf_counter() - started
    stop_tracer(tracer)

    store = runner.store
    models = workloads.lineup(job["spec"])
    audits, entities, queries = {}, {}, 0
    for name in workloads.HEADLINE_DATASETS:
        dataset = store.get(("dataset", name))
        redundancy = store.get(("redundancy", name))
        leakage = store.get(("leakage", name))
        if dataset is None or redundancy is None or leakage is None:
            continue
        entities[name] = dataset.num_entities
        queries += 2 * len(dataset.test) * len(models)
        symmetric = set(redundancy.symmetric_relations)
        audits[name] = {
            "reverse": len(redundancy.reverse_pairs) + len(redundancy.reverse_duplicate_pairs),
            "duplicate": len(redundancy.duplicate_pairs),
            "redundant_share": leakage.test_redundant_share,
            "asymmetric_redundant": sum(
                1 for item in leakage.per_triple
                if item.has_any_redundancy and item.triple[1] not in symmetric
            ),
        }
    errors = workloads.check_headline(report.rows, models, audits, entities)
    return {
        "errors": errors,
        "run_s": run_seconds,
        "queries": queries,
        "digest": workloads.table_digest(report.rows),
        "fingerprint": spec.fingerprint(),
        "stages": {stage.name: stage.seconds for stage in report.stages},
        "audits": audits,
    }


def job_prepare_rank(job: dict, tracer) -> dict:
    from repro.api import ExperimentSpec, Runner

    spec = ExperimentSpec.from_dict(job["spec"])
    started = time.perf_counter()
    Runner(spec, cache_dir=job["cache_dir"]).run(stages=["ingest", "train"])
    return {"errors": [], "prepare_s": time.perf_counter() - started,
            "fingerprint": spec.fingerprint()}


def job_rank(job: dict, tracer) -> dict:
    import numpy as np
    from repro.api import ExperimentSpec, Runner

    import workloads

    spec = ExperimentSpec.from_dict(job["spec"])
    runner = Runner(spec, cache_dir=job["cache_dir"])
    started = time.perf_counter()
    report = runner.run(stages=["evaluate"])
    run_seconds = time.perf_counter() - started
    stop_tracer(tracer)

    errors, queries = [], 0
    store = runner.store
    for name in job["spec"]["datasets"]:
        dataset = store[("dataset", name)]
        test = list(dataset.test)
        sample = [test[i] for i in workloads.oracle_sample(len(test), job["seed"])]
        known_tails, known_heads = {}, {}
        for h, r, t in dataset.known_triples():
            known_tails.setdefault((h, r), []).append(t)
            known_heads.setdefault((r, t), []).append(h)
        for model in workloads.lineup(job["spec"]):
            evaluation = store[("evaluation", model, name)]
            queries += len(evaluation.records)
            scorer = store[("scorer", model, name)]
            expected = {}
            for h, r, t in sample:
                tails = np.asarray(scorer.score_all_tails(h, r), dtype=np.float64)
                heads = np.asarray(scorer.score_all_heads(r, t), dtype=np.float64)
                expected[((h, r, t), "tail")] = workloads.mean_tie_rank(
                    tails, t, known_tails[(h, r)])
                expected[((h, r, t), "head")] = workloads.mean_tie_rank(
                    heads, h, known_heads[(r, t)])
            observed = {
                key: record.filtered_rank
                for key, record in evaluation.records_by_triple().items() if key in expected
            }
            errors += [f"{model} on {name}: {error}"
                       for error in workloads.check_ranks(expected, observed)]
    cache = dict((report.telemetry or {}).get("cache", {}))
    produced = [key for stage in report.stages for key in stage.produced]
    errors += workloads.check_warm(
        produced, cache.get("miss", 0),
        len(job["spec"]["datasets"]) * len(workloads.lineup(job["spec"])))
    return {"errors": errors, "run_s": run_seconds, "queries": queries, "cache": cache,
            "produced": produced, "fingerprint": spec.fingerprint()}


def job_prepare_serve(job: dict, tracer) -> dict:
    from pathlib import Path

    from repro.api import ExperimentSpec
    from repro.kg.freebase import fb15k_like
    from repro.kg.io import load_dataset, save_dataset
    from repro.models.registry import make_model
    from repro.models.trainer import train_model
    from repro.serve import ModelArtifact

    import workloads

    started = time.perf_counter()
    work = Path(job["work"])
    spec = ExperimentSpec.from_dict(job["spec"])
    config = spec.to_experiment_config()
    generated, _ = fb15k_like(config.scale, config.seed)
    save_dataset(generated, work / "dataset")
    # Train on the dataset as the server will load it, so ids agree exactly.
    dataset = load_dataset(work / "dataset")
    model = make_model("TransE", dataset.num_entities, dataset.num_relations,
                       config.model_config("TransE"))
    train_model(model, dataset, config.training_config())
    artifact = ModelArtifact.save(model, work / "artifact", overwrite=True)
    pool = workloads.key_pool(list(dataset.test), job["seed"])
    (work / "pool.json").write_text(json.dumps(pool))
    return {"errors": [], "prepare_s": time.perf_counter() - started,
            "fingerprint": spec.fingerprint(), "artifact": artifact.fingerprint,
            "pool": len(pool), "entities": dataset.num_entities}


def job_load(job: dict, tracer) -> dict:
    """Closed-loop load: each connection sends its next request on a reply."""
    import asyncio
    from pathlib import Path

    import workloads

    pool = [tuple(key) for key in json.loads(Path(job["pool"]).read_text())]
    keys = workloads.request_key_stream(len(pool), job["seed"])
    budget = job.get("requests")
    deadline = time.perf_counter() + job.get("seconds", 0.0)
    latencies, samples, failures = [], [], []
    sent = 0
    load_started = time.perf_counter()

    def next_request():
        nonlocal sent
        if budget is not None and sent >= budget:
            return None
        if budget is None and time.perf_counter() >= deadline:
            return None
        sent += 1
        indices = next(keys)
        return sent, indices, workloads.request_line(pool, indices)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(job["host"], job["port"],
                                                       limit=1 << 24)
        try:
            while (request := next_request()) is not None:
                number, indices, line = request
                started = time.perf_counter()
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                now = time.perf_counter()
                latencies.append(now - started)
                if not reply.startswith(b'{"version"'):
                    failures.append(reply[:200].decode("utf-8", "replace"))
                elif number % job["sample_every"] == 0:
                    results = json.loads(reply)["results"]
                    for index, result in zip(indices, results):
                        samples.append([list(pool[int(index)]), result["entities"]])
        finally:
            writer.close()
            await writer.wait_closed()

    async def main() -> None:
        await asyncio.gather(*(connection() for _ in range(workloads.SERVE_CONNECTIONS)))

    asyncio.run(main())
    wall = time.perf_counter() - load_started
    Path(job["samples_path"]).write_text(json.dumps(samples))
    return {"errors": failures[:5], "failed": len(failures), "wall_s": wall,
            "latencies": latencies, "sampled": len(samples)}


def job_check_serve(job: dict, tracer) -> dict:
    """Served top-k ids against a lexsort of the artifact's own score rows."""
    from pathlib import Path

    import numpy as np
    from repro.kg.io import load_dataset
    from repro.serve import ModelArtifact

    import workloads

    dataset = load_dataset(Path(job["work"]) / "dataset")
    scorer = ModelArtifact.load(Path(job["work"]) / "artifact").instantiate()
    known_tails, known_heads = {}, {}
    for h, r, t in dataset.known_triples():
        known_tails.setdefault((h, r), set()).add(t)
        known_heads.setdefault((r, t), set()).add(h)
    errors, checked = [], 0
    for path in job["samples"]:
        for (side, anchor, relation), served in json.loads(Path(path).read_text()):
            if side == "tail":
                row = scorer.score_all_tails(anchor, relation)
                known = known_tails.get((anchor, relation), ())
            else:
                row = scorer.score_all_heads(relation, anchor)
                known = known_heads.get((relation, anchor), ())
            expected = workloads.reference_topk(
                np.asarray(row, dtype=np.float64), known, workloads.SERVE_TOP_K)
            errors += workloads.check_topk((side, anchor, relation), served, expected)
            checked += 1
    if checked == 0:
        errors.append("no served responses were sampled")
    return {"errors": errors, "checked": checked}


def job_prepare_churn(job: dict, tracer) -> dict:
    from pathlib import Path

    from repro.kg import ChurnProfile, DeltaLog, churn_stream, ingest_dataset, write_triples_tsv

    import workloads

    started = time.perf_counter()
    work = Path(job["work"])
    dump = work / "dump"
    dump.mkdir(parents=True, exist_ok=True)
    for split, rows in workloads.dump_rows(job["seed"]).items():
        write_triples_tsv(dump / f"{split}.txt", rows)
    base = ingest_dataset(dump, name="perfbench-churn").dataset
    log = DeltaLog(work / "churn.jsonl")
    profile = ChurnProfile(**workloads.CHURN_PROFILE)
    for batch in churn_stream(base, profile, seed=workloads.stream_seed(job["seed"], "churn")):
        log.append(batch)
    return {"errors": [], "prepare_s": time.perf_counter() - started, "log": log.summary()}


def job_churn(job: dict, tracer) -> dict:
    from pathlib import Path

    from repro.kg import DeltaLog, LiveDatasetMaintainer, ingest_dataset

    import workloads

    work = Path(job["work"])
    batches = DeltaLog(work / "churn.jsonl").batches()
    started = time.perf_counter()
    ingested = ingest_dataset(work / "dump", name="perfbench-churn")
    ingest_seconds = time.perf_counter() - started
    maintainer = LiveDatasetMaintainer.from_dataset(ingested.dataset)
    bootstrapped = time.perf_counter()
    batch_seconds, apply_seconds = [], []
    for batch in batches:
        batch_started = time.perf_counter()
        maintainer.apply(batch)
        applied = time.perf_counter()
        redundancy = maintainer.redundancy_report()
        maintainer.leakage_report(redundancy=redundancy)
        batch_seconds.append(time.perf_counter() - batch_started)
        apply_seconds.append(applied - batch_started)
    run_seconds = time.perf_counter() - started
    stop_tracer(tracer)

    live = maintainer.audit_report()
    final = Path(job["final_dir"])
    maintainer.export(final)
    rebuilt = LiveDatasetMaintainer.from_dataset(
        ingest_dataset(final, name="perfbench-churn").dataset).audit_report()
    live.pop("last_seq")
    rebuilt.pop("last_seq")
    return {
        "errors": workloads.check_audits_equal(live, rebuilt),
        "run_s": run_seconds,
        "ingest_s": ingest_seconds,
        "ingest_triples": ingested.total_triples,
        "bootstrap_s": bootstrapped - started - ingest_seconds,
        "batch_s": batch_seconds,
        "apply_s": apply_seconds,
        "applied_rows": sum(len(rows) for batch in batches
                            for side in (batch.adds, batch.removes) for rows in side.values()),
    }


def job_noop(job: dict, tracer) -> dict:
    """Nothing after the import: a set-up probe."""
    return {"errors": []}


JOBS = {
    "noop": job_noop,
    "headline": job_headline,
    "prepare-rank": job_prepare_rank,
    "rank": job_rank,
    "prepare-serve": job_prepare_serve,
    "load": job_load,
    "check-serve": job_check_serve,
    "prepare-churn": job_prepare_churn,
    "churn": job_churn,
}


def main(argv) -> int:
    job = json.loads(argv[1])
    import_seconds = None
    if job["op"] != "load":
        started = time.perf_counter()
        import repro.cli  # noqa: F401  (the import every CLI user pays)

        import_seconds = time.perf_counter() - started
    print(READY, flush=True)
    result = {"ok": False, "errors": [], "import_s": import_seconds}
    try:
        # Installing imports every wrapped module up front, which an untraced
        # run does lazily inside its timed region: count it as traced time.
        started = time.perf_counter()
        tracer = start_tracer(job)
        install_seconds = time.perf_counter() - started
        outcome = JOBS[job["op"]](job, tracer)
        result.update(outcome)
        result["stamp"] = provenance()
        if tracer is not None:
            result["layers"] = finish_tracer(
                tracer, job, install_seconds + outcome["run_s"], result["stamp"])
            result["layers"]["cli.import_s"] = import_seconds
        result["ok"] = not outcome["errors"]
    except Exception:
        traceback.print_exc()
        result["errors"] = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    result["peak_rss_mb"] = peak_rss_mb()
    print(RESULT + " " + json.dumps(result), flush=True)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
