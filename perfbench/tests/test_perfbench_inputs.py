"""Workload inputs: identical for one seed, different across seeds.

Also keeps ``BENCHMARK.json`` in step with the metric catalogue.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

TEST_TRIPLES = [(h, h % 7, (h * 13) % 97) for h in range(200)]


def requests(seed: int, count: int = 50):
    return np.stack(list(itertools.islice(
        workloads.request_key_stream(workloads.SERVE_POOL_SIZE, seed), count)))


GENERATORS = {
    "headline-cold": workloads.headline_spec,
    "rank-warm": workloads.rank_warm_spec,
    "serve-zipf/spec": workloads.serve_spec,
    "serve-zipf/key-pool": lambda seed: workloads.key_pool(TEST_TRIPLES, seed, size=64),
    "serve-zipf/requests": lambda seed: requests(seed).tolist(),
    "ingest-churn/dump": workloads.dump_rows,
    "rank-warm/oracle-sample": lambda seed: workloads.oracle_sample(500, seed),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_a_function_of_the_seed(name):
    generate = GENERATORS[name]
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def churn_log(seed: int, directory: Path):
    from repro.kg import ChurnProfile, churn_stream, ingest_dataset, write_triples_tsv

    for split, rows in workloads.dump_rows(seed).items():
        write_triples_tsv(directory / f"{split}.txt", rows[: len(rows) // 4])
    base = ingest_dataset(directory).dataset
    profile = ChurnProfile(**dict(workloads.CHURN_PROFILE, batches=3))
    return [batch.fingerprint() for batch in
            churn_stream(base, profile, seed=workloads.stream_seed(seed, "churn"))]


def test_churn_stream_is_a_function_of_the_seed(tmp_path):
    first, again, other = (tmp_path / name for name in ("a", "b", "c"))
    for directory in (first, again, other):
        directory.mkdir()
    assert churn_log(5, first) == churn_log(5, again)
    assert churn_log(5, first) != churn_log(6, other)


def test_zipf_pool_makes_a_skewed_stream():
    counts = np.bincount(requests(1, 2000).ravel(), minlength=workloads.SERVE_POOL_SIZE)
    assert counts[:16].sum() > counts[-2048:].sum()


def test_benchmark_json_matches_the_catalogue():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["perfbench"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workloads.WHY[name] for name in workloads.WORKLOADS}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]} == {
        name: spec[:3] for name, spec in layers.END_TO_END.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, *layers.PER_LAYER[name][:2]) for name in layers.DECLARED_PER_LAYER]
    assert set(workloads.ALL_WORKLOADS) == set(workloads.WHY)
