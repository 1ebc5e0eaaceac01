"""Tables 9, 10 and 12: FHits@10 by relation category and prediction side.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table9_10_12_category_hits

from conftest import run_experiment


def test_table9_category_hits(benchmark, runner):
    result = run_experiment(benchmark, table9_10_12_category_hits, runner)
    assert result["experiment"]
