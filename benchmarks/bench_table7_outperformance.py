"""Table 7: share of test triples, among those where each model beats TransE, that are redundant.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table7_outperform_redundancy

from conftest import run_experiment


def test_table7_outperformance(benchmark, runner):
    result = run_experiment(benchmark, table7_outperform_redundancy, runner)
    assert result["experiment"]
