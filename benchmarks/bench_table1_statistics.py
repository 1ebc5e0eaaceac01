"""Table 1: statistics of the six evaluation datasets.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table1_statistics

from conftest import run_experiment


def test_table1_statistics(benchmark, runner):
    result = run_experiment(benchmark, table1_statistics, runner)
    assert result["experiment"]
