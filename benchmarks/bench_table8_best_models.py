"""Table 8: number of test relations on which each model is the most accurate.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table8_best_model_counts

from conftest import run_experiment


def test_table8_best_models(benchmark, runner):
    result = run_experiment(benchmark, table8_best_model_counts, runner)
    assert result["experiment"]
