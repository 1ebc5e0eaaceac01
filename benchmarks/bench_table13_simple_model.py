"""Table 13: FHits@1 of every model plus the simple statistics-based rule model.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table13_hits1_simple_model

from conftest import run_experiment


def test_table13_simple_model(benchmark, runner):
    result = run_experiment(benchmark, table13_hits1_simple_model, runner)
    assert result["experiment"]
