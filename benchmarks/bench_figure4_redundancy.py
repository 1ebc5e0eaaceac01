"""Figure 4: redundancy bitmap breakdown of the FB15k-like test set.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import figure4_redundancy_pie

from conftest import run_experiment


def test_figure4_redundancy(benchmark, runner):
    result = run_experiment(benchmark, figure4_redundancy_pie, runner)
    assert result["experiment"]
