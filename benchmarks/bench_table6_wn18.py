"""Table 6: link prediction of the full model lineup on WN18-like vs WN18RR-like.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table6_wn18

from conftest import run_experiment


def test_table6_wn18(benchmark, runner):
    result = run_experiment(benchmark, table6_wn18, runner)
    assert result["experiment"]
