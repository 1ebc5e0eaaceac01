"""Table 2: FMRR of every model on the Cartesian product relations of FB15k-237-like.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table2_cartesian_strength

from conftest import run_experiment


def test_table2_cartesian(benchmark, runner):
    result = run_experiment(benchmark, table2_cartesian_strength, runner)
    assert result["experiment"]
