"""Shared benchmark fixtures.

A single session-scoped :class:`repro.api.Runner` backs every benchmark so
that each (model, dataset) pair is trained once and every table/figure is
regenerated from the same artefacts — mirroring how the paper's experiment suite reuses
the same trained models across its tables.

The scale and training budget are deliberately small (``tiny`` datasets, low
dimension, few epochs) so the whole harness runs on a laptop CPU in a few
minutes.  Absolute numbers are therefore far below the paper's GPU-scale
values; EXPERIMENTS.md records the qualitative comparison.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, Runner


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="tiny",
        help="synthetic benchmark scale used by the reproduction harness (tiny/small/medium)",
    )
    parser.addoption(
        "--repro-epochs",
        action="store",
        type=int,
        default=25,
        help="training epochs per (model, dataset) pair in the benchmark harness",
    )


@pytest.fixture(scope="session")
def runner(request) -> Runner:
    spec = ExperimentSpec(name="paper-benchmarks")
    spec.dataset.scale = request.config.getoption("--repro-scale")
    spec.dataset.seed = 13
    spec.model.dim = 16
    spec.training.epochs = request.config.getoption("--repro-epochs")
    spec.training.num_negatives = 2
    return Runner(spec)


def run_experiment(benchmark, driver, runner):
    """Benchmark one experiment driver and print the table it regenerates."""
    result = benchmark.pedantic(driver, args=(runner,), iterations=1, rounds=1)
    print()
    print(result["text"])
    return result
