"""The percentile rule: report the highest percentile with ten samples beyond it."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(5000, 99.0), (1000, 99.0), (999, 95.0), (400, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (1, None)],
)
def test_tail_percentile_has_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= 10


def test_tail_reports_interpolated_value():
    values = list(np.random.default_rng(0).exponential(size=1000))
    p, value = stats.tail(values)
    assert p == 99.0
    assert value == pytest.approx(np.percentile(values, 99.0))
    assert stats.tail(values[:19]) == (None, None)


def test_percentile_matches_numpy_linear():
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 10.0]
    for p in (0.0, 25.0, 50.0, 90.0, 100.0):
        assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_summary_uses_statistics_quartiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.summary(values) == {"median": 3.5, "q1": q1, "q3": q3, "n": 8}
    assert stats.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert stats.spread([10.0, 10.0, 10.0]) == 0.0
