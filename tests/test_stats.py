"""Frozen oracles for the CI and trend estimators."""
import math

import pytest

from adpsim.core import InsufficientDataError, ParameterError
from adpsim.stats import (
    Trend,
    spearman_rho,
    summarize,
    trend_direction,
)


def test_summarize_oracle_four_values():
    # mean 11.5, sample std sqrt(5/3), t(0.975, 3) = 3.1824
    s = summarize([10, 12, 11, 13])
    assert s.n == 4
    assert s.mean == 11.5
    assert s.std == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
    assert s.ci_half_width == pytest.approx(2.054, abs=1e-3)
    assert s.ci_low == pytest.approx(11.5 - s.ci_half_width)
    assert s.ci_high == pytest.approx(11.5 + s.ci_half_width)


def test_summarize_oracle_two_values():
    # t(0.975, 1) = 12.7062, std 2*sqrt(2), half-width 12.7062 * 2
    s = summarize([1, 5])
    assert s.mean == 3.0
    assert s.ci_half_width == pytest.approx(25.412, abs=1e-3)


def test_summarize_degenerate_sample_has_zero_width():
    s = summarize([7, 7, 7, 7])
    assert s.std == 0.0
    assert s.ci_half_width == 0.0


def test_summarize_confidence_level_scales_width():
    narrow = summarize([10, 12, 11, 13], confidence=0.5)
    wide = summarize([10, 12, 11, 13], confidence=0.99)
    assert narrow.ci_half_width < wide.ci_half_width


def test_summarize_errors():
    with pytest.raises(InsufficientDataError):
        summarize([4.0])
    with pytest.raises(ParameterError):
        summarize([[1.0, 2.0]])
    with pytest.raises(ParameterError):
        summarize([1.0, 2.0], confidence=1.0)


def test_trend_direction_exact_monotone():
    up = [(1, 10.0), (2, 11.0), (3, 14.0), (4, 20.0)]
    down = [(x, -y) for x, y in up]
    assert trend_direction(up) is Trend.INCREASING
    assert trend_direction(down) is Trend.DECREASING
    assert spearman_rho(up) == pytest.approx(1.0)
    assert spearman_rho(down) == pytest.approx(-1.0)


def test_trend_direction_flat_example():
    pts = [(1, 5.0), (2, 5.1), (3, 4.9), (4, 5.0)]
    assert trend_direction(pts) is Trend.FLAT
    assert abs(spearman_rho(pts)) < 0.8


def test_trend_direction_constant_series_is_flat():
    assert trend_direction([(1, 3.0), (2, 3.0), (3, 3.0)]) is Trend.FLAT


def test_trend_threshold_boundary():
    # one dip puts rho at 0.8 (a hair under, in floats): flat by default,
    # increasing once the cutoff drops below the computed rank correlation
    pts = [(1, 1.0), (2, 3.0), (3, 2.0), (4, 4.0)]
    assert spearman_rho(pts) == pytest.approx(0.8)
    assert trend_direction(pts) is Trend.FLAT
    assert trend_direction(pts, threshold=0.79) is Trend.INCREASING


def test_trend_errors():
    with pytest.raises(ParameterError):
        trend_direction([(1, 2.0), (2, 3.0)])
    with pytest.raises(ParameterError):
        trend_direction([(1, 2.0), (1, 3.0), (1, 4.0)])
    with pytest.raises(ParameterError):
        trend_direction([(1, 1.0), (2, 2.0), (3, 3.0)], threshold=0.0)
    with pytest.raises(ParameterError):
        spearman_rho([(1, 2.0)])
