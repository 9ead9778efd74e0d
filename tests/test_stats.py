"""Frozen oracles for the CI and trend estimators, closed forms of the t
quantile, and differential checks against scipy where it is installed."""
import math
import warnings

import numpy as np
import pytest

from adpsim.core import InsufficientDataError, ParameterError
from adpsim.stats import (
    MAX_CONFIDENCE,
    Trend,
    _t_quantile,
    spearman_rho,
    summarize,
    trend_direction,
)

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


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
    with pytest.raises(ParameterError):
        summarize([1.0, 2.0], confidence=MAX_CONFIDENCE + 1e-7)


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


# -- the t quantile ---------------------------------------------------------


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_t_quantile_closed_forms(confidence):
    q = 0.5 + confidence / 2
    # df 1 is the Cauchy law; df 2 inverts F(t) = 1/2 + t / (2 sqrt(2 + t^2))
    assert _t_quantile(q, 1) == pytest.approx(
        math.tan(math.pi * (q - 0.5)), rel=1e-12)
    assert _t_quantile(q, 2) == pytest.approx(
        (2 * q - 1) * math.sqrt(2 / (4 * q * (1 - q))), rel=1e-12)


def test_t_quantile_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for confidence in CONFIDENCES:
        q = 0.5 + confidence / 2
        for df in range(1, 1001):
            assert _t_quantile(q, df) == pytest.approx(
                scipy_stats.t.ppf(q, df), rel=1e-12), (confidence, df)
        for df in (2000, 10_000, 100_000):
            assert _t_quantile(q, df) == pytest.approx(
                scipy_stats.t.ppf(q, df), rel=1e-10), (confidence, df)
    # the widest interval summarize accepts still has 7 good digits
    q = 0.5 + MAX_CONFIDENCE / 2
    for df in (*range(1, 41), 1000, 100_000):
        assert _t_quantile(q, df) == pytest.approx(
            scipy_stats.t.ppf(q, df), rel=1e-7), df


# -- Spearman rho -----------------------------------------------------------


def _tied_samples(seed, count=2000):
    # small integer ranges force ties in both series; every 7th y is
    # constant, every 11th y and every 13th x holds a nan
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(4, 25))
        xs = rng.integers(0, max(3, n // 2), n).astype(float)
        if np.unique(xs).size < 3:
            xs[:3] = (-1.0, -2.0, -3.0)
        ys = rng.integers(0, 1 if i % 7 == 0 else 5, n).astype(float)
        if i % 11 == 0:
            ys[rng.integers(n)] = np.nan
        if i % 13 == 0:
            xs[rng.integers(n)] = np.nan
        yield list(zip(xs, ys))


def test_spearman_rho_matches_scipy_exactly():
    scipy_stats = pytest.importorskip("scipy.stats")
    seen_nan = 0
    for pts in _tied_samples(seed=12):
        xs, ys = zip(*pts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on constant input
            expected = float(scipy_stats.spearmanr(xs, ys).statistic)
        got = spearman_rho(pts)
        if math.isnan(expected):
            seen_nan += 1
            assert math.isnan(got), pts
        else:
            assert got == expected, pts
    assert seen_nan > 0


@pytest.mark.parametrize("ys", [[3.0, 3.0, 3.0, 3.0],
                                [1.0, float("nan"), 3.0, 4.0]],
                         ids=["constant", "nan"])
def test_undefined_rho_is_flat_without_warnings(ys):
    pts = list(zip([1.0, 2.0, 3.0, 4.0], ys))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(spearman_rho(pts))
        assert trend_direction(pts) is Trend.FLAT
