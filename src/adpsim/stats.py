"""Run aggregation: t-based confidence intervals and monotone-trend
classification over swept parameter values."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import InsufficientDataError, ParameterError


@dataclass(frozen=True)
class Summary:
    """Sample mean with a symmetric Student-t confidence interval."""

    n: int
    mean: float
    std: float
    ci_half_width: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width


def summarize(values, confidence: float = 0.95) -> Summary:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"expected a 1-D sample, got shape {arr.shape}")
    if arr.size < 2:
        raise InsufficientDataError(f"need >= 2 values for a CI, got {arr.size}")
    if not 0 < confidence < 1:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    import scipy.stats  # deferred: it costs most of the package's import time

    mean = float(arr.mean())
    std = float(arr.std(ddof=1))
    t = float(scipy.stats.t.ppf(0.5 + confidence / 2, df=arr.size - 1))
    return Summary(n=int(arr.size), mean=mean, std=std,
                   ci_half_width=t * std / float(np.sqrt(arr.size)))


def _spearman(xs, ys) -> float:
    import scipy.stats

    with warnings.catch_warnings():
        # a constant series has no defined rank correlation; nan is the
        # documented FLAT outcome, not a condition worth a warning
        warnings.simplefilter("ignore", scipy.stats.ConstantInputWarning)
        return float(scipy.stats.spearmanr(xs, ys).statistic)

class Trend(str, Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    FLAT = "flat"


def trend_direction(points, threshold: float = 0.8) -> Trend:
    """Classify y-vs-x as increasing / decreasing / flat by Spearman rank
    correlation: increasing when rho >= threshold, decreasing when
    rho <= -threshold, flat otherwise (including undefined rho on ties)."""
    if not 0 < threshold <= 1:
        raise ParameterError(f"threshold must be in (0, 1], got {threshold}")
    pts = list(points)
    xs = np.asarray([p[0] for p in pts], dtype=float)
    ys = np.asarray([p[1] for p in pts], dtype=float)
    if np.unique(xs).size < 3:
        raise ParameterError("need at least 3 distinct x values")
    rho = _spearman(xs, ys)
    if np.isnan(rho):
        return Trend.FLAT
    if rho >= threshold:
        return Trend.INCREASING
    if rho <= -threshold:
        return Trend.DECREASING
    return Trend.FLAT


def spearman_rho(points) -> float:
    """The raw rank correlation behind trend_direction, for reporting."""
    pts = list(points)
    xs = np.asarray([p[0] for p in pts], dtype=float)
    ys = np.asarray([p[1] for p in pts], dtype=float)
    if np.unique(xs).size < 3:
        raise ParameterError("need at least 3 distinct x values")
    return _spearman(xs, ys)


@dataclass(frozen=True)
class RunMetrics:
    """One simulation run, as one CSV row of a sweep."""

    fidelity: str
    arrival: str
    polling: str
    mean_poll_interval_s: float
    run: int
    seed: int
    energy_mJ: float
    mean_delay_s: float
    delivered: int
    dropped: int
    collisions: int
    retransmissions: int
