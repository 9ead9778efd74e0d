"""Run aggregation: t-based confidence intervals and monotone-trend
classification over swept parameter values."""
from __future__ import annotations

import math
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


# The t quantile's finite sums give P(|T| <= t) to about 1e-16 absolute, so
# the tail mass 1 - confidence keeps few digits past this level.
MAX_CONFIDENCE = 0.999999


def summarize(values, confidence: float = 0.95) -> Summary:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"expected a 1-D sample, got shape {arr.shape}")
    if arr.size < 2:
        raise InsufficientDataError(f"need >= 2 values for a CI, got {arr.size}")
    if not 0 < confidence <= MAX_CONFIDENCE:
        raise ParameterError(f"confidence must be in (0, {MAX_CONFIDENCE}], "
                             f"got {confidence}")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1))
    t = _t_quantile(0.5 + confidence / 2, df=arr.size - 1)
    return Summary(n=int(arr.size), mean=mean, std=std,
                   ci_half_width=t * std / float(np.sqrt(arr.size)))


def _t_central_mass(t: float, df: int) -> float:
    """P(|T| <= t) for t >= 0 and Student's T with integer df >= 1: the
    finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even)."""
    cos2 = df / (df + t * t)
    sin = t / math.sqrt(df + t * t)
    odd = df % 2
    total = term = 1.0
    for a in range(1 + odd, df - 1, 2):
        term *= cos2 * a / (a + 1)
        total += term
    if not odd:
        return sin * total
    # df 1 is the Cauchy law, 2 theta / pi, with no series at all
    series = sin * math.sqrt(cos2) * total if df > 1 else 0.0
    return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + series)


def _t_quantile(q: float, df: int) -> float:
    """The q-quantile of Student's t with integer df >= 1, for q in (0.5, 1).

    Within 1e-11 relative of the exact value up to q = 0.9995; the error
    grows as 1e-16 / (1 - q) beyond."""
    target = 2.0 * q - 1.0
    log_norm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                - 0.5 * math.log(df * math.pi))
    # P(|T| <= t) is concave in t >= 0, so Newton's iterates from 0 climb
    # to the root; a step that is not upward is rounding at the root
    t = 0.0
    for _ in range(200):
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (target - _t_central_mass(t, df)) / (2.0 * density)
        t += step
        if step <= 1e-12 * t:
            break
    return t


def _average_ranks(values) -> np.ndarray:
    """Ranks from 1, ties sharing the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


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
    rho = spearman_rho(points)
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
    if np.isnan(xs).any() or np.isnan(ys).any():
        return math.nan
    ranks = np.vstack([_average_ranks(xs), _average_ranks(ys)])
    # a constant series has no rank spread, and the 0/0 it meets is the
    # nan that trend_direction reads as FLAT
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks)[1, 0])


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
