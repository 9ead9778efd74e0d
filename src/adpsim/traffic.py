"""Packet arrival generators (CBR, Poisson, ON/OFF bursty) and the per-cycle
Cv window the sink uses to classify incoming traffic."""
from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ArrivalKind,
    ArrivalModel,
    CvEstimate,
    ParameterError,
)

# Tolerance for "t is still within the horizon" when the horizon is an exact
# multiple of the CBR interval but float division says otherwise.
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class ArrivalTimeline:
    """Generation instants for one node, strictly increasing."""

    node_id: int
    model: ArrivalModel
    timestamps_s: tuple[float, ...]

    def __post_init__(self) -> None:
        ts = self.timestamps_s
        if not all(map(math.isfinite, ts)):
            raise ParameterError("timestamps must be finite")
        if any(map(operator.ge, ts, ts[1:])):
            raise ParameterError("timestamps must be strictly increasing")
        if ts and ts[0] <= 0:
            raise ParameterError("timestamps must be > 0")

    def __len__(self) -> int:
        return len(self.timestamps_s)


def generate_arrivals(model: ArrivalModel,
                      horizon_s: float | None = None,
                      count_limit: int | None = None,
                      rng: np.random.Generator | None = None,
                      node_id: int = 0) -> ArrivalTimeline:
    """Arrival instants for one node.

    Generation stops at whichever of horizon_s / count_limit is hit first.
    CBR places the first arrival exactly one interval in and consumes no
    randomness; the stochastic models require an rng.
    """
    if horizon_s is None and count_limit is None:
        raise ParameterError("need horizon_s or count_limit (or both)")
    if horizon_s is not None and not horizon_s > 0:
        raise ParameterError(f"horizon_s must be > 0, got {horizon_s}")
    if count_limit is not None and count_limit < 0:
        raise ParameterError(f"count_limit must be >= 0, got {count_limit}")
    if model.kind is not ArrivalKind.CBR and rng is None:
        raise ParameterError(f"{model.kind.value} arrivals need an rng")

    horizon = horizon_s if horizon_s is not None else float("inf")

    if model.kind is ArrivalKind.CBR:
        times = _cbr_times(model.mean_interval_s, horizon, count_limit)
    elif model.kind is ArrivalKind.POISSON:
        times = _poisson_times(model.mean_interval_s, horizon, count_limit, rng)
    else:
        times = _bursty_times(model, horizon, count_limit, rng)
    return ArrivalTimeline(node_id=node_id, model=model, timestamps_s=tuple(times))


def _cbr_times(interval: float, horizon: float, limit: int | None) -> list[float]:
    if horizon == float("inf"):
        n = limit
    else:
        n = int(horizon / interval + _GRID_EPS)
        if limit is not None:
            n = min(n, limit)
    # k * interval, not repeated addition, so grid points stay exact.
    return [interval * k for k in range(1, n + 1)]


def _poisson_times(mean: float, horizon: float, limit: int | None,
                   rng: np.random.Generator) -> list[float]:
    times: list[float] = []
    t = 0.0
    while limit is None or len(times) < limit:
        t += float(rng.exponential(mean))
        if t > horizon:
            break
        times.append(t)
    return times


def _bursty_times(model: ArrivalModel, horizon: float, limit: int | None,
                  rng: np.random.Generator) -> list[float]:
    """Two-state modulated Poisson process, starting silent.

    Discarding the partial gap at a dwell boundary and redrawing in the next
    generating phase is exact because exponential gaps are memoryless.
    """
    gap_mean = model.mean_interval_s / model.burst_rate_factor
    times: list[float] = []
    t = 0.0
    phase_end = float(rng.exponential(model.burst_off_mean_s))
    generating = False
    while limit is None or len(times) < limit:
        if not generating:
            t = phase_end
            if t > horizon:
                break
            generating = True
            phase_end = t + float(rng.exponential(model.burst_on_mean_s))
            continue
        gap = float(rng.exponential(gap_mean))
        if t + gap <= phase_end:
            t += gap
            if t > horizon:
                break
            times.append(t)
        else:
            t = phase_end
            generating = False
            phase_end = t + float(rng.exponential(model.burst_off_mean_s))
    return times


@dataclass
class CvWindow:
    """Observations the sink collected during the current classification cycle."""

    cycle_duration_s: float
    observations_s: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.cycle_duration_s > 0:
            raise ParameterError("cycle_duration_s must be > 0")

    def add(self, t: float) -> None:
        self.observations_s.append(t)

    def clear(self) -> None:
        self.observations_s.clear()


def cycle_cv(window: CvWindow) -> CvEstimate | None:
    """Cv of the gaps between consecutive observations in the cycle.

    Returns None when the window is uninformative: fewer than 3 observations
    (fewer than 2 gaps), or a degenerate zero-mean gap sample. That is a
    normal outcome, not an error; the caller keeps its current polling kind.
    """
    obs = sorted(window.observations_s)
    if len(obs) < 3:
        return None
    gaps = np.diff(obs)
    mean = float(gaps.mean())
    if mean <= 0:
        return None
    std = float(gaps.std(ddof=1))
    return CvEstimate(sample_count=int(gaps.size), mean_s=mean, std_s=std, cv=std / mean)


def save_timelines(path, timelines: list[ArrivalTimeline]) -> None:
    """Write timelines as node_id,timestamp_s rows sorted by (node, time)."""
    rows = sorted((tl.node_id, t) for tl in timelines for t in tl.timestamps_s)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "timestamp_s"])
        for node_id, t in rows:
            writer.writerow([node_id, repr(t)])


def load_timelines(path, model: ArrivalModel) -> list[ArrivalTimeline]:
    """Inverse of save_timelines; the model is attached verbatim."""
    per_node: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node_id", "timestamp_s"]:
            raise ParameterError(f"unexpected header {header!r}")
        for row in reader:
            try:
                node_id, t = row
                per_node.setdefault(int(node_id), []).append(float(t))
            except ValueError:
                raise ParameterError(
                    f"bad row {row!r} on line {reader.line_num}") from None
    return [
        ArrivalTimeline(node_id=nid, model=model, timestamps_s=tuple(sorted(ts)))
        for nid, ts in sorted(per_node.items())
    ]
