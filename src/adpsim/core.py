"""Shared vocabulary for both fidelity levels: distribution kinds, frame and
energy constants, the Cv estimate and the polling-selection rule."""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ParameterError(ValueError):
    """An argument or configuration value is outside its documented domain."""


class InsufficientDataError(ValueError):
    """Too few samples to compute the requested estimate."""


class SimulationIntegrityError(RuntimeError):
    """An internal invariant broke; this is a bug in the simulator, not bad input."""


class EventLimitError(RuntimeError):
    """The event budget was exhausted before the run could finish."""


class PollingKind(str, Enum):
    DETERMINISTIC = "deterministic"
    EXPONENTIAL = "exponential"
    DYNAMIC = "dynamic"


class ArrivalKind(str, Enum):
    CBR = "cbr"
    POISSON = "poisson"
    BURSTY = "bursty"


@dataclass(frozen=True)
class PollingDistribution:
    """How the sink spaces its channel polls."""

    kind: PollingKind
    mean_interval_s: float

    def __post_init__(self) -> None:
        if not 0 < self.mean_interval_s < math.inf:
            raise ParameterError(
                f"mean_interval_s must be finite and > 0, got {self.mean_interval_s}")


@dataclass(frozen=True)
class ArrivalModel:
    """How a source generates packets. Burst fields only matter for BURSTY."""

    kind: ArrivalKind
    mean_interval_s: float
    burst_on_mean_s: float = 5.0    # mean dwell of the generating phase
    burst_off_mean_s: float = 45.0  # mean dwell of the silent phase
    burst_rate_factor: float = 10.0  # in-burst rate = factor / mean_interval_s

    def __post_init__(self) -> None:
        if not 0 < self.mean_interval_s < math.inf:
            raise ParameterError(
                f"mean_interval_s must be finite and > 0, got {self.mean_interval_s}")
        if not all(map(math.isfinite, (self.burst_on_mean_s, self.burst_off_mean_s,
                                       self.burst_rate_factor))):
            raise ParameterError("burst fields must be finite")
        if self.kind is ArrivalKind.BURSTY:
            if not (self.burst_on_mean_s > 0 and self.burst_off_mean_s > 0):
                raise ParameterError("burst dwell means must be > 0")
            if not self.burst_rate_factor > 0:
                raise ParameterError("burst_rate_factor must be > 0")

    @property
    def long_run_mean_interval_s(self) -> float:
        """Mean gap of the process as a whole; differs from mean_interval_s only
        for BURSTY when the duty cycle and rate factor do not cancel out."""
        if self.kind is not ArrivalKind.BURSTY:
            return self.mean_interval_s
        duty = self.burst_on_mean_s / (self.burst_on_mean_s + self.burst_off_mean_s)
        return self.mean_interval_s / (duty * self.burst_rate_factor)


@dataclass(frozen=True)
class FrameSpec:
    """Over-the-air frame sizes shared by both fidelity levels."""

    data_payload_bytes: int = 50
    data_overhead_bytes: int = 11
    ack_bytes: int = 10
    early_ack_bytes: int = 10
    preamble_strobe_bytes: int = 2
    max_concat: int = 5  # data packets per super packet

    def __post_init__(self) -> None:
        for name in ("data_payload_bytes", "data_overhead_bytes", "ack_bytes",
                     "early_ack_bytes", "preamble_strobe_bytes"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v > 0):
                raise ParameterError(f"{name} must be a positive int, got {v!r}")
        if not (isinstance(self.max_concat, int) and self.max_concat >= 1):
            raise ParameterError(f"max_concat must be >= 1, got {self.max_concat!r}")

    @property
    def single_frame_bytes(self) -> int:
        return self.data_payload_bytes + self.data_overhead_bytes

    def superpacket_bytes(self, n_packets: int) -> int:
        """Size of a super packet carrying n_packets payloads under one header."""
        if not 1 <= n_packets <= self.max_concat:
            raise ParameterError(
                f"n_packets must be in 1..{self.max_concat}, got {n_packets}")
        return n_packets * self.data_payload_bytes + self.data_overhead_bytes


@dataclass(frozen=True)
class HighLevelEnergyModel:
    """Abstract byte-cost model: energy scales with bytes sent plus flat
    per-poll and per-acknowledgement charges. No radio states, on purpose."""

    energy_per_byte_mJ: float = 0.5
    energy_per_poll_mJ: float = 1.0
    energy_per_ack_mJ: float = 5.0

    def __post_init__(self) -> None:
        for name in ("energy_per_byte_mJ", "energy_per_poll_mJ", "energy_per_ack_mJ"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0")


@dataclass(frozen=True)
class CvEstimate:
    """Coefficient of variation of a gap sample, with the moments it came from."""

    sample_count: int
    mean_s: float
    std_s: float  # sample standard deviation (n-1 divisor)
    cv: float


def substream(master_seed: int, *scope: int | str) -> np.random.Generator:
    """Named RNG substream derived from the master seed.

    Streams for different scopes are statistically independent, and adding a
    new scope never perturbs the draws of an existing one.
    """
    if master_seed < 0:
        raise ParameterError(f"master seed must be >= 0, got {master_seed}")
    words: list[int] = []
    for part in scope:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, (int, np.integer)):
            if part < 0:
                raise ParameterError(f"scope ints must be >= 0, got {part}")
            words.append(int(part))
        else:
            raise ParameterError(f"scope parts must be int or str, got {part!r}")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *words]))


def select_distribution(cv: float, threshold: float = 0.8) -> PollingKind:
    """Polling-kind rule: exponential iff the traffic looks more variable than
    the threshold; ties go to deterministic."""
    if not threshold > 0:
        raise ParameterError(f"threshold must be > 0, got {threshold}")
    if cv < 0:
        raise ParameterError(f"cv must be >= 0, got {cv}")
    return PollingKind.EXPONENTIAL if cv > threshold else PollingKind.DETERMINISTIC
