"""Abstract single-link model: every poll costs a fixed charge, queued
packets ride out in concatenated super packets priced per byte, and delay is
simply how long a packet waited for the next poll. No radio, no channel."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ArrivalModel,
    FrameSpec,
    HighLevelEnergyModel,
    ParameterError,
    PollingDistribution,
    PollingKind,
    substream,
)
from .traffic import generate_arrivals

# Exponential poll instants are drawn in blocks of this size until the
# horizon is crossed.
_POLL_BLOCK = 4096


@dataclass(frozen=True)
class HighLevelConfig:
    arrival: ArrivalModel
    polling: PollingDistribution
    horizon_s: float = 5000.0
    frames: FrameSpec = field(default_factory=FrameSpec)
    energy: HighLevelEnergyModel = field(default_factory=HighLevelEnergyModel)

    def __post_init__(self) -> None:
        if not 0 < self.horizon_s < math.inf:
            raise ParameterError(
                f"horizon_s must be finite and > 0, got {self.horizon_s}")
        if self.polling.kind is PollingKind.DYNAMIC:
            raise ParameterError("the abstract model has no feedback loop; "
                                 "polling must be deterministic or exponential")


@dataclass(frozen=True)
class HighLevelResult:
    total_energy_mJ: float
    mean_delay_s: float
    poll_count: int
    packet_count: int
    undelivered_count: int
    superpacket_size_histogram: dict[int, int]


def group_into_superpackets(pending: int, max_concat: int) -> list[int]:
    """Split a backlog into super packet sizes, largest first."""
    if pending < 0:
        raise ParameterError(f"pending must be >= 0, got {pending}")
    if max_concat < 1:
        raise ParameterError(f"max_concat must be >= 1, got {max_concat}")
    sizes = [max_concat] * (pending // max_concat)
    if pending % max_concat:
        sizes.append(pending % max_concat)
    return sizes


def superpacket_energy(n_packets: int, frames: FrameSpec,
                       energy: HighLevelEnergyModel) -> float:
    """Transmit charge for one super packet plus its acknowledgement."""
    size = frames.superpacket_bytes(n_packets)
    return size * energy.energy_per_byte_mJ + energy.energy_per_ack_mJ


def _poll_times(polling: PollingDistribution, horizon_s: float,
                rng: np.random.Generator) -> np.ndarray:
    mean = polling.mean_interval_s
    if polling.kind is PollingKind.DETERMINISTIC:
        n = int(horizon_s / mean + 1e-9)
        return mean * np.arange(1, n + 1)
    chunks: list[np.ndarray] = []
    total = 0.0
    while total <= horizon_s:
        block = np.cumsum(rng.exponential(mean, size=_POLL_BLOCK)) + total
        chunks.append(block)
        total = float(block[-1])
    times = np.concatenate(chunks)
    return times[times <= horizon_s]


def run_high_level(config: HighLevelConfig, seed: int) -> HighLevelResult:
    """One run of the abstract model.

    A packet arriving exactly at a poll instant is served by that poll
    (zero delay); packets still queued after the last poll never leave.
    """
    poll_rng = substream(seed, 0, "polling")
    arrival_rng = substream(seed, 1, "arrivals")

    polls = _poll_times(config.polling, config.horizon_s, poll_rng)
    timeline = generate_arrivals(config.arrival, horizon_s=config.horizon_s,
                                 rng=arrival_rng)
    arrivals = np.asarray(timeline.timestamps_s, dtype=float)

    n_polls = int(polls.size)
    if arrivals.size:
        idx = np.searchsorted(polls, arrivals, side="left")
        delivered_mask = idx < n_polls
        delays = polls[idx[delivered_mask]] - arrivals[delivered_mask]
        batch_sizes = np.bincount(idx[delivered_mask], minlength=n_polls)
    else:
        delivered_mask = np.zeros(0, dtype=bool)
        delays = np.zeros(0)
        batch_sizes = np.zeros(n_polls, dtype=int)

    histogram: dict[int, int] = {}
    energy = n_polls * config.energy.energy_per_poll_mJ
    for batch in batch_sizes:
        if batch == 0:
            continue
        for size in group_into_superpackets(int(batch), config.frames.max_concat):
            energy += superpacket_energy(size, config.frames, config.energy)
            histogram[size] = histogram.get(size, 0) + 1

    delivered = int(delivered_mask.sum())
    return HighLevelResult(
        total_energy_mJ=float(energy),
        mean_delay_s=float(delays.mean()) if delivered else 0.0,
        poll_count=n_polls,
        packet_count=delivered,
        undelivered_count=int(arrivals.size) - delivered,
        superpacket_size_histogram=dict(sorted(histogram.items())),
    )
