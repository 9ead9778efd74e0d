"""Dual-fidelity simulation suite for an adaptive channel-polling MAC.

Two models of the same protocol: an abstract byte-cost model (highsim) that
prices polls and super packets directly in millijoules, and a radio-level
model (lowsim) that simulates strobes, collisions, backoff and per-state
radio energy. The cli module sweeps both over a grid of mean poll intervals
and checks how their energy and delay trends relate.
"""
from .core import (
    ArrivalKind,
    ArrivalModel,
    CvEstimate,
    EventLimitError,
    FrameSpec,
    HighLevelEnergyModel,
    InsufficientDataError,
    ParameterError,
    PollingDistribution,
    PollingKind,
    SimulationIntegrityError,
    select_distribution,
    substream,
)
from .highsim import (
    HighLevelConfig,
    HighLevelResult,
    group_into_superpackets,
    run_high_level,
    superpacket_energy,
)
from .lowsim import (
    LowLevelConfig,
    LowLevelResult,
    MacParams,
    RadioPowerProfile,
    airtime,
    run_low_level,
)
from .stats import Summary, Trend, summarize, trend_direction
from .traffic import ArrivalTimeline, CvWindow, cycle_cv, generate_arrivals

__version__ = "0.1.0"

__all__ = [
    "ArrivalKind",
    "ArrivalModel",
    "ArrivalTimeline",
    "CvEstimate",
    "CvWindow",
    "EventLimitError",
    "FrameSpec",
    "HighLevelConfig",
    "HighLevelEnergyModel",
    "HighLevelResult",
    "InsufficientDataError",
    "LowLevelConfig",
    "LowLevelResult",
    "MacParams",
    "ParameterError",
    "PollingDistribution",
    "PollingKind",
    "RadioPowerProfile",
    "SimulationIntegrityError",
    "Summary",
    "Trend",
    "airtime",
    "cycle_cv",
    "generate_arrivals",
    "group_into_superpackets",
    "run_high_level",
    "run_low_level",
    "select_distribution",
    "substream",
    "summarize",
    "superpacket_energy",
    "trend_direction",
    "__version__",
]
