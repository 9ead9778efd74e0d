"""Randomized differential test of the radio model's fast paths: the
strobe-train jump and the backoff replay against the step-by-step model."""
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from adpsim.core import (  # noqa: E402
    ArrivalKind,
    ArrivalModel,
    EventLimitError,
    PollingDistribution,
    PollingKind,
)
from adpsim.lowsim import (  # noqa: E402
    LowLevelConfig,
    LowLevelResult,
    MacParams,
    _Simulation,
    run_low_level,
)

# the default early-ACK wait, the gap between two strobes of a train
GAP_S = 0.002


@st.composite
def small_configs(draw):
    """Small networks with short runs: 2-8 nodes, 1-8 packets, every
    arrival and polling kind, poll means down to 0.01 s and max_retries
    down to 0. The CCA slot lies on both sides of the gap between two
    strobes; unstaggered cbr sources make backoffs end on the same tick;
    a 40 ms early-ACK wait makes strobes that are registered far ahead land
    on data frames and block ACKs. hypothesis tries the first entry of
    each list most, so the lists lead with the hardest case for the
    backoff replay: three or more unstaggered cbr sources whose slot is
    longer than the gap."""
    arrival = draw(st.sampled_from([ArrivalKind.CBR, ArrivalKind.POISSON,
                                    ArrivalKind.BURSTY]))
    slot_s = draw(st.sampled_from([0.003, 0.0025, 0.006, GAP_S, 0.001, 0.0005]))
    initial = draw(st.sampled_from([1, 2, 4, 16]))
    mac = MacParams(
        early_ack_wait_s=draw(st.sampled_from([GAP_S, 0.04])),
        cca_slot_s=slot_s,
        initial_backoff_slots=initial,
        backoff_cap_slots=initial * draw(st.sampled_from([1, 4, 8])),
        max_retries=draw(st.integers(0, 5)),
    )
    return LowLevelConfig(
        arrival=ArrivalModel(arrival, draw(st.sampled_from([1.0, 3.0, 10.0]))),
        polling=PollingDistribution(
            draw(st.sampled_from(list(PollingKind))),
            draw(st.sampled_from([0.01, 0.1, 0.4, 0.9, 2.0, 5.0]))),
        node_count=draw(st.sampled_from([4, 5, 6, 7, 8, 2, 3])),
        packets_per_node=draw(st.integers(1, 8)),
        mac=mac,
        stagger_arrival_phase=arrival is not ArrivalKind.CBR or draw(st.booleans()),
        max_events=100_000,
    )


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                     database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(config=small_configs(), seed=st.integers(1, 2**16))
def test_fast_paths_match_step_by_step_on_random_configs(config, seed):
    """Every field but the event count must agree with a run whose
    _steady_horizon never finds the steady regime. Runs that reach
    max_events are left out: the limit counts heap events, which the two
    paths make in different numbers, so they stop at different times."""
    try:
        fast = run_low_level(config, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Simulation, "_steady_horizon", lambda self, now: None)
            step = run_low_level(config, seed)
    except EventLimitError:
        hypothesis.event("reached max_events")
        return
    for f in fields(LowLevelResult):
        if f.name != "event_count":
            assert getattr(fast, f.name) == getattr(step, f.name), f.name
