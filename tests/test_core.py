"""Domain-type arithmetic: frame sizes, parameter domains, Cv classification."""
import math

import pytest

from adpsim.core import (
    ArrivalKind,
    ArrivalModel,
    FrameSpec,
    HighLevelEnergyModel,
    ParameterError,
    PollingDistribution,
    PollingKind,
    select_distribution,
    substream,
)


def test_frame_byte_arithmetic():
    frames = FrameSpec()
    assert frames.single_frame_bytes == 61
    assert frames.superpacket_bytes(1) == 61
    assert frames.superpacket_bytes(5) == 261  # 5*50 payload + one header
    with pytest.raises(ParameterError):
        frames.superpacket_bytes(0)
    with pytest.raises(ParameterError):
        frames.superpacket_bytes(6)


def test_frame_validation():
    with pytest.raises(ParameterError):
        FrameSpec(data_payload_bytes=0)
    with pytest.raises(ParameterError):
        FrameSpec(preamble_strobe_bytes=-2)
    with pytest.raises(ParameterError):
        FrameSpec(max_concat=0)


def test_energy_model_matches_frame_spec():
    with pytest.raises(ParameterError):
        HighLevelEnergyModel(energy_per_poll_mJ=0.0)


def test_polling_distribution_validation():
    with pytest.raises(ParameterError):
        PollingDistribution(PollingKind.DETERMINISTIC, 0.0)
    with pytest.raises(ParameterError):
        PollingDistribution(PollingKind.EXPONENTIAL, -3.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            PollingDistribution(PollingKind.DETERMINISTIC, bad)


def test_arrival_model_validation():
    with pytest.raises(ParameterError):
        ArrivalModel(ArrivalKind.CBR, mean_interval_s=0.0)
    with pytest.raises(ParameterError):
        ArrivalModel(ArrivalKind.BURSTY, 50.0, burst_on_mean_s=0.0)
    with pytest.raises(ParameterError):
        ArrivalModel(ArrivalKind.BURSTY, 50.0, burst_rate_factor=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            ArrivalModel(ArrivalKind.POISSON, mean_interval_s=bad)
        for name in ("burst_on_mean_s", "burst_off_mean_s", "burst_rate_factor"):
            with pytest.raises(ParameterError, match="finite"):
                ArrivalModel(ArrivalKind.BURSTY, 50.0, **{name: bad})


def test_long_run_mean_interval():
    assert ArrivalModel(ArrivalKind.CBR, 5.0).long_run_mean_interval_s == 5.0
    # default burst shape: 10% duty at 10x rate cancels out exactly
    assert ArrivalModel(ArrivalKind.BURSTY, 50.0).long_run_mean_interval_s == 50.0
    slow = ArrivalModel(ArrivalKind.BURSTY, 50.0, burst_rate_factor=5.0)
    assert slow.long_run_mean_interval_s == pytest.approx(100.0)


def test_select_distribution_threshold_is_strict():
    assert select_distribution(0.81) is PollingKind.EXPONENTIAL
    assert select_distribution(0.8) is PollingKind.DETERMINISTIC
    assert select_distribution(0.0) is PollingKind.DETERMINISTIC
    assert select_distribution(0.5, threshold=0.4) is PollingKind.EXPONENTIAL
    with pytest.raises(ParameterError):
        select_distribution(-0.1)
    with pytest.raises(ParameterError):
        select_distribution(0.5, threshold=0.0)


def test_substream_stable_and_scope_sensitive():
    a = substream(5, 1, "arrivals").integers(0, 1 << 32, 8)
    b = substream(5, 1, "arrivals").integers(0, 1 << 32, 8)
    c = substream(5, 2, "arrivals").integers(0, 1 << 32, 8)
    d = substream(5, 1, "phase").integers(0, 1 << 32, 8)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_substream_scope_validation():
    with pytest.raises(ParameterError):
        substream(5, -1)
    with pytest.raises(ParameterError):
        substream(5, 2.5)
    with pytest.raises(ParameterError, match="master seed"):
        substream(-1, "arrivals")
