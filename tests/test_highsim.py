"""Byte-cost model oracles: closed forms for aligned CBR grids, energy
accounting identities for stochastic runs."""
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
)
from adpsim.highsim import (
    HighLevelConfig,
    group_into_superpackets,
    run_high_level,
    superpacket_energy,
)

FRAMES = FrameSpec()
ENERGY = HighLevelEnergyModel()


def _config(arrival_kind, arrival_mean, polling_kind, poll_mean, horizon=5000.0):
    return HighLevelConfig(
        arrival=ArrivalModel(arrival_kind, arrival_mean),
        polling=PollingDistribution(polling_kind, poll_mean),
        horizon_s=horizon,
    )


def test_group_into_superpackets():
    assert group_into_superpackets(7, 5) == [5, 2]
    assert group_into_superpackets(5, 5) == [5]
    assert group_into_superpackets(0, 5) == []
    assert group_into_superpackets(3, 1) == [1, 1, 1]
    with pytest.raises(ParameterError):
        group_into_superpackets(-1, 5)
    with pytest.raises(ParameterError):
        group_into_superpackets(3, 0)


def test_superpacket_energy_hand_values():
    # one packet: 61 B * 0.5 + 5 ACK; two packets: 111 B * 0.5 + 5 ACK
    assert superpacket_energy(1, FRAMES, ENERGY) == 35.5
    assert superpacket_energy(2, FRAMES, ENERGY) == 60.5
    assert superpacket_energy(5, FRAMES, ENERGY) == 135.5


def test_aligned_oracle_interval_10():
    # 500 polls, 2 packets each: 500 * (55.5 + 5 + 1) mJ, waits alternate 5/0
    res = run_high_level(_config(ArrivalKind.CBR, 5.0,
                                 PollingKind.DETERMINISTIC, 10.0), seed=1)
    assert res.total_energy_mJ == 30750.0
    assert res.mean_delay_s == 2.5
    assert res.poll_count == 500
    assert res.packet_count == 1000
    assert res.undelivered_count == 0
    assert res.superpacket_size_histogram == {2: 500}


def test_aligned_oracle_interval_5():
    # every arrival rides the poll it coincides with: zero delay
    res = run_high_level(_config(ArrivalKind.CBR, 5.0,
                                 PollingKind.DETERMINISTIC, 5.0), seed=1)
    assert res.total_energy_mJ == 36500.0
    assert res.mean_delay_s == 0.0
    assert res.superpacket_size_histogram == {1: 1000}


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_cbr_deterministic_closed_form_family(k):
    """Poll interval = k arrival intervals: batches of k, mean wait (k-1)a/2."""
    a = 4.0
    horizon = 7 * k * a  # exact multiple, so no boundary leftovers
    res = run_high_level(_config(ArrivalKind.CBR, a,
                                 PollingKind.DETERMINISTIC, k * a, horizon), seed=1)
    n_polls = 7
    n_packets = 7 * k
    assert res.poll_count == n_polls
    assert res.packet_count == n_packets
    assert res.undelivered_count == 0
    assert res.mean_delay_s == pytest.approx((k - 1) * a / 2)
    expected = n_polls * ENERGY.energy_per_poll_mJ
    for size in group_into_superpackets(k, FRAMES.max_concat):
        expected += n_polls * superpacket_energy(size, FRAMES, ENERGY)
    assert res.total_energy_mJ == pytest.approx(expected)


def test_unaligned_grid_leaves_tail_undelivered():
    # polls at 7 only; the arrival at 10 has no poll left to ride
    res = run_high_level(_config(ArrivalKind.CBR, 5.0,
                                 PollingKind.DETERMINISTIC, 7.0, horizon=10.0),
                         seed=1)
    assert res.poll_count == 1
    assert res.packet_count == 1
    assert res.undelivered_count == 1
    assert res.mean_delay_s == pytest.approx(2.0)


def test_no_arrivals_is_pure_polling_cost():
    res = run_high_level(_config(ArrivalKind.CBR, 5.0,
                                 PollingKind.DETERMINISTIC, 1.0, horizon=3.0),
                         seed=1)
    assert res.packet_count == 0
    assert res.superpacket_size_histogram == {}
    assert res.total_energy_mJ == res.poll_count * ENERGY.energy_per_poll_mJ
    assert res.mean_delay_s == 0.0


def _energy_identity(res):
    """Energy must decompose exactly into polls plus priced super packets."""
    total = res.poll_count * ENERGY.energy_per_poll_mJ
    for size, count in res.superpacket_size_histogram.items():
        total += count * superpacket_energy(size, FRAMES, ENERGY)
    return total


@pytest.mark.parametrize("arrival_kind,polling_kind", [
    (ArrivalKind.POISSON, PollingKind.DETERMINISTIC),
    (ArrivalKind.CBR, PollingKind.EXPONENTIAL),
    (ArrivalKind.POISSON, PollingKind.EXPONENTIAL),
])
def test_stochastic_runs_satisfy_accounting(arrival_kind, polling_kind):
    res = run_high_level(_config(arrival_kind, 5.0, polling_kind, 4.0,
                                 horizon=2000.0), seed=42)
    assert res.total_energy_mJ == pytest.approx(_energy_identity(res))
    assert sum(s * c for s, c in res.superpacket_size_histogram.items()) \
        == res.packet_count
    assert res.packet_count + res.undelivered_count > 0
    assert res.mean_delay_s >= 0.0


def test_exponential_poll_count_tracks_mean():
    counts = []
    for seed in range(30):
        res = run_high_level(_config(ArrivalKind.CBR, 5.0,
                                     PollingKind.EXPONENTIAL, 4.0,
                                     horizon=2000.0), seed=seed)
        counts.append(res.poll_count)
    mean = sum(counts) / len(counts)
    assert mean == pytest.approx(500, rel=0.1)


def test_seed_determinism():
    config = _config(ArrivalKind.POISSON, 5.0, PollingKind.EXPONENTIAL, 3.0)
    assert run_high_level(config, 9) == run_high_level(config, 9)
    assert run_high_level(config, 9) != run_high_level(config, 10)


def test_config_validation():
    with pytest.raises(ParameterError):
        _config(ArrivalKind.CBR, 5.0, PollingKind.DYNAMIC, 5.0)
    with pytest.raises(ParameterError):
        _config(ArrivalKind.CBR, 5.0, PollingKind.DETERMINISTIC, 5.0, horizon=0.0)
    # an infinite horizon would never finish drawing exponential poll times
    for polling in (PollingKind.DETERMINISTIC, PollingKind.EXPONENTIAL):
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                _config(ArrivalKind.CBR, 5.0, polling, 10.0, horizon=bad)
