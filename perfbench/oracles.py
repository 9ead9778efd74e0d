"""Checks on the program's outputs, computed apart from the program.

Each function returns a list of problems; an empty list means the output
passed. Tolerances on statistical checks are at least six standard
deviations wide, measured over thousands of runs, so a correct program does
not fail them on any seed.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Mean-delay bands for one byte-cost run, as multiples of the mean poll
# interval p. Polls are independent of arrivals, so the mean wait is the
# residual life E[X^2]/(2 E[X]) of the poll spacing: p/2 when polls are
# evenly spaced, p when they are exponential, for every arrival process.
# Per-run spread: sd 0.010 p (deterministic) and up to 0.067 p (exponential
# at p = 10 s, 500 polls); the exponential band is skewed because the
# estimator's right tail is heavier.
RUN_DELAY_BAND = {"deterministic": (0.42, 0.58), "exponential": (0.6, 2.0)}
# Pooled over every run of one cell (>= 80 runs): the deterministic mean
# sits within 0.001 p of p/2, the exponential one within 0.0075 p of p,
# less an edge bias of about 0.011 p at p = 10 s.
POOLED_DELAY_TOL = {"deterministic": 0.01, "exponential": 0.06}
SIGMAS = 7.0  # width of Poisson count bands
REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def poisson_band(mean: float) -> tuple[float, float]:
    half = SIGMAS * math.sqrt(mean) + 1.0
    return mean - half, mean + half


def cbr_count(horizon_s: float, interval_s: float) -> int:
    """Points k * interval (k >= 1) at or before the horizon, exactly."""
    return math.floor(Fraction(horizon_s) / Fraction(interval_s))


def cbr_deterministic_expected(arrival_s: float, poll_s: float, horizon_s: float,
                               payload: int, overhead: int, max_concat: int,
                               per_byte: float, per_poll: float, per_ack: float) -> dict:
    """Closed form of a cbr/deterministic byte-cost run from frame arithmetic.

    Arrival k is at k*a and is served by the first poll at or after it,
    ceil(k*a/p)*p, if that poll lies within the horizon."""
    a, p = Fraction(arrival_s), Fraction(poll_s)
    n_polls = cbr_count(horizon_s, poll_s)
    batches: dict[int, int] = {}
    delay_sum = Fraction(0)
    delivered = 0
    arrivals = cbr_count(horizon_s, arrival_s)
    for k in range(1, arrivals + 1):
        t = a * k
        j = math.ceil(t / p)
        if j > n_polls:
            continue
        delivered += 1
        delay_sum += j * p - t
        batches[j] = batches.get(j, 0) + 1
    energy = Fraction(n_polls) * Fraction(per_poll)
    sizes: dict[int, int] = {}
    for b in batches.values():
        full, rest = divmod(b, max_concat)
        parts = [max_concat] * full + ([rest] if rest else [])
        for size in parts:
            sizes[size] = sizes.get(size, 0) + 1
            energy += (Fraction(size * payload + overhead) * Fraction(per_byte)
                       + Fraction(per_ack))
    return {
        "polls": n_polls, "arrivals": arrivals, "delivered": delivered,
        "mean_delay_s": float(delay_sum / delivered) if delivered else 0.0,
        "energy_mJ": float(energy), "sizes": dict(sorted(sizes.items())),
    }


def check_byte_cost_run(cfg, res, cbr_det: dict | None) -> list[str]:
    """One run_high_level result against frame arithmetic and residual life."""
    problems = []
    arrival = cfg.arrival.kind.value
    polling = cfg.polling.kind.value
    p = cfg.polling.mean_interval_s
    horizon = cfg.horizon_s
    frames, energy = cfg.frames, cfg.energy
    hist = res.superpacket_size_histogram
    if any(not 1 <= size <= frames.max_concat or n < 1 for size, n in hist.items()):
        problems.append(f"super packet sizes {hist} outside 1..{frames.max_concat}")
    if sum(size * n for size, n in hist.items()) != res.packet_count:
        problems.append(f"histogram {hist} does not carry {res.packet_count} packets")
    expected_energy = res.poll_count * energy.energy_per_poll_mJ + math.fsum(
        n * ((size * frames.data_payload_bytes + frames.data_overhead_bytes)
             * energy.energy_per_byte_mJ + energy.energy_per_ack_mJ)
        for size, n in hist.items())
    if not _close(res.total_energy_mJ, expected_energy):
        problems.append(f"energy {res.total_energy_mJ} != polls and bytes {expected_energy}")
    problems += check_byte_cost_counts(arrival, polling, p, horizon,
                                       cfg.arrival.mean_interval_s,
                                       res.mean_delay_s, res.packet_count,
                                       res.undelivered_count)
    if polling == "deterministic":
        if res.poll_count != cbr_count(horizon, p):
            problems.append(f"{res.poll_count} polls, grid has {cbr_count(horizon, p)}")
    else:
        low, high = poisson_band(horizon / p)
        if not low <= res.poll_count <= high:
            problems.append(f"{res.poll_count} exponential polls, expected {horizon / p:g}")
    if cbr_det is not None:
        got = (res.poll_count, res.packet_count + res.undelivered_count, hist)
        want = (cbr_det["polls"], cbr_det["arrivals"], cbr_det["sizes"])
        if got != want:
            problems.append(f"cbr/deterministic polls, arrivals, sizes {got} != closed form {want}")
        problems += check_closed_form(res.packet_count, res.mean_delay_s,
                                      res.total_energy_mJ, cbr_det)
    return problems


def check_closed_form(delivered: int, mean_delay: float, energy: float,
                      want: dict) -> list[str]:
    """A cbr/deterministic run's delivered count, delay and energy."""
    if (delivered == want["delivered"] and _close(mean_delay, want["mean_delay_s"])
            and _close(energy, want["energy_mJ"])):
        return []
    return [f"cbr/deterministic delivered {delivered}, delay {mean_delay} s, energy "
            f"{energy} mJ != closed form {want['delivered']}, {want['mean_delay_s']} s, "
            f"{want['energy_mJ']} mJ"]


def check_byte_cost_counts(arrival: str, polling: str, p: float, horizon: float,
                           arrival_mean: float, mean_delay: float, delivered: int,
                           undelivered: int) -> list[str]:
    """Arrival conservation and the per-run residual-life band; shared by
    the direct byte-cost runs and the byte-cost rows of a sweep."""
    problems = []
    arrivals = delivered + undelivered
    if delivered < 0 or undelivered < 0:
        problems.append(f"negative counts {delivered}/{undelivered}")
    if arrival == "cbr":
        if arrivals != cbr_count(horizon, arrival_mean):
            problems.append(f"{arrivals} cbr arrivals, grid has {cbr_count(horizon, arrival_mean)}")
    else:
        low, high = poisson_band(horizon / arrival_mean)
        if not low <= arrivals <= high:
            problems.append(f"{arrivals} poisson arrivals, expected {horizon / arrival_mean:g}")
    # cbr arrivals on a deterministic grid are phase-locked to the polls, so
    # residual life does not apply; the closed form covers those runs
    low, high = RUN_DELAY_BAND[polling]
    phase_locked = arrival == "cbr" and polling == "deterministic"
    if delivered and not phase_locked and not low * p <= mean_delay <= high * p:
        problems.append(f"{arrival}/{polling}@{p:g} mean delay {mean_delay} s "
                        f"outside [{low:g}, {high:g}] x {p:g} s")
    return problems


def check_pooled_delay(polling: str, p: float, delays: list[float]) -> list[str]:
    """Residual life on the mean over every run of one cell."""
    target = 0.5 if polling == "deterministic" else 1.0
    mean = math.fsum(delays) / len(delays) / p
    if abs(mean - target) > POOLED_DELAY_TOL[polling]:
        return [f"{polling}@{p:g} pooled mean delay {mean:.4f} p, residual life "
                f"gives {target} p (tolerance {POOLED_DELAY_TOL[polling]})"]
    return []


def one_packet_airtime_s(frames, bit_rate_bps: float) -> float:
    return (frames.data_payload_bytes + frames.data_overhead_bytes) * 8.0 / bit_rate_bps


def check_radio_run(cfg, res) -> list[str]:
    """One run_low_level result against conservation, time closure, energy
    bounds and the physical floor on delay."""
    problems = []
    sources = cfg.node_count - 1
    if res.delivered + res.dropped != sources * cfg.packets_per_node:
        problems.append(f"{res.delivered} delivered + {res.dropped} dropped != "
                        f"{sources} x {cfg.packets_per_node}")
    if sorted(res.per_node_time_s) != list(range(cfg.node_count)):
        problems.append(f"time ledger covers nodes {sorted(res.per_node_time_s)}")
    for node, t in res.per_node_time_s.items():
        if abs(t - res.duration_s) > 1e-9:
            problems.append(f"node {node} accounts for {t} s of {res.duration_s} s")
    if not _close(math.fsum(res.per_node_energy_mJ.values()), res.total_energy_mJ):
        problems.append(f"per-node energy does not sum to {res.total_energy_mJ}")
    floor = cfg.node_count * cfg.radio.sleep_mW * res.duration_s
    ceiling = cfg.node_count * cfg.radio.tx_mW * res.duration_s
    if not floor <= res.total_energy_mJ <= ceiling:
        problems.append(f"energy {res.total_energy_mJ} mJ outside [{floor}, {ceiling}]")
    hist = res.superpacket_size_histogram
    if any(not 1 <= size <= cfg.frames.max_concat or n < 1 for size, n in hist.items()):
        problems.append(f"super packet sizes {hist} outside 1..{cfg.frames.max_concat}")
    if sum(hist.values()) > res.poll_count:
        problems.append(f"{sum(hist.values())} clean super packets in {res.poll_count} polls")
    problems += check_radio_delay(cfg.frames, cfg.bit_rate_bps, res.delivered,
                                  res.mean_delay_s)
    return problems


def check_radio_delay(frames, bit_rate_bps: float, delivered: int,
                      mean_delay: float) -> list[str]:
    floor = one_packet_airtime_s(frames, bit_rate_bps)
    if delivered and not mean_delay >= floor:
        return [f"mean delay {mean_delay} s below one-packet airtime {floor} s"]
    return []
