"""Radio-model behavior: hand-traced handshakes, energy closure, determinism,
contention, retries, and the dynamic polling switch."""
import ast
import copy
import hashlib
import heapq
import inspect
from collections import Counter
from dataclasses import fields, replace

import pytest

from adpsim import lowsim
from adpsim.cli import run_seed
from adpsim.core import (
    ArrivalKind,
    ArrivalModel,
    EventLimitError,
    FrameSpec,
    ParameterError,
    PollingDistribution,
    PollingKind,
)
from adpsim.lowsim import (
    EventKind,
    LowLevelConfig,
    LowLevelResult,
    MacParams,
    NodeMode,
    RadioPowerProfile,
    RadioState,
    _Simulation,
    airtime,
    run_low_level,
)
from adpsim.traffic import ArrivalTimeline

BIT_RATE = 18780.0
# the seed the sweep gives the every-key INI's first cbr radio run at 1.5 s
EVERY_KEY_SEED = run_seed(2024, "low", "cbr", 1.5, 0)


def _config(**kw):
    base = dict(
        arrival=ArrivalModel(ArrivalKind.CBR, 50.0),
        polling=PollingDistribution(PollingKind.DETERMINISTIC, 1.0),
        node_count=2,
        packets_per_node=1,
    )
    base.update(kw)
    return LowLevelConfig(**base)


def _every_key_cbr(polling):
    """The unstaggered cbr radio config of the every-key INI in test_cli.py
    at a 1.5 s poll mean. Its strobe, early-ACK, slot and poll times are
    multiples of 0.25 ms, so events often fall due at the same instant."""
    return LowLevelConfig(
        arrival=ArrivalModel(ArrivalKind.CBR, 30.0),
        polling=PollingDistribution(polling, 1.5),
        node_count=4,
        packets_per_node=6,
        bit_rate_bps=19200.0,
        frames=FrameSpec(data_payload_bytes=49, data_overhead_bytes=12,
                         ack_bytes=8, early_ack_bytes=9,
                         preamble_strobe_bytes=3, max_concat=4),
        mac=MacParams(early_ack_wait_s=0.003, cca_slot_s=0.0015,
                      initial_backoff_slots=8, backoff_cap_slots=64,
                      max_retries=3, strobe_timeout_s=6.5),
        cycle_duration_s=8.0,
        cv_threshold=0.7,
        stagger_arrival_phase=False,
        idle_horizon_s=60.0,
    )


# the saturated configs of test_block_draws_match_scalar_draws:
# (arrival, exponential poll mean, max_retries), 10 nodes, 8 packets each, seed 2
SATURATED = [
    (ArrivalKind.CBR, 6.0, 5),
    (ArrivalKind.POISSON, 10.0, 5),
    (ArrivalKind.CBR, 6.0, 1),
]


def _saturated(arrival, interval_s, max_retries):
    return _config(arrival=ArrivalModel(arrival, 50.0),
                   polling=PollingDistribution(PollingKind.EXPONENTIAL, interval_s),
                   node_count=10, packets_per_node=8,
                   mac=MacParams(max_retries=max_retries))


def _lossy():
    """A saturated config whose senders wait 40 ms for an early ACK. A
    strobe registered that far ahead can land on a data frame that starts
    after it was registered, or on the data frame's block ACK."""
    return replace(_saturated(*SATURATED[0]), mac=MacParams(early_ack_wait_s=0.04))


class _Rows:
    """A csv.writer stand-in for traces: keeps every row."""

    def __init__(self):
        self.rows = []

    def writerow(self, row):
        self.rows.append(list(row))


def _closure_checks(res):
    """Accounting identities every run must satisfy."""
    assert res.generated == res.delivered + res.dropped
    for node_id, total in res.per_node_time_s.items():
        assert total == res.duration_s, \
            f"node {node_id} accounts {total} of {res.duration_s} s"
    assert res.total_energy_mJ == pytest.approx(
        sum(res.per_node_energy_mJ.values()))
    assert res.strobe_energy_mJ <= res.total_energy_mJ
    assert res.mean_delay_s >= 0.0


def test_airtime():
    assert airtime(2, BIT_RATE) == 16 / BIT_RATE
    assert airtime(61, BIT_RATE) == 488 / BIT_RATE
    with pytest.raises(ParameterError):
        airtime(0, BIT_RATE)
    with pytest.raises(ParameterError):
        airtime(2, 0.0)


def test_hand_trace_single_packet():
    """One packet at 0.300 s, poll grid 1 s: the sender strobes across the
    remaining 0.7 s, the 1.0 s poll answers, and the delay is the wait plus
    the two handshake airtimes (within one strobe cycle of slack)."""
    config = _config()
    timeline = [ArrivalTimeline(1, config.arrival, (0.300,))]
    res = run_low_level(config, 1, timelines=timeline)
    expected = 0.7 + airtime(61, BIT_RATE) + airtime(10, BIT_RATE)
    assert res.delivered == 1
    assert res.dropped == 0
    assert abs(res.mean_delay_s - expected) < 1e-3
    assert 244 <= res.strobe_count <= 247
    assert res.poll_count == 1
    assert res.superpacket_size_histogram == {1: 1}
    assert res.collisions == 0
    _closure_checks(res)


def test_backlog_splits_into_five_then_two():
    config = _config(packets_per_node=7)
    timeline = [ArrivalTimeline(1, config.arrival,
                                tuple(0.1 * k for k in range(1, 8)))]
    res = run_low_level(config, 1, timelines=timeline)
    assert res.delivered == 7
    assert res.superpacket_size_histogram == {5: 1, 2: 1}
    assert res.retransmissions == 0
    _closure_checks(res)


def test_idle_network_energy_closed_form():
    config = _config(node_count=3, packets_per_node=0, idle_horizon_s=100.0)
    res = run_low_level(config, 1)
    assert res.poll_count == 100
    assert res.strobe_count == 0
    # the wake window of the poll at 100.0 runs one slot past the horizon
    duration = 100.001
    assert res.duration_s == duration
    # sink: 100 polls of one 1 ms listen slot, asleep otherwise;
    # two sources: asleep throughout
    expected = (100 * 0.001 * 29.0 + (duration - 0.1) * 0.003
                + 2 * duration * 0.003)
    assert res.total_energy_mJ == pytest.approx(expected, abs=1e-9)
    _closure_checks(res)


def _strobe_timeout_case():
    """One packet at 0.3 s, polls every 5 s and a 10 ms strobe timeout."""
    config = _config(polling=PollingDistribution(PollingKind.DETERMINISTIC, 5.0),
                     mac=MacParams(strobe_timeout_s=0.01))
    return config, [ArrivalTimeline(1, config.arrival, (0.3,))]


def test_strobe_timeout_exhausts_retries_and_drops():
    config, timeline = _strobe_timeout_case()
    res = run_low_level(config, 1, timelines=timeline)
    assert res.delivered == 0
    assert res.dropped == 1
    # initial attempt plus max_retries, each strobing at least once
    assert res.strobe_count >= config.mac.max_retries + 1
    assert res.mean_delay_s == 0.0
    _closure_checks(res)


@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("early", [0, 1], ids=["on-strobe-end", "one-tick-before"])
def test_strobe_deadline_tie_rule(k, early):
    """A strobe that ends on its sender's deadline tick finished in time, so
    the sender sends one more strobe and gives up at that one's end; with
    the deadline one tick earlier it gives up at the end of strobe k itself.
    Strobe k (counting from 0) ends k strobe cycles plus one strobe airtime
    after the first one starts. One source, no retries, and the sink's first
    poll lies far past the deadline, so nothing answers; for k = 10 the
    strobe-train jump lands a strobe exactly on the deadline tick."""
    base, timeline = _strobe_timeout_case()
    sim = _Simulation(base, 1, timeline)
    first = lowsim._ticks(0.3) + sim.slot  # the first strobe's start
    timeout = k * sim.strobe_cycle + sim.strobe_air - early
    timeout_s = timeout / lowsim.TICKS_PER_S
    assert lowsim._ticks(timeout_s) == timeout
    config = replace(base, mac=MacParams(max_retries=0, strobe_timeout_s=timeout_s))
    trace = _Rows()
    res = run_low_level(config, 1, timelines=timeline, trace=trace)
    last = k + 1 - early  # the strobe at whose end the sender gives up
    assert res.strobe_count == last + 1
    assert (res.dropped, res.poll_count) == (1, 0)
    ends = [(row[0], row[4]) for row in trace.rows if row[3] == "strobe_tx_end"]
    give_up = first + last * sim.strobe_cycle + sim.strobe_air
    assert ends[-1] == (repr(give_up / lowsim.TICKS_PER_S), "timed out")
    assert all(detail != "timed out" for _, detail in ends[:-1])


def test_contention_produces_collisions():
    config = _config(arrival=ArrivalModel(ArrivalKind.POISSON, 3.0),
                     polling=PollingDistribution(PollingKind.DETERMINISTIC, 5.0),
                     node_count=6, packets_per_node=10)
    res = run_low_level(config, 11)
    assert res.collisions > 0
    assert res.delivered == res.generated == 50
    assert res.dropped == 0
    _closure_checks(res)


def test_seed_determinism():
    config = _config(arrival=ArrivalModel(ArrivalKind.POISSON, 5.0),
                     polling=PollingDistribution(PollingKind.EXPONENTIAL, 2.0),
                     node_count=5, packets_per_node=5)
    first = run_low_level(config, 77)
    second = run_low_level(config, 77)
    assert first == second
    other = run_low_level(config, 78)
    assert (first.total_energy_mJ, first.mean_delay_s) \
        != (other.total_energy_mJ, other.mean_delay_s)


def test_event_trace_is_monotone(tmp_path):
    """Event times never go backwards, and events at the same time run in
    rank order."""

    rank = {kind.value: kind.rank for kind in EventKind}
    poisson = _config(arrival=ArrivalModel(ArrivalKind.POISSON, 5.0),
                      polling=PollingDistribution(PollingKind.EXPONENTIAL, 2.0),
                      node_count=4, packets_per_node=4)
    for config, seed in ((poisson, 5),
                         (_every_key_cbr(PollingKind.DETERMINISTIC), EVERY_KEY_SEED)):
        collector = _Rows()
        res = run_low_level(config, seed, trace=collector)
        assert collector.rows[0] == ["time_s", "seq", "node_id", "kind", "detail"]
        body = collector.rows[1:]
        assert len(body) == res.event_count
        assert all(len(row) == 5 for row in body)
        keys = [(float(row[0]), rank[row[3]]) for row in body]
        assert keys == sorted(keys), "(time, rank) must be non-decreasing"
    # the every-key run, last in the loop, has ties that the ranks order
    assert any(a[0] == b[0] and a[1] < b[1] for a, b in zip(keys, keys[1:]))


def test_event_limit_guard():
    config = _config(arrival=ArrivalModel(ArrivalKind.POISSON, 3.0),
                     node_count=4, packets_per_node=10, max_events=100)
    with pytest.raises(EventLimitError):
        run_low_level(config, 1)


def test_single_sender_strobe_energy_grows_with_interval():
    """Fixed generation instant, widening poll grid: the preamble must span
    the whole wait, so strobe count and strobe energy rise deterministically."""
    counts, energies = [], []
    for interval in (1.0, 4.0, 9.0):
        config = _config(polling=PollingDistribution(PollingKind.DETERMINISTIC,
                                                     interval))
        timeline = [ArrivalTimeline(1, config.arrival, (0.3,))]
        res = run_low_level(config, 4, timelines=timeline)
        _closure_checks(res)
        assert res.delivered == 1
        counts.append(res.strobe_count)
        energies.append(res.strobe_energy_mJ)
    assert counts[0] < counts[1] < counts[2]
    assert energies[0] < energies[1] < energies[2]
    # the strobe train fills the gap to the poll at one strobe per cycle
    assert counts[1] == pytest.approx((4.0 - 0.301) / 0.002852, abs=3)


def test_dynamic_polling_tracks_poisson_traffic():
    config = _config(arrival=ArrivalModel(ArrivalKind.POISSON, 2.0),
                     polling=PollingDistribution(PollingKind.DYNAMIC, 1.0),
                     node_count=4, packets_per_node=30)
    res = run_low_level(config, 3)
    assert res.informative_cycles > 0
    assert res.exponential_selections > res.deterministic_selections
    assert len(res.polling_switches) >= 1
    _closure_checks(res)


def test_dynamic_polling_stays_deterministic_on_cbr():
    config = _config(arrival=ArrivalModel(ArrivalKind.CBR, 2.0),
                     polling=PollingDistribution(PollingKind.DYNAMIC, 1.0),
                     packets_per_node=30)
    res = run_low_level(config, 3)
    assert res.informative_cycles > 0
    assert res.exponential_selections == 0
    assert res.polling_switches == ()
    assert res.final_polling_kind is PollingKind.DETERMINISTIC
    _closure_checks(res)


def test_config_validation():
    with pytest.raises(ParameterError):
        _config(node_count=1)
    with pytest.raises(ParameterError):
        _config(packets_per_node=-1)
    with pytest.raises(ParameterError):
        _config(bit_rate_bps=0.0)
    with pytest.raises(ParameterError):
        LowLevelConfig(arrival=ArrivalModel(ArrivalKind.CBR, 50.0),
                       polling=PollingDistribution(PollingKind.DETERMINISTIC, 1.0),
                       cycle_duration_s=0.0)
    for name in ("bit_rate_bps", "cycle_duration_s", "idle_horizon_s"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="finite"):
                _config(**{name: bad})
    # a poll mean below one CCA slot (the wake window) is refused, not run
    with pytest.raises(ParameterError):
        _config(polling=PollingDistribution(PollingKind.DETERMINISTIC, 1e-9))
    with pytest.raises(ParameterError):
        _config(polling=PollingDistribution(PollingKind.EXPONENTIAL, 0.0005))
    _config(polling=PollingDistribution(PollingKind.DETERMINISTIC, 0.001))
    # a finite time too long to count in nanosecond ticks is refused, not run
    with pytest.raises(ParameterError, match="ticks"):
        run_low_level(_config(polling=PollingDistribution(PollingKind.DETERMINISTIC,
                                                          1e300)), 1)


def test_mac_params_validation():
    with pytest.raises(ParameterError):
        MacParams(initial_backoff_slots=0)
    with pytest.raises(ParameterError):
        MacParams(max_retries=-1)
    with pytest.raises(ParameterError):
        MacParams(strobe_timeout_s=0.0)
    for name in ("early_ack_wait_s", "cca_slot_s", "strobe_timeout_s"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="finite"):
                MacParams(**{name: bad})
    for name in ("tx_mW", "rx_mW", "listen_mW", "sleep_mW"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="finite"):
                RadioPowerProfile(**{name: bad})


def _fast_path_case(nodes, arrival, polling):
    config = _config(arrival=ArrivalModel(arrival, 50.0),
                     polling=PollingDistribution(polling, 5.0),
                     node_count=nodes, packets_per_node=8)
    return pytest.param(config, 2, id=f"{nodes}-{arrival.value}-{polling.value}")


@pytest.mark.parametrize("config, seed", [
    _fast_path_case(4, ArrivalKind.CBR, PollingKind.DETERMINISTIC),
    _fast_path_case(5, ArrivalKind.CBR, PollingKind.EXPONENTIAL),
    _fast_path_case(5, ArrivalKind.BURSTY, PollingKind.EXPONENTIAL),
    _fast_path_case(6, ArrivalKind.POISSON, PollingKind.EXPONENTIAL),
    _fast_path_case(6, ArrivalKind.BURSTY, PollingKind.DYNAMIC),
    pytest.param(_every_key_cbr(PollingKind.DETERMINISTIC), EVERY_KEY_SEED,
                 id="every-key-cbr-deterministic"),
    pytest.param(_every_key_cbr(PollingKind.EXPONENTIAL), EVERY_KEY_SEED,
                 id="every-key-cbr-exponential"),
    pytest.param(_lossy(), 2, id="lossy"),
])
def test_fast_paths_match_step_by_step(config, seed, monkeypatch):
    """The strobe-train jump and the backoff replay stand in for events the
    step-by-step model would process one at a time, so they must not change
    what a run computes. A _steady_horizon that never finds the steady regime
    switches both off and gives the reference. Every field must be equal
    but the event count, which differs by design."""
    fast = run_low_level(config, seed)
    monkeypatch.setattr(_Simulation, "_steady_horizon", lambda self, now: None)
    step = run_low_level(config, seed)
    for f in fields(LowLevelResult):
        if f.name != "event_count":
            assert getattr(fast, f.name) == getattr(step, f.name), f.name


def test_train_begun_on_an_attempt_tick_is_clear_for_it(monkeypatch):
    """Two unstaggered cbr sources end their backoffs on the same tick. The
    first one's CCA is clear, so its train starts one slot later, where the
    second one's CCA window ends: that one is clear too, and the two trains
    collide. With a CCA slot longer than the early-ACK wait, a train's busy
    arc covers every phase of the strobe cycle, and the backoff replay must
    not read the train as there before it began. Step by step the run has 5
    collisions and 140.400 mJ, and the fast paths must give every field of
    that result."""
    config = LowLevelConfig(
        arrival=ArrivalModel(ArrivalKind.CBR, 10.0),
        polling=PollingDistribution(PollingKind.DETERMINISTIC, 1.0),
        node_count=4, packets_per_node=1,
        mac=MacParams(cca_slot_s=0.003, early_ack_wait_s=0.002),
        stagger_arrival_phase=False)
    fast = run_low_level(config, 1)
    monkeypatch.setattr(_Simulation, "_steady_horizon", lambda self, now: None)
    step = run_low_level(config, 1)
    assert (step.collisions, round(step.total_energy_mJ, 3)) == (5, 140.4)
    for f in fields(LowLevelResult):
        if f.name != "event_count":
            assert getattr(fast, f.name) == getattr(step, f.name), f.name


def test_tie_order_does_not_depend_on_float_noise(monkeypatch):
    """Events due at the same instant run in rank order, whatever the
    rounding of the float times that led to them: scaling every airtime by
    1 + 1e-12 must leave the every-key cbr run exactly as it was."""
    config = _every_key_cbr(PollingKind.DETERMINISTIC)
    exact = run_low_level(config, EVERY_KEY_SEED)
    monkeypatch.setattr(lowsim, "airtime",
                        lambda n, rate: airtime(n, rate) * (1 + 1e-12))
    assert run_low_level(config, EVERY_KEY_SEED) == exact


@pytest.mark.parametrize("arrival, interval_s, max_retries", [
    (ArrivalKind.CBR, 6.0, 5),
    (ArrivalKind.POISSON, 10.0, 5),
    (ArrivalKind.CBR, 6.0, 1),
], ids=["cbr-6s", "poisson-10s", "cbr-6s-max-retries-1"])
def test_block_draws_match_scalar_draws(arrival, interval_s, max_retries,
                                        monkeypatch):
    """Backoff slots are drawn in blocks, and a retry that changes the
    window rewinds the node's generator to where one scalar draw per
    attempt would have left it. The reference makes exactly those scalar
    draws, so every field of the result must agree, event_count included.
    The configs are saturated with exponential polls, so strobe timeouts
    move senders through several windows; the last one also drops."""
    config = _config(arrival=ArrivalModel(arrival, 50.0),
                     polling=PollingDistribution(PollingKind.EXPONENTIAL, interval_s),
                     node_count=10, packets_per_node=8,
                     mac=MacParams(max_retries=max_retries))
    blocked = run_low_level(config, 2)
    windows = set()

    def scalar_draw(self, node):
        window = min(self.cfg.mac.initial_backoff_slots << node.retry_count,
                     self.cfg.mac.backoff_cap_slots)
        windows.add(window)
        return 1 + int(self.backoff_rng[node.node_id].integers(0, window))

    monkeypatch.setattr(_Simulation, "_draw_backoff_slots", scalar_draw)
    assert run_low_level(config, 2) == blocked
    assert len(windows) > 1
    if max_retries == 1:
        assert blocked.dropped > 0


def _result_digest(results):
    """sha256 over every field but the event count of each result."""
    digest = hashlib.sha256()
    for res in results:
        for f in fields(LowLevelResult):
            if f.name != "event_count":
                digest.update(f"{f.name}={getattr(res, f.name)!r}\n".encode())
    return digest.hexdigest()


def test_saturated_and_timeout_results_are_frozen():
    """The saturated configs, the lossy one and the strobe-timeout one give
    the results they gave when every strobe and block-ACK timeout was a heap
    event. In the lossy run data frames collide and block ACKs are lost, and
    each loss, and nothing else, fires a block-ACK timeout."""
    trace = _Rows()
    results = [run_low_level(_saturated(*case), 2) for case in SATURATED]
    results.append(run_low_level(_lossy(), 2, trace=trace))
    config, timeline = _strobe_timeout_case()
    results.append(run_low_level(config, 1, timelines=timeline))
    events = Counter((row[3], row[4]) for row in trace.rows)
    collided = events["data_tx_end", "collided"]
    lost = events["ack_tx_end", "lost"]
    assert collided > 0 and lost > 0
    assert sum(n for (kind, _), n in events.items()
               if kind == "block_ack_timeout") == collided + lost
    assert _result_digest(results) == (
        "404393c2ab3c13075362ea097bab7d47bbb94177d8a48618cbbc4a9ac34edb1e")


def _twin(sim):
    """A copy of `sim` for a backoff replay to change: its own nodes,
    residency lists, backoff generators and heap. Everything else, the
    channel and the draw blocks among it, is shared: a replay only reads
    those, and swaps a node's block for a new list instead of writing to it."""
    twin = copy.copy(sim)
    twin.nodes = [copy.copy(n) for n in sim.nodes]
    for node in twin.nodes:
        node.residency = list(node.residency)
    twin.sink = twin.nodes[0]
    twin.backoff_rng = {i: copy.deepcopy(rng) for i, rng in sim.backoff_rng.items()}
    twin.heap = list(sim.heap)
    return twin


def _heap_replay(sim, horizon, only=None):
    """The backoff replay as a heap with one (tick, node id) entry per node
    in backoff, popped one attempt at a time, with the busy test worked out
    from each strobe's offset. A train is not there for an attempt on or
    before the tick of the CCA that began it. Nothing changes until the
    first attempt is replayed, and from there on it works on a twin of
    `sim`. With `only`, the one node of that id is replayed, as if it were
    the only one in backoff. Returns the regime end, whether another node's
    next attempt fell on the stop tick, and the simulation as the replay
    leaves it."""

    def busy(start, end):
        width = end - start
        for frame in sim.channel._active:
            offset = (start - frame.start) % sim.strobe_cycle
            begun = sim.nodes[frame.sender].train_start - sim.slot
            if start > begun and (offset < sim.strobe_air
                                  or offset > sim.strobe_cycle - width):
                return True
        return False

    attempts = [(n.backoff_until, n.node_id) for n in sim.nodes[1:]
                if n.mode is NodeMode.BACKOFF and only in (None, n.node_id)]
    heapq.heapify(attempts)
    replayed = {}  # node -> (count, last CCA end)
    end, tie = horizon, False
    while attempts:
        t, node_id = attempts[0]
        cca_end = t + sim.slot
        if cca_end > horizon or not busy(t, cca_end):
            end = min(t, horizon)
            tie = sum(a == t for a, _ in attempts) > 1
            break
        if not replayed:
            sim = _twin(sim)
        node = sim.nodes[node_id]
        count = replayed[node_id][0] + 1 if node_id in replayed else 1
        replayed[node_id] = (count, cca_end)
        node.backoff_until = t + sim._draw_backoff_slots(node) * sim.slot
        heapq.heapreplace(attempts, (node.backoff_until, node_id))
    for node_id, (count, cca_end) in replayed.items():
        node = sim.nodes[node_id]
        listen = count * sim.slot
        node.residency[RadioState.SLEEP.index] += cca_end - node.radio_since - listen
        node.residency[RadioState.LISTEN.index] += listen
        node.radio_since = cca_end
        sim._push(node.backoff_until, node_id, EventKind.BACKOFF_EXPIRED)
    return end, tie, sim


def _replay_state(sim):
    """Everything a backoff replay may change."""
    nodes = [(n.backoff_until, n.radio_since, list(n.residency), n.draw_window,
              n.draw_cursor, list(n.draw_block), n.draw_state,
              sim.backoff_rng[n.node_id].bit_generator.state)
             for n in sim.nodes[1:]]
    return nodes, [entry[:5] for entry in sim.heap], sim.seq


def _uncovered_runs(sim):
    """How many runs of phases of the strobe cycle no train's busy arc
    covers: each starts where an arc ends outside every arc."""
    period = sim.strobe_cycle
    width = sim.strobe_air + sim.slot - 1
    arcs = {(f.start - sim.slot + 1) % period for f in sim.channel._active}
    return sum(all((a + width - b) % period >= width for b in arcs) for a in arcs)


def _cut_back(sim, horizon, twin):
    """Whether a walk of the nodes one at a time, in the order of their
    next attempt, visits an attempt that the replay of all nodes together
    (`twin`) does not keep. Each walk goes up to the first stop of its own
    node or of a node walked before it, so it visits one exactly when its
    node's next attempt in `twin` comes before that stop."""
    bound = horizon - sim.slot + 1  # the first attempt that ends past the horizon
    for _, node_id in sorted((n.backoff_until, n.node_id) for n in sim.nodes[1:]
                             if n.mode is NodeMode.BACKOFF):
        own = _heap_replay(sim, horizon, only=node_id)[0]
        if twin.nodes[node_id].backoff_until < min(own, bound):
            return True
        bound = min(bound, own)
    return False


def _slot_over_gap():
    """A saturated config whose CCA slot is longer than the gap between two
    strobes of a train, so that one train's busy arc covers every phase."""
    return replace(_saturated(*SATURATED[0]), mac=MacParams(cca_slot_s=0.003))


def test_backoff_walk_matches_heap_replay_per_call(monkeypatch):
    """Each replay call walks one node at a time and truncates to the
    earliest stop; a heap that pops one attempt at a time over all nodes is
    the reference. Every call of the saturated configs, the lossy one, the
    one with a slot over the gap and the every-key cbr ones runs the
    reference on a twin of the simulation, and the walk must leave the same
    end, draws, generators, residency and heap. The every-key runs are
    there for their ties: two nodes whose next attempts fall on the stop
    tick, which the node id must order.

    The runs must reach every branch of the walk: calls that the earliest
    attempt answers alone, walks against no uncovered phase, one and
    several, a block drawn inside a walk, and a walk that a later node's
    stop cuts back."""
    walk = _Simulation._replay_backoffs
    draw = _Simulation._draw_backoff_slots
    seen = Counter()
    walking = False

    def spy_draw(self, node):
        seen["block crossing"] += walking
        return draw(self, node)

    def checked(self, horizon):
        nonlocal walking
        want, tie, twin = _heap_replay(self, horizon)
        expected = _replay_state(twin)  # before the walk: twin may be self
        if twin is self:
            seen["earliest attempt"] += 1
        else:
            seen["uncovered runs", min(_uncovered_runs(self), 2)] += 1
            if not seen["cut back"]:
                seen["cut back"] += _cut_back(self, horizon, twin)
        walking = True
        assert walk(self, horizon) == want
        walking = False
        assert _replay_state(self) == expected
        seen["calls"] += 1
        seen["ties"] += tie
        return want

    monkeypatch.setattr(_Simulation, "_draw_backoff_slots", spy_draw)
    monkeypatch.setattr(_Simulation, "_replay_backoffs", checked)
    configs = [_saturated(*case) for case in SATURATED]
    for config in configs + [_lossy(), _slot_over_gap()]:
        run_low_level(config, 2)
    for polling in (PollingKind.DETERMINISTIC, PollingKind.EXPONENTIAL):
        run_low_level(_every_key_cbr(polling), EVERY_KEY_SEED)
    replaying = seen["calls"] - seen["earliest attempt"]
    assert replaying > 1000 and seen["earliest attempt"] > 0
    for runs in range(3):
        assert seen["uncovered runs", runs] > 0, runs
    assert seen["block crossing"] > 0 and seen["cut back"] > 0
    assert seen["ties"] > 0


def test_backoff_walk_across_small_blocks(monkeypatch):
    """With blocks of three slots, walks cross block ends all the time and
    often have to hand draws of a new block back. The results must still
    be the step-by-step model's (see test_fast_paths_match_step_by_step),
    and some replay must have handed a whole new block back: drawn one for
    a node and left the node with the block it had before."""
    monkeypatch.setattr(lowsim, "_DRAW_BLOCK", 3)
    walk = _Simulation._replay_backoffs
    draw = _Simulation._draw_backoff_slots
    drawn = None  # the nodes that drew during the current replay
    handed_back = 0

    def spy_draw(self, node):
        if drawn is not None:
            drawn.add(node)
        return draw(self, node)

    def spy_walk(self, horizon):
        nonlocal drawn, handed_back
        blocks = {node: node.draw_block for node in self.nodes}
        drawn = set()
        end = walk(self, horizon)
        handed_back += any(node.draw_block is blocks[node] for node in drawn)
        drawn = None
        return end

    configs = [_saturated(*case) for case in SATURATED[:2]]
    monkeypatch.setattr(_Simulation, "_draw_backoff_slots", spy_draw)
    monkeypatch.setattr(_Simulation, "_replay_backoffs", spy_walk)
    fast = [run_low_level(config, 2) for config in configs]
    assert handed_back > 0
    monkeypatch.setattr(_Simulation, "_steady_horizon", lambda self, now: None)
    for config, result in zip(configs, fast):
        step = run_low_level(config, 2)
        for f in fields(LowLevelResult):
            if f.name != "event_count":
                assert getattr(result, f.name) == getattr(step, f.name), f.name


def _window(sim, node):
    """The backoff window of the node's next draw."""
    return min(sim.cfg.mac.initial_backoff_slots << node.retry_count,
               sim.cfg.mac.backoff_cap_slots)


def test_backoff_nodes_hold_a_block_of_their_window(monkeypatch):
    """The walk reads a node's pending block straight, without the window
    check of _draw_backoff_slots. That is sound only while every node in
    backoff drew its block with the window of its retry count, which holds
    because retry_count does not change in backoff. Every replay call of
    the saturated configs checks it."""
    walk = _Simulation._replay_backoffs
    checked = 0

    def spy_walk(self, horizon):
        nonlocal checked
        for node in self.nodes[1:]:
            if node.mode is NodeMode.BACKOFF:
                assert node.draw_window == _window(self, node)
                checked += 1
        return walk(self, horizon)

    monkeypatch.setattr(_Simulation, "_replay_backoffs", spy_walk)
    for case in SATURATED:
        run_low_level(_saturated(*case), 2)
    assert checked > 1000


def test_window_change_rewinds_at_default_block_size(monkeypatch):
    """With blocks of _DRAW_BLOCK slots, nearly every retry changes the
    window while values of the old block are still unused, so
    _draw_backoff_slots restores the generator and redraws the used count.
    The config that drops after one retry must take that branch and still
    give the result of one scalar draw per attempt."""
    config = _saturated(*SATURATED[2])
    draw = _Simulation._draw_backoff_slots
    rewinds = 0

    def spy_draw(self, node):
        nonlocal rewinds
        rewinds += (_window(self, node) != node.draw_window
                    and node.draw_cursor < len(node.draw_block))
        return draw(self, node)

    monkeypatch.setattr(_Simulation, "_draw_backoff_slots", spy_draw)
    blocked = run_low_level(config, 2)
    assert rewinds > 0

    def scalar_draw(self, node):
        return 1 + int(self.backoff_rng[node.node_id].integers(0, _window(self, node)))

    monkeypatch.setattr(_Simulation, "_draw_backoff_slots", scalar_draw)
    assert run_low_level(config, 2) == blocked


def test_event_path_reads_no_enum_class_attributes():
    """A member read through an Enum class goes through
    EnumType.__getattr__, about ten times the cost of a module global, so
    the simulation and the channel read the members lowsim binds at import."""
    enums = {"NodeMode", "RadioState", "FrameKind", "EventKind", "PollingKind"}
    tree = ast.parse(inspect.getsource(lowsim))
    classes = [c for c in tree.body
               if isinstance(c, ast.ClassDef) and c.name in ("_Simulation", "Channel")]
    assert len(classes) == 2
    reads = [f"{c.name}:{n.lineno}: {n.value.id}.{n.attr}"
             for c in classes for n in ast.walk(c)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
             and isinstance(n.value, ast.Name) and n.value.id in enums]
    assert not reads
