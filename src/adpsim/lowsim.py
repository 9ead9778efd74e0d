"""Radio-level model of a duty-cycled star network.

Sources wake the sink with a train of preamble strobes, the sink answers
with an early ACK, queued payloads leave as one concatenated super packet
and are confirmed with a block ACK. Time is continuous and event driven:
the channel destroys every frame that overlaps another in time, senders run
CSMA with binary exponential backoff, and each node carries a four-state
radio whose per-state residency times form the energy ledger. The sink can
optionally retune its polling distribution from the coefficient of
variation of the packet generation gaps it observed during the last cycle.

Time is an integer count of nanosecond ticks. Every duration and arrival
instant is rounded to ticks once, when the simulation is set up, so sums of
times are exact and two events due at the same instant share one tick. Such
events run in the order of a fixed rank per event kind (EventKind.rank),
then node id, then push order; the results report seconds.

A strobe train's deadline is not an event: the ends of the train's frames
check it. A block-ACK timeout is an event, but only once the data frame or
its block ACK is lost. The event count and its limit count heap events.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from itertools import islice
from operator import length_hint

from .core import (
    ArrivalModel,
    FrameSpec,
    ParameterError,
    PollingDistribution,
    PollingKind,
    EventLimitError,
    SimulationIntegrityError,
    select_distribution,
    substream,
)
from .traffic import ArrivalTimeline, CvWindow, cycle_cv, generate_arrivals

TICKS_PER_S = 1_000_000_000

# Backoff slots are drawn this many at a time (see _draw_backoff_slots): one
# block draw costs about as much as reading 64 values from a list.
_DRAW_BLOCK = 1024


def _ticks(seconds: float) -> int:
    try:
        return round(seconds * TICKS_PER_S)
    except OverflowError:
        raise ParameterError(f"{seconds} s is too long to count in ticks") from None


def _in_gaps(t: int, gaps: list[tuple[int, int]], period: int) -> bool:
    """Whether tick t falls in one of the (start, length) phase ranges."""
    return any((t - g) % period < length for g, length in gaps)


def airtime(n_bytes: int, bit_rate_bps: float) -> float:
    """Seconds a frame of n_bytes occupies the channel."""
    if n_bytes <= 0:
        raise ParameterError(f"n_bytes must be > 0, got {n_bytes}")
    if not bit_rate_bps > 0:
        raise ParameterError(f"bit_rate_bps must be > 0, got {bit_rate_bps}")
    return n_bytes * 8.0 / bit_rate_bps


class NodeMode(Enum):
    SLEEP = "sleep"
    POLLING = "polling"
    RX_PENDING = "rx_pending"
    STROBE_SENDING = "strobe_sending"
    AWAIT_EARLY_ACK = "await_early_ack"
    DATA_SENDING = "data_sending"
    AWAIT_BLOCK_ACK = "await_block_ack"
    BACKOFF = "backoff"


class RadioState(Enum):
    """A radio's draw state; `index` is its place in a node's residency list."""

    TX = 0
    RX = 1
    LISTEN = 2
    SLEEP = 3

    def __init__(self, index: int) -> None:
        self.index = index


class FrameKind(Enum):
    STROBE = "strobe"
    EARLY_ACK = "early_ack"
    DATA = "data"
    BLOCK_ACK = "block_ack"


class EventKind(Enum):
    """An event: `handler` is the _Simulation method that runs it, and
    `rank` orders the events due at the same tick, lowest first.

    Ranks: a cycle is [start, end), so what happens on its end tick is the
    next cycle's (0). A frame is on the air over [start, end), as Channel
    counts overlap, so it is gone for anything that starts on its end tick
    (1). A frame that ends on its sender's deadline tick finished in time
    (2). Channel assessments and polls sense the air after every frame
    change on their tick; none registers a frame that starts on it, so
    their mutual order cannot change what any of them senses (3).

    A strobe deadline is no event: strobe and early-ACK ends check it and
    time out when it is before their tick, as if it ranked 2. A block-ACK
    timeout is pushed only once the data frame or its block ACK is lost."""

    def __new__(cls, value: str, rank: int) -> EventKind:
        kind = object.__new__(cls)
        kind._value_ = value
        kind.rank = rank
        return kind

    PACKET_GENERATED = "packet_generated", 3
    POLL_START = "poll_start", 3
    STROBE_TX_END = "strobe_tx_end", 1
    EARLY_ACK_TX_END = "early_ack_tx_end", 1
    DATA_TX_END = "data_tx_end", 1
    ACK_TX_END = "ack_tx_end", 1
    BACKOFF_EXPIRED = "backoff_expired", 3
    BLOCK_ACK_TIMEOUT = "block_ack_timeout", 2
    CYCLE_BOUNDARY = "cycle_boundary", 0


# Members the event path reads, bound once: a read through an Enum class goes
# through EnumType.__getattr__ and costs about ten times a global's.
_SLEEP, _POLLING, _RX_PENDING = NodeMode.SLEEP, NodeMode.POLLING, NodeMode.RX_PENDING
_STROBE_SENDING, _AWAIT_EARLY_ACK = NodeMode.STROBE_SENDING, NodeMode.AWAIT_EARLY_ACK
_DATA_SENDING, _AWAIT_BLOCK_ACK = NodeMode.DATA_SENDING, NodeMode.AWAIT_BLOCK_ACK
_BACKOFF = NodeMode.BACKOFF
_RADIO_TX, _RADIO_RX = RadioState.TX, RadioState.RX
_RADIO_LISTEN, _RADIO_SLEEP = RadioState.LISTEN, RadioState.SLEEP
_STROBE, _EARLY_ACK = FrameKind.STROBE, FrameKind.EARLY_ACK
_DATA, _BLOCK_ACK = FrameKind.DATA, FrameKind.BLOCK_ACK
_PACKET_GENERATED, _POLL_START = EventKind.PACKET_GENERATED, EventKind.POLL_START
_STROBE_TX_END, _EARLY_ACK_TX_END = EventKind.STROBE_TX_END, EventKind.EARLY_ACK_TX_END
_DATA_TX_END, _ACK_TX_END = EventKind.DATA_TX_END, EventKind.ACK_TX_END
_BACKOFF_EXPIRED, _BLOCK_ACK_TIMEOUT = EventKind.BACKOFF_EXPIRED, EventKind.BLOCK_ACK_TIMEOUT
_CYCLE_BOUNDARY = EventKind.CYCLE_BOUNDARY
_DETERMINISTIC, _EXPONENTIAL = PollingKind.DETERMINISTIC, PollingKind.EXPONENTIAL
_DYNAMIC = PollingKind.DYNAMIC


@dataclass(frozen=True)
class RadioPowerProfile:
    """Draw per radio state, in milliwatts; mW times seconds gives mJ."""

    tx_mW: float = 65.0
    rx_mW: float = 29.0
    listen_mW: float = 29.0
    sleep_mW: float = 0.003

    def __post_init__(self) -> None:
        for name in ("tx_mW", "rx_mW", "listen_mW", "sleep_mW"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0")
        active_floor = min(self.tx_mW, self.rx_mW, self.listen_mW)
        if self.sleep_mW > 0 and active_floor < 100.0 * self.sleep_mW:
            raise ParameterError("active draw must be >= 100x sleep_mW")


@dataclass(frozen=True)
class MacParams:
    """Channel-access timing. Strobing is paced by early_ack_wait_s: after
    each strobe the sender listens that long for an early ACK before the
    next strobe goes out."""

    early_ack_wait_s: float = 0.002
    cca_slot_s: float = 0.001
    initial_backoff_slots: int = 16
    backoff_cap_slots: int = 128
    max_retries: int = 5
    strobe_timeout_s: float | None = None  # None: twice the mean poll interval

    def __post_init__(self) -> None:
        for name in ("early_ack_wait_s", "cca_slot_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0")
        if self.initial_backoff_slots < 1:
            raise ParameterError("initial_backoff_slots must be >= 1")
        if self.backoff_cap_slots < self.initial_backoff_slots:
            raise ParameterError("backoff_cap_slots below initial window")
        if self.max_retries < 0:
            raise ParameterError("max_retries must be >= 0")
        if self.strobe_timeout_s is not None and not 0 < self.strobe_timeout_s < math.inf:
            raise ParameterError("strobe_timeout_s must be finite and > 0 when set")


@dataclass(frozen=True)
class LowLevelConfig:
    arrival: ArrivalModel
    polling: PollingDistribution
    node_count: int = 10
    packets_per_node: int = 20
    bit_rate_bps: float = 18780.0
    frames: FrameSpec = field(default_factory=FrameSpec)
    radio: RadioPowerProfile = field(default_factory=RadioPowerProfile)
    mac: MacParams = field(default_factory=MacParams)
    cycle_duration_s: float = 10.0
    cv_threshold: float = 0.8
    stagger_arrival_phase: bool = True
    idle_horizon_s: float = 100.0
    max_events: int = 10_000_000

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ParameterError("need the sink plus at least one source")
        if self.packets_per_node < 0:
            raise ParameterError("packets_per_node must be >= 0")
        for name in ("bit_rate_bps", "cycle_duration_s", "idle_horizon_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0")
        if not self.cv_threshold > 0:
            raise ParameterError("cv_threshold must be > 0")
        # a wake window is one CCA slot and wake windows never overlap, so a
        # shorter poll mean cannot be honoured and only floods the schedule
        if self.polling.mean_interval_s < self.mac.cca_slot_s:
            raise ParameterError("polling mean_interval_s must be >= mac.cca_slot_s")
        if self.max_events < 1:
            raise ParameterError("max_events must be >= 1")

    @property
    def strobe_timeout_resolved_s(self) -> float:
        if self.mac.strobe_timeout_s is not None:
            return self.mac.strobe_timeout_s
        return 2.0 * self.polling.mean_interval_s


@dataclass(frozen=True, slots=True)
class Packet:
    node_id: int
    seq_no: int
    created: int


@dataclass(slots=True, eq=False)
class Frame:
    """One transmission occupying the ticks [start, end) on the shared channel."""

    sender: int
    target: int
    kind: FrameKind
    start: int
    end: int
    packets: tuple[Packet, ...] = ()
    collided: bool = False


class Channel:
    """Single shared medium. Any temporal overlap destroys every frame
    involved; a frame may be registered ahead of its start time."""

    def __init__(self) -> None:
        self._active: list[Frame] = []
        self.collision_count = 0
        self.frames_sent = 0

    def register(self, frame: Frame) -> None:
        for other in self._active:
            if other.start < frame.end and frame.start < other.end:
                if not other.collided:
                    other.collided = True
                    self.collision_count += 1
                if not frame.collided:
                    frame.collided = True
                    self.collision_count += 1
        self._active.append(frame)
        self.frames_sent += 1

    def resolve(self, frame: Frame) -> bool:
        """Remove a finished frame; True when it survived un-collided."""
        self._active.remove(frame)
        return not frame.collided

    def activity_overlapping(self, start: int, end: int) -> bool:
        for f in self._active:
            if f.start < end and start < f.end:
                return True
        return False


@dataclass(slots=True, eq=False)
class _Node:
    node_id: int
    mode: NodeMode = NodeMode.SLEEP
    radio: RadioState = RadioState.SLEEP
    radio_since: int = 0
    residency: list = field(default_factory=lambda: [0] * len(RadioState))
    queue: deque = field(default_factory=deque)
    retry_count: int = 0
    head_sent: bool = False
    lock: Frame | None = None
    strobe_tx: int = 0
    strobe_count: int = 0
    timeout_at: int | None = None  # the strobe train's or block ACK's deadline
    train_start: int = 0  # the first strobe start of the node's latest train
    backoff_until: int = 0
    draw_window: int = 0
    draw_cursor: int = 0
    draw_block: list = field(default_factory=list)
    draw_state: dict | None = None


@dataclass(frozen=True)
class LowLevelResult:
    total_energy_mJ: float
    mean_delay_s: float
    generated: int
    delivered: int
    dropped: int
    collisions: int
    retransmissions: int
    duration_s: float
    poll_count: int
    strobe_count: int
    strobe_energy_mJ: float
    superpacket_size_histogram: dict[int, int]
    per_node_time_s: dict[int, float]
    per_node_energy_mJ: dict[int, float]
    polling_switches: tuple[tuple[float, PollingKind, PollingKind], ...]
    informative_cycles: int
    deterministic_selections: int
    exponential_selections: int
    final_polling_kind: PollingKind
    event_count: int
    seed: int


class _Simulation:
    def __init__(self, config: LowLevelConfig, seed: int,
                 timelines: list[ArrivalTimeline], trace=None) -> None:
        self.cfg = config
        self.seed = seed
        self.trace = trace
        self.channel = Channel()
        self.nodes = [_Node(node_id=i) for i in range(config.node_count)]
        self.sink = self.nodes[0]
        self.heap: list[tuple] = []  # (tick, rank, node_id, seq, kind, item)
        self.seq = 0
        self.now = 0
        self.event_count = 0

        self.poll_rng = substream(seed, 0, "polling")
        self.backoff_rng = {n.node_id: substream(seed, n.node_id, "backoff")
                            for n in self.nodes[1:]}

        fr = config.frames
        rate = config.bit_rate_bps
        self.strobe_air = _ticks(airtime(fr.preamble_strobe_bytes, rate))
        self.early_ack_air = _ticks(airtime(fr.early_ack_bytes, rate))
        self.block_ack_air = _ticks(airtime(fr.ack_bytes, rate))
        self.data_air = {n: _ticks(airtime(fr.superpacket_bytes(n), rate))
                         for n in range(1, fr.max_concat + 1)}
        self.slot = _ticks(config.mac.cca_slot_s)
        self.ea_wait = _ticks(config.mac.early_ack_wait_s)
        self.strobe_cycle = self.ea_wait + self.strobe_air
        self.strobe_timeout = _ticks(config.strobe_timeout_resolved_s)
        self.poll_mean = _ticks(config.polling.mean_interval_s)
        self.cycle = _ticks(config.cycle_duration_s)
        self.idle_horizon = _ticks(config.idle_horizon_s)

        self.current_polling = (_DETERMINISTIC
                                if config.polling.kind is _DYNAMIC
                                else config.polling.kind)
        self.cv_window = CvWindow(cycle_duration_s=config.cycle_duration_s)
        self.received: set[tuple[int, int]] = set()
        self.delays: list[int] = []
        self.superpacket_sizes: dict[int, int] = {}
        self.switches: list[tuple[int, PollingKind, PollingKind]] = []
        self.informative_cycles = 0
        self.det_selections = 0
        self.exp_selections = 0
        self.poll_count = 0
        self.delivered = 0
        self.dropped = 0
        self.retransmissions = 0
        self.generated = 0
        self.pending = 0
        self.expected = sum(len(tl) for tl in timelines)
        arrivals = [(_ticks(t), tl.node_id, i)
                    for tl in timelines for i, t in enumerate(tl.timestamps_s)]
        self.arrival_ticks = sorted(tick for tick, _, _ in arrivals)
        self.next_poll = 0
        self.next_cycle: int | None = None

        for tick, node_id, i in arrivals:
            self._push(tick, node_id, _PACKET_GENERATED,
                       Packet(node_id, i, tick))
        self._schedule_poll(0)
        if config.polling.kind is _DYNAMIC:
            self.next_cycle = self.cycle
            self._push(self.cycle, 0, _CYCLE_BOUNDARY)

    # -- plumbing ---------------------------------------------------------

    def _push(self, tick: int, node_id: int, kind: EventKind,
              item: Frame | Packet | None = None) -> None:
        self.seq += 1
        heappush(self.heap, (tick, kind.rank, node_id, self.seq, kind, item))

    def _charge(self, node: _Node, state: RadioState, until: int) -> None:
        span = until - node.radio_since
        if span < 0:
            raise SimulationIntegrityError(
                f"node {node.node_id}: charge of {span} ticks ends before it starts")
        node.residency[state.index] += span
        node.radio_since = until

    def _settle(self, node: _Node, now: int) -> None:
        self._charge(node, node.radio, now)

    # -- sender side ------------------------------------------------------

    def _begin_access(self, now: int, node: _Node) -> None:
        """Clear-channel assessment over one slot, then either the strobe
        train or a backoff. CCA is ideal: anything on the air during the
        assessment window is detected."""
        self._settle(node, now)
        cca_end = now + self.slot
        self._charge(node, _RADIO_LISTEN, cca_end)
        if self.channel.activity_overlapping(now, cca_end):
            self._start_backoff(now, node)
            return
        node.mode = _STROBE_SENDING
        node.radio = _RADIO_LISTEN
        strobe = Frame(node.node_id, 0, _STROBE,
                       cca_end, cca_end + self.strobe_air)
        self.channel.register(strobe)
        self._push(strobe.end, node.node_id, _STROBE_TX_END, strobe)
        node.timeout_at = cca_end + self.strobe_timeout
        node.train_start = cca_end

    def _draw_backoff_slots(self, node: _Node) -> int:
        """Backoff slots for the node's next attempt, uniform on 1..window,
        where the window doubles with each retry up to the cap. The values
        are those of one scalar `integers(0, window)` draw per call from the
        node's own substream, plus one, but are drawn `_DRAW_BLOCK` at a
        time: a block draw gives the same values and end state as that many
        scalar draws.

        Invariant: `draw_state` is the generator state from just before
        `draw_block` was drawn with `draw_window`, and its first
        `draw_cursor` values are the ones handed out. When the window
        changes with values still unused, restoring that state and drawing
        `draw_cursor` values of the old window leaves the generator where
        the scalar draws would have, and the next block starts there. The
        backoff replay reads a block straight and calls this at its end."""
        window = min(self.cfg.mac.initial_backoff_slots << node.retry_count,
                     self.cfg.mac.backoff_cap_slots)
        cursor = node.draw_cursor
        if window != node.draw_window or cursor == len(node.draw_block):
            rng = self.backoff_rng[node.node_id]
            if cursor < len(node.draw_block):
                rng.bit_generator.state = node.draw_state
                rng.integers(1, node.draw_window + 1, size=cursor)
            node.draw_state = rng.bit_generator.state
            node.draw_block = rng.integers(1, window + 1, size=_DRAW_BLOCK).tolist()
            node.draw_window = window
            cursor = 0
        node.draw_cursor = cursor + 1
        return node.draw_block[cursor]

    def _start_backoff(self, now: int, node: _Node) -> None:
        node.mode = _BACKOFF
        node.radio = _RADIO_SLEEP
        node.backoff_until = now + self._draw_backoff_slots(node) * self.slot
        self._push(node.backoff_until, node.node_id, _BACKOFF_EXPIRED)

    def _enter_retry(self, now: int, node: _Node) -> None:
        node.lock = None
        self._settle(node, now)
        node.retry_count += 1
        if node.retry_count > self.cfg.mac.max_retries:
            head = node.queue.popleft()
            if (head.node_id, head.seq_no) not in self.received:
                self.dropped += 1
                self.pending -= 1
            node.retry_count = 0
            node.head_sent = False
            if node.queue:
                self._begin_access(now, node)
            else:
                node.mode = _SLEEP
                node.radio = _RADIO_SLEEP
        else:
            self._start_backoff(now, node)

    # -- sink side --------------------------------------------------------

    def _schedule_poll(self, now: int, floor: int = 0) -> None:
        """Arm the next poll. A draw shorter than an already-paid wake
        window is floored to the window end: wake windows never overlap."""
        if self.current_polling is _DETERMINISTIC:
            interval = self.poll_mean
        else:
            mean_s = self.cfg.polling.mean_interval_s
            interval = _ticks(float(self.poll_rng.exponential(mean_s)))
        self.next_poll = max(now + interval, floor)
        self._push(self.next_poll, 0, _POLL_START)

    # -- event handlers ---------------------------------------------------

    def _on_packet_generated(self, now: int, node_id: int, packet: Packet) -> str:
        node = self.nodes[node_id]
        node.queue.append(packet)
        self.generated += 1
        self.pending += 1
        if node.mode is _SLEEP:
            self._begin_access(now, node)
        return f"queue={len(node.queue)}"

    def _on_poll_start(self, now: int, node_id: int, item: None) -> str:
        sink = self.sink
        if now != self.next_poll:
            return "stale"
        busy = self.channel.activity_overlapping(now, now + self.slot)
        if sink.mode is _SLEEP:
            self._settle(sink, now)
            self.poll_count += 1
            if busy:
                sink.mode = _POLLING
                sink.radio = _RADIO_LISTEN
                self._schedule_poll(now)
            else:
                # stays asleep; the wake window is still paid for
                self._charge(sink, _RADIO_LISTEN, now + self.slot)
                self._schedule_poll(now, floor=now + self.slot)
            return "wake busy" if busy else "wake idle"
        # safety re-poll while already awake: hold on if the air is live,
        # otherwise give up on whoever went quiet and sleep again
        if busy:
            self._schedule_poll(now)
            return "hold"
        self._settle(sink, now)
        sink.mode = _SLEEP
        sink.radio = _RADIO_SLEEP
        self._schedule_poll(now)
        return "give up"

    def _on_strobe_tx_end(self, now: int, node_id: int, strobe: Frame) -> str:
        node = self.nodes[node_id]
        if node.mode is not _STROBE_SENDING:
            raise SimulationIntegrityError(
                f"strobe end for node {node.node_id} in mode {node.mode}")
        delivered = self.channel.resolve(strobe)
        # _charge inlined: listening up to the strobe, then its airtime
        listen = strobe.start - node.radio_since
        if listen < 0:
            raise SimulationIntegrityError(
                f"node {node.node_id}: charge of {listen} ticks ends before it starts")
        air = now - strobe.start
        node.residency[_RADIO_LISTEN.index] += listen
        node.residency[_RADIO_TX.index] += air
        node.radio_since = now
        node.strobe_tx += air
        node.strobe_count += 1

        sink = self.sink
        if (delivered
                and sink.mode in (_POLLING, _RX_PENDING)
                and sink.radio is not _RADIO_TX):
            self._settle(sink, now)
            sink.mode = _RX_PENDING
            sink.radio = _RADIO_TX
            ea = Frame(0, node.node_id, _EARLY_ACK,
                       now, now + self.early_ack_air)
            self.channel.register(ea)
            self._push(ea.end, 0, _EARLY_ACK_TX_END, ea)
            node.mode = _AWAIT_EARLY_ACK
            node.lock = ea
            return "answered"
        if node.timeout_at < now:
            self._enter_retry(now, node)
            return "timed out"
        self._continue_strobing(now, node)
        return "delivered" if delivered else "collided"

    def _continue_strobing(self, now: int, node: _Node) -> None:
        """Register the next strobe; while nothing on the schedule can react,
        charge whole strobe cycles in bulk instead of simulating each.

        The sender is listening between strobes, so when an already-known
        transmission would overlap its next strobe it defers into a backoff
        instead of jamming it. Without this, two trains that once collide
        would share a period and collide on every strobe until both time
        out; with it, registration order picks a single winner. The strobe
        is registered before the jump is sized, so that its own train is
        part of the pattern the backoff replay reads."""
        next_start = now + self.ea_wait
        if self.channel.activity_overlapping(next_start, next_start + self.strobe_air):
            self._start_backoff(now, node)
            return
        strobe = Frame(node.node_id, 0, _STROBE,
                       next_start, next_start + self.strobe_air)
        self.channel.register(strobe)
        shift = self._train_jump(now, node) * self.strobe_cycle
        strobe.start += shift
        strobe.end += shift
        self._push(strobe.end, node.node_id, _STROBE_TX_END, strobe)

    def _steady_horizon(self, now: int) -> int | None:
        """None outside the quiet strobing regime, in which both fast paths
        run: the sink asleep and nothing on the air but clean strobe trains
        from senders whose deadlines lie past `now`. Inside it, the earliest
        tick at which the regime can change from the outside: a poll, a
        packet arrival, a polling-adaptation boundary or a strobe deadline.
        Backoff expiries are not in this set; _replay_backoffs finds the
        first one that can change the regime.

        Only a strobing sender owns a strobe, and inside the regime each
        strobing sender owns exactly one registered strobe, so the frames
        give every deadline. A deadline on the `now` tick counts as passed.
        Seen from a strobe end it has not passed yet (EventKind), but then
        the horizon would be `now` and neither fast path could act."""
        if self.sink.mode is not _SLEEP:
            return None
        horizon = self.next_poll
        nodes = self.nodes
        for frame in self.channel._active:
            if frame.collided or frame.kind is not _STROBE:
                return None
            deadline = nodes[frame.sender].timeout_at
            if deadline <= now:
                return None
            if deadline < horizon:
                horizon = deadline
        if self.generated < len(self.arrival_ticks):
            horizon = min(horizon, self.arrival_ticks[self.generated])
        if self.next_cycle is not None:
            horizon = min(horizon, self.next_cycle)
        return horizon

    def _replay_backoffs(self, horizon: int) -> int:
        """Where the steady regime ends: the first backoff attempt, over all
        nodes in backoff, that could find the channel clear or would end
        past `horizon`; `horizon` if that comes first. Every earlier attempt
        is one the strobe trains make busy, and it is replayed as the
        step-by-step handler runs it: a slot of listening, then a backoff
        drawn from the node's own substream.

        Every train has the period strobe_cycle, so the CCA slot [t, t + slot)
        overlaps the train of a strobe that starts at s exactly when
        (t - a) % strobe_cycle < strobe_air + slot - 1, with a = s - slot + 1.
        That holds anywhere inside the steady regime: past the registered
        horizon, and while frames sit jumped ahead of their position. It
        does not hold before the train began: an attempt on or before the
        tick b of the CCA that began it does not see it, though the arc
        covers b when the slot is longer than the early-ACK wait. b is
        never after the current tick, so only the earliest pending attempts
        can fall on it, and only the earliest tick is tested arc by arc.
        So whether an attempt stops the regime depends on its tick alone,
        and the regime ends on the earliest tick on which any node's does.

        Most calls end at the earliest pending attempt, which then could
        find the channel clear or ends past the horizon. Otherwise the
        phases of the cycle that no arc covers are worked out once, and
        every later attempt is tested against them with one modulo: against
        the one gap, which is the usual case, or against the hull of all
        of them first.

        The nodes are walked one at a time, in the order of their next
        attempt, each straight through its block of drawn slots. A walk ends
        at the node's first attempt that stops the regime, or at its first
        attempt at or past the earliest stop found so far, and keeps only
        its first and last replayed ticks, its draw count and its block
        crossings. Each node then keeps its attempts before the earliest
        stop: the ones a replay of all nodes in time order makes. A walk
        that went past it counts its draws again up to it and hands the
        rest back, so the node's stream is as if they were never made. A
        replayed node is charged once and gets one new expiry event, in the
        order of its first replayed attempt; the expiries it supersedes are
        dropped when due."""
        nodes = self.nodes
        slot = self.slot
        period = self.strobe_cycle
        width = self.strobe_air + slot - 1
        end = horizon - slot + 1  # an attempt from here on ends past the horizon
        frames = self.channel._active
        earliest = min([n.backoff_until for n in nodes[1:] if n.mode is _BACKOFF],
                       default=horizon)
        if earliest >= end:
            return min(earliest, horizon)
        for f in frames:
            if ((earliest - f.start + slot - 1) % period < width
                    and earliest > nodes[f.sender].train_start - slot):
                break
        else:
            return earliest  # it could find the channel clear

        # the phases no arc covers, as (start, length), in the order of the arcs
        gaps = []
        starts = sorted([(f.start - slot + 1) % period for f in frames])
        prev = starts[-1] - period
        for a in starts:
            if a - prev > width:
                gaps.append((prev + width, a - prev - width))
            prev = a
        g0 = gaps[0][0] if gaps else 0
        hull = gaps[-1][0] + gaps[-1][1] - g0 if gaps else 0  # 0: every phase busy
        exact = len(gaps) < 2  # the hull is the one gap, or there is none

        stop = math.inf  # the earliest stopping tick found so far
        walks = []
        for first, node_id in sorted([(n.backoff_until, n.node_id) for n in nodes[1:]
                                      if n.mode is _BACKOFF]):
            if first >= stop:
                break  # and so is every later node's first attempt
            # the walk counts ticks u past `base`, a tick on which the first
            # gap starts: the phase is then one modulo, on small ints. The
            # gaps answer for every attempt after the earliest, which are
            # past the start of every train, and find an attempt on the
            # earliest tick busy, as the arcs did.
            phase = (first - g0) % period
            if first >= end or phase < hull and (exact or _in_gaps(first, gaps, period)):
                stop = first
                break
            base = first - phase
            u = phase
            bound = min(stop, end) - base
            node = nodes[node_id]
            # the node drew its pending slots with its current window, and
            # retry_count does not change in backoff: only a block end needs
            # _draw_backoff_slots
            block = first_block = node.draw_block
            start = node.draw_cursor
            # the walk reads the block through a list iterator: the pickle
            # hook __setstate__ moves one to an index in constant time, and
            # length_hint gives back how far it got
            draws = iter(block)
            draws.__setstate__(start)  # past the slots handed out
            used = -start  # draws made before this block, less its start cursor
            crossings = ()  # (draw, slots, block and cursor after it, state before it)
            while True:
                for slots in draws:
                    u += slots * slot
                    if u >= bound or u % period < hull and (
                            exact or _in_gaps(base + u, gaps, period)):
                        break
                else:
                    used += len(block)
                    node.draw_cursor = len(block)
                    undo = (block, node.draw_state,
                            self.backoff_rng[node_id].bit_generator.state)
                    slots = self._draw_backoff_slots(node)
                    block, cursor = node.draw_block, node.draw_cursor
                    crossings += ((used, slots, block, cursor, *undo),)
                    used += 1 - cursor
                    draws = iter(block)
                    draws.__setstate__(cursor)
                    u += slots * slot
                    if not (u >= bound or _in_gaps(base + u, gaps, period)):
                        continue
                break
            t = base + u
            cursor = len(block) - length_hint(draws)
            node.draw_cursor = cursor
            if t < stop:
                stop = t
            walks.append((node, first, used + cursor, t - slots * slot, t,
                          first_block, start, crossings))

        for node, t, kept, last, next_t, block, cursor, crossings in walks:
            if last >= stop:
                # a later node's stop cuts the walk back: count its draws
                # again up to that stop, and hand back the ones past it: the
                # block and states before the first unkept block crossing,
                # at the kept draws' cursor
                kept = 0
                pending = iter(crossings)
                crossing = next(pending, None)
                while t < stop:
                    last = t
                    if crossing is not None and crossing[0] == kept:
                        _, slots, block, cursor, *_ = crossing
                        crossing = next(pending, None)
                    else:
                        slots = block[cursor]
                        cursor += 1
                    kept += 1
                    t += slots * slot
                next_t = t
                node.draw_cursor = cursor
                if crossing is not None:
                    node.draw_block, node.draw_state, state = crossing[4:]
                    self.backoff_rng[node.node_id].bit_generator.state = state
                if not kept:
                    continue
            cca_end = last + slot
            listen = kept * slot
            asleep = cca_end - node.radio_since - listen
            if asleep < 0:
                raise SimulationIntegrityError(
                    f"node {node.node_id}: replayed sleep of {asleep} ticks")
            node.residency[_RADIO_SLEEP.index] += asleep
            node.residency[_RADIO_LISTEN.index] += listen
            node.radio_since = cca_end
            node.backoff_until = next_t
            self._push(next_t, node.node_id, _BACKOFF_EXPIRED)
        return min(stop, horizon)

    def _train_jump(self, now: int, node: _Node) -> int:
        """Whole strobe cycles of the node's train, from `now`, that end
        before the steady regime does; they are charged here in bulk and
        the caller moves the just-registered strobe ahead by as many. No
        other frame is touched: each train skips its own cycles at its own
        strobe end. Because no strobe is moved past the regime end, the
        registry is exact again whenever the regime ends."""
        horizon = self._steady_horizon(now)
        if horizon is None or (horizon - now) // self.strobe_cycle < 2:
            return 0  # no jump fits, so the replay would be wasted work
        cycles = (self._replay_backoffs(horizon) - now) // self.strobe_cycle - 1
        if cycles < 1:
            return 0
        mid = node.radio_since + cycles * self.ea_wait
        self._charge(node, _RADIO_LISTEN, mid)
        self._charge(node, _RADIO_TX, mid + cycles * self.strobe_air)
        node.strobe_tx += cycles * self.strobe_air
        node.strobe_count += cycles
        return cycles

    def _on_early_ack_tx_end(self, now: int, node_id: int, ea: Frame) -> str:
        sink = self.sink
        delivered = self.channel.resolve(ea)
        self._settle(sink, now)
        sink.radio = _RADIO_LISTEN
        target = self.nodes[ea.target]
        if target.lock is not ea:
            # the strober gave up before the answer finished
            return "unclaimed"
        target.lock = None
        if not delivered:
            self._settle(target, now)
            if target.timeout_at < now:
                self._enter_retry(now, target)
                return "garbled, retry"
            if self.channel.activity_overlapping(now, now + self.strobe_air):
                # whatever garbled the answer is still on the air
                self._start_backoff(now, target)
                return "garbled, deferring"
            target.mode = _STROBE_SENDING
            strobe = Frame(target.node_id, 0, _STROBE,
                           now, now + self.strobe_air)
            self.channel.register(strobe)
            self._push(strobe.end, target.node_id, _STROBE_TX_END, strobe)
            return "garbled, strobing on"
        # answer heard: the whole early ACK was reception, then data goes out
        self._charge(target, _RADIO_LISTEN, ea.start)
        self._charge(target, _RADIO_RX, now)
        n_packets = min(len(target.queue), self.cfg.frames.max_concat)
        payload = tuple(islice(target.queue, n_packets))
        data = Frame(target.node_id, 0, _DATA,
                     now, now + self.data_air[n_packets], payload)
        self.channel.register(data)
        self._push(data.end, target.node_id, _DATA_TX_END, data)
        target.mode = _DATA_SENDING
        target.radio = _RADIO_TX
        if target.head_sent:
            self.retransmissions += 1
        target.head_sent = True
        target.timeout_at = data.end + self.block_ack_air + 2 * self.slot
        return f"data x{n_packets}"

    def _on_data_tx_end(self, now: int, node_id: int, data: Frame) -> str:
        node = self.nodes[node_id]
        delivered = self.channel.resolve(data)
        self._settle(node, now)
        node.mode = _AWAIT_BLOCK_ACK
        node.radio = _RADIO_LISTEN
        if not delivered:
            # no block ACK will come
            self._push(node.timeout_at, node_id, _BLOCK_ACK_TIMEOUT)
            return "collided"
        sink = self.sink
        if sink.mode is not _RX_PENDING:
            raise SimulationIntegrityError(
                f"clean data frame with the sink in mode {sink.mode}")
        self._charge(sink, _RADIO_LISTEN, data.start)
        self._charge(sink, _RADIO_RX, now)
        fresh = 0
        for packet in data.packets:
            key = (packet.node_id, packet.seq_no)
            if key in self.received:
                continue
            self.received.add(key)
            self.delays.append(now - packet.created)
            self.cv_window.add(packet.created / TICKS_PER_S)
            self.delivered += 1
            self.pending -= 1
            fresh += 1
        k = len(data.packets)
        self.superpacket_sizes[k] = self.superpacket_sizes.get(k, 0) + 1
        ack = Frame(0, node.node_id, _BLOCK_ACK,
                    now, now + self.block_ack_air, data.packets)
        self.channel.register(ack)
        self._push(ack.end, 0, _ACK_TX_END, ack)
        sink.radio = _RADIO_TX
        return f"received x{k} ({fresh} new)"

    def _on_ack_tx_end(self, now: int, node_id: int, ack: Frame) -> str:
        sink = self.sink
        delivered = self.channel.resolve(ack)
        self._settle(sink, now)
        sink.mode = _SLEEP
        sink.radio = _RADIO_SLEEP
        self._schedule_poll(now)
        target = self.nodes[ack.target]
        if target.mode is not _AWAIT_BLOCK_ACK:
            return "lost"
        if not delivered:
            self._push(target.timeout_at, target.node_id, _BLOCK_ACK_TIMEOUT)
            return "lost"
        self._charge(target, _RADIO_LISTEN, ack.start)
        self._charge(target, _RADIO_RX, now)
        for _ in ack.packets:
            target.queue.popleft()
        target.retry_count = 0
        target.head_sent = False
        if target.queue:
            self._begin_access(now, target)
        else:
            target.mode = _SLEEP
            target.radio = _RADIO_SLEEP
        return f"confirmed x{len(ack.packets)}"

    def _on_backoff_expired(self, now: int, node_id: int, item: None) -> str:
        node = self.nodes[node_id]
        if node.mode is not _BACKOFF:
            raise SimulationIntegrityError(
                f"backoff expiry for node {node.node_id} in mode {node.mode}")
        if now != node.backoff_until:
            return "superseded"
        horizon = self._steady_horizon(now)
        if horizon is not None:
            # this is the earliest attempt of any node in backoff, so the
            # replay stops on it at once if it could succeed; assessments that
            # cannot are replayed instead of paying scheduler costs for each,
            # and a moved one is back on the heap
            self._replay_backoffs(horizon)
            if node.backoff_until != now:
                return "busy"
        self._begin_access(now, node)
        return "retrying" if node.retry_count else "accessing"

    def _on_block_ack_timeout(self, now: int, node_id: int, item: None) -> str:
        node = self.nodes[node_id]
        if node.mode is not _AWAIT_BLOCK_ACK:
            raise SimulationIntegrityError(
                f"block-ACK timeout for node {node.node_id} in mode {node.mode}")
        self._enter_retry(now, node)
        return "no block ack"

    def _on_cycle_boundary(self, now: int, node_id: int, item: None) -> str:
        estimate = cycle_cv(self.cv_window)
        detail = "uninformative"
        if estimate is not None:
            self.informative_cycles += 1
            choice = select_distribution(estimate.cv, self.cfg.cv_threshold)
            if choice is _EXPONENTIAL:
                self.exp_selections += 1
            else:
                self.det_selections += 1
            if choice is not self.current_polling:
                self.switches.append((now, self.current_polling, choice))
                self.current_polling = choice
            detail = f"cv={estimate.cv:.3f} -> {choice.value}"
        self.cv_window.clear()
        self.next_cycle = now + self.cycle
        self._push(self.next_cycle, 0, _CYCLE_BOUNDARY)
        return detail

    # -- main loop --------------------------------------------------------

    def _finished(self) -> bool:
        """With every packet generated and resolved: whether all nodes sleep."""
        return (self.sink.mode is _SLEEP
                and all(n.mode is _SLEEP and not n.queue for n in self.nodes[1:]))

    def run(self) -> LowLevelResult:
        heap, trace, limit = self.heap, self.trace, self.cfg.max_events
        expected, idle_horizon = self.expected, self.idle_horizon
        now = count = 0
        while heap:
            if not expected:
                if heap[0][0] > idle_horizon:
                    break
            elif self.pending == 0 and self.generated == expected and self._finished():
                break
            tick, _, node_id, seq, kind, item = heappop(heap)
            if tick < now:
                raise SimulationIntegrityError(
                    f"event at tick {tick} before current tick {now}")
            now = tick
            count += 1
            if count > limit:
                raise EventLimitError(f"exceeded {limit} events "
                                      f"at t={tick / TICKS_PER_S} s")
            detail = kind.handler(self, tick, node_id, item)
            if trace is not None:
                trace.writerow([repr(tick / TICKS_PER_S), seq, node_id,
                                kind.value, detail])
        self.now, self.event_count = now, count
        return self._build_result()

    def _build_result(self) -> LowLevelResult:
        end = max([self.now, self.idle_horizon if self.expected == 0 else 0]
                  + [n.radio_since for n in self.nodes])
        for node in self.nodes:
            self._settle(node, end)

        radio = self.cfg.radio
        # in RadioState.index order
        power = (radio.tx_mW, radio.rx_mW, radio.listen_mW, radio.sleep_mW)
        per_node_time: dict[int, float] = {}
        per_node_energy: dict[int, float] = {}
        for node in self.nodes:
            total = sum(node.residency)
            if total != end:
                raise SimulationIntegrityError(
                    f"node {node.node_id} accounts for {total} of {end} ticks")
            per_node_time[node.node_id] = total / TICKS_PER_S
            per_node_energy[node.node_id] = math.fsum(
                ticks * mW for ticks, mW in zip(node.residency, power)) / TICKS_PER_S

        if not (self.delivered + self.dropped == self.generated == self.expected
                or self.expected == 0):
            raise SimulationIntegrityError(
                f"{self.delivered} delivered + {self.dropped} dropped "
                f"!= {self.generated} generated")

        return LowLevelResult(
            total_energy_mJ=math.fsum(per_node_energy.values()),
            mean_delay_s=(sum(self.delays) / (len(self.delays) * TICKS_PER_S)
                          if self.delays else 0.0),
            generated=self.generated,
            delivered=self.delivered,
            dropped=self.dropped,
            collisions=self.channel.collision_count,
            retransmissions=self.retransmissions,
            duration_s=end / TICKS_PER_S,
            poll_count=self.poll_count,
            strobe_count=sum(n.strobe_count for n in self.nodes),
            strobe_energy_mJ=(sum(n.strobe_tx for n in self.nodes)
                              * self.cfg.radio.tx_mW / TICKS_PER_S),
            superpacket_size_histogram=dict(sorted(self.superpacket_sizes.items())),
            per_node_time_s=per_node_time,
            per_node_energy_mJ=per_node_energy,
            polling_switches=tuple((tick / TICKS_PER_S, old, new)
                                   for tick, old, new in self.switches),
            informative_cycles=self.informative_cycles,
            deterministic_selections=self.det_selections,
            exponential_selections=self.exp_selections,
            final_polling_kind=self.current_polling,
            event_count=self.event_count,
            seed=self.seed,
        )


# the method each event kind runs, read once per event by run()
for _kind in EventKind:
    _kind.handler = getattr(_Simulation, "_on_" + _kind.value)
del _kind


def _default_timelines(config: LowLevelConfig, seed: int) -> list[ArrivalTimeline]:
    timelines = []
    for node_id in range(1, config.node_count):
        rng = substream(seed, node_id, "arrivals")
        tl = generate_arrivals(config.arrival, count_limit=config.packets_per_node,
                               rng=rng, node_id=node_id)
        if config.stagger_arrival_phase and tl.timestamps_s:
            phase_rng = substream(seed, node_id, "phase")
            offset = float(phase_rng.uniform(0.0, config.arrival.mean_interval_s))
            tl = ArrivalTimeline(node_id=node_id, model=tl.model,
                                 timestamps_s=tuple(offset + t for t in tl.timestamps_s))
        timelines.append(tl)
    return timelines


def run_low_level(config: LowLevelConfig, seed: int,
                  timelines: list[ArrivalTimeline] | None = None,
                  trace=None) -> LowLevelResult:
    """One radio-level run.

    timelines overrides the generated per-source arrivals (node ids must lie
    in 1..node_count-1); trace, when given, is a csv.writer-compatible
    object that receives one row per processed event.
    """
    if timelines is None:
        timelines = _default_timelines(config, seed)
    else:
        ids = [tl.node_id for tl in timelines]
        if len(set(ids)) != len(ids):
            raise ParameterError("duplicate node_id in timelines")
        if any(not 1 <= i < config.node_count for i in ids):
            raise ParameterError("timeline node_id outside 1..node_count-1")
    if trace is not None:
        trace.writerow(["time_s", "seq", "node_id", "kind", "detail"])
    return _Simulation(config, seed, timelines, trace).run()
