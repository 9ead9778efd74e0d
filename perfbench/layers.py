"""Per-layer tracing from outside the program.

The tracer replaces public functions of adpsim, in the module namespaces
the program calls them through, with wrappers that record one span per
call: name, start, end and the index of the enclosing span. Spans stay in
memory and are reduced to per-layer metrics after each traced round.

The layers are the package's modules. "Busy" is the summed duration of a
layer's spans; "self" is that minus the time covered by the spans of the
layers it calls (traffic and core inside the simulators, the simulators
inside the sweep, stats inside compare and report).
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter

# (module, attribute, span name). A simulator imports the traffic and core
# functions into its own namespace, so those are wrapped where they are
# looked up, not where they are defined.
PATCHES = (
    ("highsim", "generate_arrivals", "traffic.generate_arrivals"),
    ("lowsim", "generate_arrivals", "traffic.generate_arrivals"),
    ("lowsim", "cycle_cv", "traffic.cycle_cv"),
    ("highsim", "substream", "core.substream"),
    ("lowsim", "substream", "core.substream"),
    ("highsim", "run_high_level", "highsim.run_high_level"),
    ("cli", "run_high_level", "highsim.run_high_level"),
    ("lowsim", "run_low_level", "lowsim.run_low_level"),
    ("cli", "run_low_level", "lowsim.run_low_level"),
    ("cli", "summarize", "stats.summarize"),
    ("cli", "trend_direction", "stats.trend_direction"),
    ("cli", "spearman_rho", "stats.spearman_rho"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "write_runs_csv", "cli.write_runs_csv"),
    ("cli", "read_runs_csv", "cli.read_runs_csv"),
    ("cli", "compare_runs", "cli.compare_runs"),
    ("cli", "format_report", "cli.format_report"),
)

COUNTS = (
    "traffic.arrivals", "core.substream_calls",
    "highsim.runs", "highsim.polls", "highsim.superpackets",
    "lowsim.runs", "lowsim.heap_events", "lowsim.strobes", "lowsim.polls",
    "lowsim.collisions", "lowsim.retransmissions", "lowsim.delivered",
    "lowsim.dropped", "lowsim.superpackets", "stats.calls", "cli.rows",
)

# every per-layer metric with its unit, in BENCHMARK.json order
UNITS = {
    "traffic.busy_s": "s", "traffic.arrivals": "count",
    "core.substream_calls": "count", "core.substream_s": "s",
    "highsim.runs": "count", "highsim.polls": "count",
    "highsim.superpackets": "count", "highsim.self_s": "s",
    "highsim.us_per_poll": "us",
    "lowsim.runs": "count", "lowsim.heap_events": "count",
    "lowsim.strobes": "count", "lowsim.polls": "count",
    "lowsim.collisions": "count", "lowsim.retransmissions": "count",
    "lowsim.delivered": "count", "lowsim.dropped": "count",
    "lowsim.superpackets": "count", "lowsim.self_s": "s",
    "lowsim.us_per_event": "us", "lowsim.sim_s": "s",
    "lowsim.sim_s_per_host_s": "s/s",
    "stats.calls": "count", "stats.busy_s": "s",
    "cli.sweep_self_s": "s", "cli.csv_write_s": "s", "cli.csv_read_s": "s",
    "cli.compare_s": "s", "cli.report_s": "s", "cli.rows": "count",
    "trace.overhead_s": "s",
}


def _count_result(counts: dict, name: str, result) -> None:
    """Work counts read off the value a wrapped function returned."""
    if name == "traffic.generate_arrivals":
        counts["traffic.arrivals"] += len(result)
    elif name == "core.substream":
        counts["core.substream_calls"] += 1
    elif name == "highsim.run_high_level":
        counts["highsim.runs"] += 1
        counts["highsim.polls"] += result.poll_count
        counts["highsim.superpackets"] += sum(result.superpacket_size_histogram.values())
    elif name == "lowsim.run_low_level":
        counts["lowsim.runs"] += 1
        counts["lowsim.heap_events"] += result.event_count
        counts["lowsim.strobes"] += result.strobe_count
        counts["lowsim.polls"] += result.poll_count
        counts["lowsim.collisions"] += result.collisions
        counts["lowsim.retransmissions"] += result.retransmissions
        counts["lowsim.delivered"] += result.delivered
        counts["lowsim.dropped"] += result.dropped
        counts["lowsim.superpackets"] += sum(result.superpacket_size_histogram.values())
        counts["lowsim.sim_s"] += result.duration_s
    elif name.startswith("stats."):
        counts["stats.calls"] += 1
    elif name == "cli.run_sweep":
        counts["cli.rows"] += len(result)


class Tracer:
    """Spans of the traced rounds, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.rounds: list[list[tuple[str, float, float, int]]] = []
        self._spans: list = []
        self._stack: list[int] = []
        self._counts: dict = {}

    def wrap(self, fn, name: str):
        """`fn` recording one span per call under `name`."""
        def traced(*args, **kwargs):
            index = len(self._spans)
            self._spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._spans[index] = (name, start, end, parent)
            _count_result(self._counts, name, result)
            return result
        return traced

    @contextlib.contextmanager
    def traced_round(self):
        """Install the wrappers for one round and remove them after it."""
        self._spans = []
        self._counts = dict.fromkeys(COUNTS, 0)
        self._counts["lowsim.sim_s"] = 0.0
        saved = []
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(f"adpsim.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self.rounds.append(self._spans)

    def round_metrics(self, speed: float) -> dict:
        """Per-layer metrics of the round just traced. Host times are
        multiplied by `speed`, the round's host-speed correction."""
        spans = self.rounds[-1]
        duration = [(end - start) * speed for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, _, _, _) in enumerate(spans):
            busy[name] = busy.get(name, 0.0) + duration[i]
            own[name] = own.get(name, 0.0) + duration[i] - child_time[i]

        def layer(prefix: str, table: dict) -> float:
            return sum((v for k, v in table.items() if k.startswith(prefix)), 0.0)

        m = dict(self._counts)
        m["traffic.busy_s"] = layer("traffic.", busy)
        m["core.substream_s"] = busy.get("core.substream", 0.0)
        m["highsim.self_s"] = own.get("highsim.run_high_level", 0.0)
        m["highsim.us_per_poll"] = (m["highsim.self_s"] / m["highsim.polls"] * 1e6
                                    if m["highsim.polls"] else 0.0)
        m["lowsim.self_s"] = own.get("lowsim.run_low_level", 0.0)
        m["lowsim.us_per_event"] = (m["lowsim.self_s"] / m["lowsim.heap_events"] * 1e6
                                    if m["lowsim.heap_events"] else 0.0)
        low_busy = busy.get("lowsim.run_low_level", 0.0)
        m["lowsim.sim_s_per_host_s"] = m["lowsim.sim_s"] / low_busy if low_busy else 0.0
        m["stats.busy_s"] = layer("stats.", busy)
        m["cli.sweep_self_s"] = own.get("cli.run_sweep", 0.0)
        m["cli.csv_write_s"] = busy.get("cli.write_runs_csv", 0.0)
        m["cli.csv_read_s"] = busy.get("cli.read_runs_csv", 0.0)
        m["cli.compare_s"] = own.get("cli.compare_runs", 0.0)
        m["cli.report_s"] = own.get("cli.format_report", 0.0)
        return m


def combine_rounds(per_round: list[dict]) -> tuple[dict, bool]:
    """Median of each timing over the traced rounds. Counts come from the
    first round; the flag says whether every round repeated them exactly."""
    first = per_round[0]
    steady = all(r[k] == first[k] for r in per_round for k in COUNTS)
    out = {}
    for key in first:
        if key in COUNTS:
            out[key] = first[key]
        else:
            out[key] = statistics.median(r[key] for r in per_round)
    return out, steady
