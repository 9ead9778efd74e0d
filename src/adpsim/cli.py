"""Command line front end: single runs at either fidelity, the dual-fidelity
sweep over a grid of mean poll intervals, trend comparison between the two
models, and a per-cell summary report."""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import (
    ArrivalKind,
    ArrivalModel,
    FrameSpec,
    HighLevelEnergyModel,
    ParameterError,
    PollingDistribution,
    PollingKind,
)
from .highsim import HighLevelConfig, HighLevelResult, run_high_level
from .lowsim import (LowLevelConfig, LowLevelResult, MacParams,
                     RadioPowerProfile, run_low_level)
from .stats import RunMetrics, Trend, spearman_rho, summarize, trend_direction

RUNS_CSV_HEADER = [
    "fidelity", "arrival", "polling", "mean_poll_interval_s", "run", "seed",
    "energy_mJ", "mean_delay_s", "delivered", "dropped", "collisions",
    "retransmissions",
]

# which polling distribution the adaptive rule is meant to converge to for
# each traffic shape
MATCHED_POLLING = {
    "cbr": "deterministic",
    "poisson": "exponential",
    "bursty": "dynamic",
}

_REL_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SweepSection:
    """[sweep]: the master seed, the poll-interval grid and the runs per cell."""

    master_seed: int = 12345
    poll_intervals_s: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0,
                                           6.0, 7.0, 8.0, 9.0, 10.0)
    high_runs_per_cell: int = 20
    low_runs_per_cell: int = 4
    include_high: bool = True
    include_low: bool = True

    def __post_init__(self) -> None:
        # include_high/include_low turn a fidelity off; zero runs would
        # silently leave its rows out
        for name in ("high_runs_per_cell", "low_runs_per_cell"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")


# A section field that a simulator config also has takes its default from
# there: a dataclass keeps each field's default as a class attribute.
@dataclass(frozen=True)
class HighSection:
    """[high]: the byte-cost model's horizon and mean inter-arrival time."""

    horizon_s: float = HighLevelConfig.horizon_s
    arrival_mean_s: float = 5.0


@dataclass(frozen=True)
class LowSection:
    """[low]: the radio model's network, traffic and adaptive-polling cycle."""

    arrival_mean_s: float = 50.0
    node_count: int = LowLevelConfig.node_count
    packets_per_node: int = LowLevelConfig.packets_per_node
    bit_rate_bps: float = LowLevelConfig.bit_rate_bps
    cycle_duration_s: float = LowLevelConfig.cycle_duration_s
    cv_threshold: float = LowLevelConfig.cv_threshold
    stagger_arrival_phase: bool = LowLevelConfig.stagger_arrival_phase
    idle_horizon_s: float = LowLevelConfig.idle_horizon_s


@dataclass(frozen=True)
class BurstySection:
    """[bursty]: the ON/OFF source's dwell means and in-burst rate factor."""

    on_mean_s: float = ArrivalModel.burst_on_mean_s
    off_mean_s: float = ArrivalModel.burst_off_mean_s
    rate_factor: float = ArrivalModel.burst_rate_factor


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of the dual-fidelity sweep, one field per INI section,
    with defaults matching the reference scenario. The [frames], [energy],
    [radio] and [mac] sections are the classes the simulators read, so the
    two models share one copy of each of those assumptions."""

    sweep: SweepSection = field(default_factory=SweepSection)
    high: HighSection = field(default_factory=HighSection)
    low: LowSection = field(default_factory=LowSection)
    frames: FrameSpec = field(default_factory=FrameSpec)
    energy: HighLevelEnergyModel = field(default_factory=HighLevelEnergyModel)
    radio: RadioPowerProfile = field(default_factory=RadioPowerProfile)
    mac: MacParams = field(default_factory=MacParams)
    bursty: BurstySection = field(default_factory=BurstySection)

    def arrival_model(self, kind: str, fidelity: str) -> ArrivalModel:
        mean = (self.high.arrival_mean_s if fidelity == "high"
                else self.low.arrival_mean_s)
        return ArrivalModel(
            kind=ArrivalKind(kind),
            mean_interval_s=mean,
            burst_on_mean_s=self.bursty.on_mean_s,
            burst_off_mean_s=self.bursty.off_mean_s,
            burst_rate_factor=self.bursty.rate_factor,
        )

    def high_config(self, arrival: str, polling: str,
                    interval_s: float) -> HighLevelConfig:
        return HighLevelConfig(
            arrival=self.arrival_model(arrival, "high"),
            polling=PollingDistribution(PollingKind(polling), interval_s),
            horizon_s=self.high.horizon_s,
            frames=self.frames,
            energy=self.energy,
        )

    def low_config(self, arrival: str, polling: str,
                   interval_s: float) -> LowLevelConfig:
        low = self.low
        return LowLevelConfig(
            arrival=self.arrival_model(arrival, "low"),
            polling=PollingDistribution(PollingKind(polling), interval_s),
            node_count=low.node_count,
            packets_per_node=low.packets_per_node,
            bit_rate_bps=low.bit_rate_bps,
            frames=self.frames,
            radio=self.radio,
            mac=self.mac,
            cycle_duration_s=low.cycle_duration_s,
            cv_threshold=low.cv_threshold,
            stagger_arrival_phase=low.stagger_arrival_phase,
            idle_horizon_s=low.idle_horizon_s,
        )


def _parse_intervals(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ParameterError(f"cannot parse poll intervals {text!r}") from None
    if not values:
        raise ParameterError("poll_intervals_s is empty")
    return values


def load_experiment_config(path: str | None) -> ExperimentConfig:
    """Read an INI file whose sections are the fields of ExperimentConfig
    and whose keys are the field names of each section's class. Keys match
    regardless of case, since configparser lower-cases them (tx_mW)."""
    if path is None:
        return ExperimentConfig()
    # values are plain numbers and words, so '%' gets no meaning of its own
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        reason = str(exc).splitlines()[0]
        raise ParameterError(f"cannot read config file {path!r}: {reason}") from None
    if not read:
        raise ParameterError(f"cannot read config file {path!r}")
    classes = {f.name: f.default_factory for f in fields(ExperimentConfig)}
    sections = {}
    for section in parser.sections():
        if section not in classes:
            raise ParameterError(f"unknown config section [{section}]")
        keys = {f.name.lower(): f for f in fields(classes[section])}
        values = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ParameterError(f"unknown key {key!r} in [{section}]")
            values[keys[key].name] = _convert(keys[key].type, raw, parser,
                                              section, key)
        sections[section] = classes[section](**values)
    return ExperimentConfig(**sections)


def _convert(type_str, raw, parser, section, key):
    if type_str == "tuple[float, ...]":
        return _parse_intervals(raw)
    try:
        if type_str == "float | None":
            return None if raw.strip() == "" else float(raw)
        if type_str == "int":
            return int(raw)
        if type_str == "float":
            return float(raw)
        if type_str == "bool":
            return parser.getboolean(section, key)
    except ValueError:
        pass
    raise ParameterError(f"cannot parse {key!r} in [{section}]: {raw!r}")


def run_seed(master_seed: int, fidelity: str, arrival: str,
             interval_s: float, rep: int) -> int:
    """Per-run seed. The polling kind is deliberately left out so different
    polling distributions are compared on identical arrival realizations."""
    if master_seed < 0:
        raise ParameterError(f"master seed must be >= 0, got {master_seed}")
    interval_bits = int(np.float64(interval_s).view(np.uint64))
    ss = np.random.SeedSequence([int(master_seed), zlib.crc32(fidelity.encode()),
                                 zlib.crc32(arrival.encode()), interval_bits,
                                 int(rep)])
    return int(ss.generate_state(1, np.uint64)[0])


# the (arrivals, pollings) each model takes; its sweep runs every pair
_HIGH_KINDS = (("cbr", "poisson"), ("deterministic", "exponential"))
_LOW_KINDS = (("cbr", "poisson", "bursty"),
              ("deterministic", "exponential", "dynamic"))


class SweepCell(NamedTuple):
    """One (fidelity, arrival, polling, interval) cell of the sweep grid,
    with the config its runs share and one seed per run."""

    fidelity: str
    arrival: str
    polling: str
    interval_s: float
    config: HighLevelConfig | LowLevelConfig
    seeds: tuple[int, ...]

    def row(self, rep: int, res: HighLevelResult | LowLevelResult) -> RunMetrics:
        """The runs-CSV row of run `rep`, from either model's result."""
        if self.fidelity == "high":
            counts = (res.packet_count, res.undelivered_count, 0, 0)
        else:
            counts = (res.delivered, res.dropped, res.collisions,
                      res.retransmissions)
        return RunMetrics(self.fidelity, self.arrival, self.polling,
                          self.interval_s, rep, self.seeds[rep],
                          res.total_energy_mJ, res.mean_delay_s, *counts)


def sweep_cells(exp: ExperimentConfig) -> Iterator[SweepCell]:
    """Every cell of the sweep in run order: the byte-cost model's, then the
    radio model's, each by (arrival, polling) and then by interval."""
    sweep = exp.sweep
    models = (("high", sweep.include_high, _HIGH_KINDS, exp.high_config,
               sweep.high_runs_per_cell),
              ("low", sweep.include_low, _LOW_KINDS, exp.low_config,
               sweep.low_runs_per_cell))
    for fidelity, included, kinds, make_config, runs in models:
        if not included:
            continue
        for arrival, polling in product(*kinds):
            # constant arrivals under a fixed poll grid have no randomness at all
            one_run = (fidelity, arrival, polling) == ("high", "cbr", "deterministic")
            for interval in sweep.poll_intervals_s:
                config = make_config(arrival, polling, interval)
                seeds = tuple(run_seed(sweep.master_seed, fidelity, arrival,
                                       interval, rep)
                              for rep in range(1 if one_run else runs))
                yield SweepCell(fidelity, arrival, polling, interval, config,
                                seeds)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_cells(fn, cells, done=None) -> list:
    """[fn(cell) for cell in cells], on every CPU this process may use.

    With n of them (at most one per cell), this process runs cells[::n]
    itself, in order, and a pool of n - 1 worker processes runs the rest;
    with n = 1 no process is started. The share stays fixed, so the calls
    made in this process are the same on every call. `fn` must be a
    module-level function so that workers can unpickle it. After each of
    its own cells, this process passes to `done`, in cell order, that cell
    and every worker cell finished so far; the rest follow as they finish.
    An exception from any cell reaches the caller, and no worker outlives
    the call."""
    cells = list(cells)
    n = max(1, min(_usable_cpus(), len(cells)))
    results, jobs, pool = {}, {}, None

    def finish(i):
        if i in jobs:
            results[i] = jobs.pop(i).get()
        if done:
            done(cells[i])

    if n > 1:
        import multiprocessing  # costs set-up time; only a pool needs it
        pool = multiprocessing.Pool(n - 1)
    try:
        if pool is not None:
            jobs = {i: pool.apply_async(fn, (cell,))
                    for i, cell in enumerate(cells) if i % n}
        for i in range(0, len(cells), n):
            results[i] = fn(cells[i])
            for j in sorted([i] + [j for j, job in jobs.items() if job.ready()]):
                finish(j)
        for j in sorted(jobs):
            finish(j)
    except BaseException:
        if pool is not None:
            pool.terminate()
        raise
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return [results[i] for i in range(len(cells))]


def _cell_rows(cell: SweepCell) -> list[RunMetrics]:
    simulate = run_high_level if cell.fidelity == "high" else run_low_level
    return [cell.row(rep, simulate(cell.config, seed))
            for rep, seed in enumerate(cell.seeds)]


def run_sweep(exp: ExperimentConfig, progress=None) -> list[RunMetrics]:
    def done(cell):
        progress(f"{cell.fidelity} {cell.arrival}/{cell.polling} "
                 f"interval={cell.interval_s:g}")

    rows = [row for cell_rows in map_cells(_cell_rows, sweep_cells(exp),
                                           done if progress else None)
            for row in cell_rows]
    rows.sort(key=lambda r: (r.fidelity, r.arrival, r.polling,
                             r.mean_poll_interval_s, r.run))
    return rows


def write_runs_csv(path, rows: list[RunMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_CSV_HEADER)
        for r in rows:
            writer.writerow([r.fidelity, r.arrival, r.polling,
                             repr(r.mean_poll_interval_s), r.run, r.seed,
                             repr(r.energy_mJ), repr(r.mean_delay_s),
                             r.delivered, r.dropped, r.collisions,
                             r.retransmissions])


# how read_runs_csv parses each column of RUNS_CSV_HEADER
_RUNS_CSV_TYPES = (str, str, str, float, int, int, float, float, int, int,
                   int, int)


def read_runs_csv(path) -> list[RunMetrics]:
    rows: list[RunMetrics] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RUNS_CSV_HEADER:
            raise ParameterError(f"{path}: unexpected runs header {header!r}")
        for raw in reader:
            where = f"{path} line {reader.line_num}"
            if len(raw) != len(RUNS_CSV_HEADER):
                raise ParameterError(f"{where}: bad row {raw!r}")
            values = []
            for name, kind, cell in zip(RUNS_CSV_HEADER, _RUNS_CSV_TYPES, raw):
                try:
                    value = kind(cell)
                except ValueError:
                    raise ParameterError(
                        f"{where}: cannot parse {name} {cell!r}") from None
                # no run writes a nan or inf; one would print as a nan CI
                if kind is float and not math.isfinite(value):
                    raise ParameterError(f"{where}: {name} must be finite, "
                                         f"got {cell!r}")
                values.append(value)
            rows.append(RunMetrics(*values))
    return rows


@dataclass(frozen=True)
class Verdict:
    check: str
    subject: str
    status: str  # PASS / FAIL / SKIP
    detail: str

    def line(self) -> str:
        return f"{self.status:4s} {self.check} [{self.subject}]: {self.detail}"


def _cell_values(rows):
    cells: dict[tuple, list[RunMetrics]] = {}
    for r in rows:
        cells.setdefault(
            (r.fidelity, r.arrival, r.polling, r.mean_poll_interval_s),
            []).append(r)
    return cells


def _mean(values):
    return sum(values) / len(values)


def _half_width(values) -> float:
    """The 95% ci half-width; nan, which no comparison passes, for fewer
    than two values."""
    return summarize(values).ci_half_width if len(values) >= 2 else math.nan


_METRIC_GETTERS = {
    "energy": lambda r: r.energy_mJ,
    "delay": lambda r: r.mean_delay_s,
}


def _no_worse(value: float, rival: float) -> bool:
    """value <= rival up to the one tie rule of every ordering check: a
    relative 1e-9, plus 1e-12 absolute so that two zeros tie."""
    return value <= rival * (1 + _REL_TIE_TOL) + 1e-12


def _trend_verdict(check: str, subject: str, points, expected: Trend) -> Verdict:
    if len(points) < 3:
        return Verdict(check, subject, "SKIP", "fewer than 3 interval values")
    direction = trend_direction(points)
    rho = spearman_rho(points)
    status = "PASS" if direction is expected else "FAIL"
    return Verdict(check, subject, status,
                   f"rho={rho:+.3f} classified {direction.value}, "
                   f"expected {expected.value} "
                   f"(cells at intervals {points[0][0]:g}..{points[-1][0]:g})")


def _coerce_fidelity(rows: list[RunMetrics], fidelity: str) -> list[RunMetrics]:
    # each input slot is the authority for its fidelity: take the file's
    # matching block when it has one, otherwise adopt every row, so swapped
    # inputs are judged against the wrong expectations and fail loudly
    block = [r for r in rows if r.fidelity == fidelity]
    if block:
        return block
    return [replace(r, fidelity=fidelity) for r in rows]


def _require_complete(cells, grids) -> None:
    missing = [f"({fidelity}, {arrival}, {polling}, {interval:g})"
               for fidelity, (intervals, pairs) in grids.items()
               for arrival, polling in pairs for interval in intervals
               if (fidelity, arrival, polling, interval) not in cells]
    if missing:
        raise ParameterError("incomplete sweep, missing cells: "
                             + ", ".join(missing))


def compare_runs(high_rows: list[RunMetrics],
                 low_rows: list[RunMetrics]) -> tuple[list[Verdict], int]:
    """Trend and ordering checks across a pair of sweep CSVs.

    The two fidelities must disagree on the energy trend (falling with the
    poll interval in the byte-cost model, rising in the radio model) while
    agreeing that delay rises; within the byte-cost model exponential
    polling must be the cheaper choice and deterministic the faster one;
    and in the radio model the polling distribution matched to each traffic
    shape should be the best choice on both metrics."""
    if not high_rows:
        raise ParameterError("high-fidelity input has no runs")
    if not low_rows:
        raise ParameterError("low-fidelity input has no runs")
    rows = (_coerce_fidelity(high_rows, "high")
            + _coerce_fidelity(low_rows, "low"))
    cells = _cell_values(rows)
    # each model's sorted intervals and (arrival, polling) pairs
    grids = {fidelity: (sorted({k[3] for k in cells if k[0] == fidelity}),
                        sorted({(k[1], k[2]) for k in cells if k[0] == fidelity}))
             for fidelity in ("high", "low")}
    _require_complete(cells, grids)
    if not ({a for a, _ in grids["high"][1]} & {a for a, _ in grids["low"][1]}):
        raise ParameterError("no arrival model common to both inputs")
    means = {metric: {k: _mean([get(r) for r in v]) for k, v in cells.items()}
             for metric, get in _METRIC_GETTERS.items()}
    verdicts: list[Verdict] = []

    for fidelity, energy_trend in (("high", Trend.DECREASING),
                                   ("low", Trend.INCREASING)):
        intervals, pairs = grids[fidelity]
        for arrival, polling in pairs:
            if fidelity == "low" and MATCHED_POLLING.get(arrival) != polling:
                continue
            for metric, expected in (("energy", energy_trend),
                                     ("delay", Trend.INCREASING)):
                points = [(i, means[metric][(fidelity, arrival, polling, i)])
                          for i in intervals]
                verdicts.append(_trend_verdict(
                    f"{fidelity}-{metric}-vs-interval", f"{arrival}/{polling}",
                    points, expected))

    # within the byte-cost model, exponential polling can only merge more
    # packets per poll than the deterministic grid, never fewer
    intervals, pairs = grids["high"]
    energy, delay = means["energy"], means["delay"]
    for arrival, polling in pairs:
        if polling != "deterministic" or (arrival, "exponential") not in pairs:
            continue
        for interval in intervals:
            det = ("high", arrival, "deterministic", interval)
            exp_ = ("high", arrival, "exponential", interval)
            ok = (_no_worse(energy[exp_], energy[det])
                  and _no_worse(delay[det], delay[exp_]))
            verdicts.append(Verdict(
                "high-polling-order", f"{arrival}@{interval:g}",
                "PASS" if ok else "FAIL",
                f"energy exp {energy[exp_]:.1f} vs det {energy[det]:.1f} mJ, "
                f"delay det {delay[det]:.3f} vs exp {delay[exp_]:.3f} s"))

    verdicts.extend(_matching_verdicts(cells, means, *grids["low"]))
    exit_code = 1 if any(v.status == "FAIL" for v in verdicts) else 0
    return verdicts, exit_code


def _matching_verdicts(cells, means, intervals, pairs):
    verdicts = []
    for arrival, matched in MATCHED_POLLING.items():
        pollings = [p for a, p in pairs if a == arrival]
        reason = None
        if not pollings:
            reason = "not evaluated (no rows)"
        elif matched not in pollings:
            reason = f"not evaluated (no {matched} rows)"
        elif len(pollings) < 2:
            reason = "not evaluated (no rival polling rows)"
        if reason:
            for metric in _METRIC_GETTERS:
                verdicts.append(Verdict(f"low-matched-{metric}", arrival,
                                        "SKIP", reason))
            continue
        for interval in intervals:
            contenders = [("low", arrival, p, interval) for p in pollings]
            matched_key = ("low", arrival, matched, interval)
            for metric, metric_means in means.items():
                matched_mean = metric_means[matched_key]
                best_key = min(contenders, key=lambda k: metric_means[k])
                best_mean = metric_means[best_key]
                ok = _no_worse(matched_mean, best_mean)
                detail = (f"{matched} {matched_mean:.3f} vs best "
                          f"{best_key[2]} {best_mean:.3f}")
                if not ok and arrival == "bursty":
                    # adaptive polling is allowed to tie the winner
                    # statistically rather than beat it outright
                    get = _METRIC_GETTERS[metric]
                    hw = _half_width([get(r) for r in cells[best_key]])
                    if matched_mean <= best_mean + hw:
                        ok = True
                        detail += f" (inside 95% ci half-width {hw:.3f})"
                verdicts.append(Verdict(
                    f"low-matched-{metric}", f"{arrival}@{interval:g}",
                    "PASS" if ok else "FAIL", detail))
    return verdicts


def format_report(rows: list[RunMetrics]) -> str:
    cells = _cell_values(rows)
    lines = [f"{'fidelity':8s} {'arrival':8s} {'polling':14s} "
             f"{'interval':>8s} {'runs':>4s} {'energy_mJ':>14s} "
             f"{'ci':>10s} {'delay_s':>10s} {'ci':>8s}"]
    for key in sorted(cells):
        cell = cells[key]
        energies = [r.energy_mJ for r in cell]
        delays = [r.mean_delay_s for r in cell]
        lines.append(
            f"{key[0]:8s} {key[1]:8s} {key[2]:14s} {key[3]:8g} "
            f"{len(cell):4d} {_mean(energies):14.2f} "
            f"{_half_width(energies):10.2f} "
            f"{_mean(delays):10.4f} {_half_width(delays):8.4f}")
    return "\n".join(lines)


# -- entry points ----------------------------------------------------------


def _add_run_flags(sub, arrivals, pollings):
    """Flags of a single run, shared by `high` and `low`."""
    sub.add_argument("--arrival", choices=arrivals, default="cbr")
    sub.add_argument("--arrival-mean", type=float, default=None,
                     help="mean inter-arrival time in seconds")
    sub.add_argument("--polling", choices=pollings, default="deterministic")
    sub.add_argument("--poll-mean", type=float, default=10.0,
                     help="mean poll interval in seconds")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--config", default=None,
                     help="INI file with experiment config overrides")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adpsim",
        description="dual-fidelity simulator for an adaptive channel-polling MAC")
    subs = parser.add_subparsers(dest="command", required=True)

    high = subs.add_parser("high", help="one abstract byte-cost run")
    _add_run_flags(high, *_HIGH_KINDS)
    high.add_argument("--horizon", type=float, default=None,
                      help="simulated time in seconds")

    low = subs.add_parser("low", help="one radio-level run")
    _add_run_flags(low, *_LOW_KINDS)
    low.add_argument("--nodes", type=int, default=None)
    low.add_argument("--packets", type=int, default=None)
    low.add_argument("--trace", default=None,
                     help="write per-event CSV trace to this path")

    sweep = subs.add_parser("sweep", help="run the full dual-fidelity grid")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--out", default=None, help="combined runs CSV")
    sweep.add_argument("--out-high", default=None,
                       help="byte-cost model runs only")
    sweep.add_argument("--out-low", default=None,
                       help="radio model runs only")
    sweep.add_argument("--seed", type=int, default=None,
                       help="master seed for per-run seed derivation")
    sweep.add_argument("--grid", default=None,
                       help="poll interval grid, e.g. '1 2 5 10'")
    sweep.add_argument("--runs", type=int, default=None,
                       help="radio-model runs per cell")
    sweep.add_argument("--verbose", action="store_true")

    compare = subs.add_parser("compare",
                              help="check the trend claims across two sweep CSVs")
    compare.add_argument("--high", required=True,
                         help="byte-cost model sweep CSV")
    compare.add_argument("--low", required=True,
                         help="radio model sweep CSV")

    report = subs.add_parser("report", help="per-cell summary of a sweep CSV")
    report.add_argument("runs_csv")
    return parser


def _override(exp: ExperimentConfig, section: str, **changes) -> ExperimentConfig:
    """exp with the given keys of one section replaced, skipping None."""
    changes = {k: v for k, v in changes.items() if v is not None}
    return replace(exp, **{section: replace(getattr(exp, section), **changes)})


def _cmd_high(args) -> int:
    exp = _override(load_experiment_config(args.config), "high",
                    arrival_mean_s=args.arrival_mean, horizon_s=args.horizon)
    config = exp.high_config(args.arrival, args.polling, args.poll_mean)
    res = run_high_level(config, args.seed)
    print(f"energy_mJ = {res.total_energy_mJ!r}")
    print(f"mean_delay_s = {res.mean_delay_s!r}")
    print(f"poll_count = {res.poll_count}")
    print(f"delivered = {res.packet_count}")
    print(f"undelivered = {res.undelivered_count}")
    print(f"superpacket_sizes = {res.superpacket_size_histogram}")
    return 0


def _cmd_low(args) -> int:
    exp = _override(load_experiment_config(args.config), "low",
                    arrival_mean_s=args.arrival_mean, node_count=args.nodes,
                    packets_per_node=args.packets)
    config = exp.low_config(args.arrival, args.polling, args.poll_mean)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            res = run_low_level(config, args.seed, trace=csv.writer(fh))
    else:
        res = run_low_level(config, args.seed)
    print(f"energy_mJ = {res.total_energy_mJ!r}")
    print(f"mean_delay_s = {res.mean_delay_s!r}")
    print(f"delivered = {res.delivered}")
    print(f"dropped = {res.dropped}")
    print(f"collisions = {res.collisions}")
    print(f"retransmissions = {res.retransmissions}")
    print(f"duration_s = {res.duration_s!r}")
    print(f"poll_count = {res.poll_count}")
    print(f"strobe_count = {res.strobe_count}")
    print(f"strobe_energy_mJ = {res.strobe_energy_mJ!r}")
    print(f"superpacket_sizes = {res.superpacket_size_histogram}")
    print(f"final_polling = {res.final_polling_kind.value}")
    print(f"switches = {len(res.polling_switches)}")
    return 0


def _cmd_sweep(args) -> int:
    if args.out is None and args.out_high is None and args.out_low is None:
        raise ParameterError("give at least one of --out/--out-high/--out-low")
    grid = None if args.grid is None else _parse_intervals(args.grid)
    exp = _override(load_experiment_config(args.config), "sweep",
                    master_seed=args.seed, poll_intervals_s=grid,
                    low_runs_per_cell=args.runs)
    progress = (lambda msg: print(msg, file=sys.stderr, flush=True)) \
        if args.verbose else None
    rows = run_sweep(exp, progress=progress)
    for path, subset in ((args.out, rows),
                         (args.out_high,
                          [r for r in rows if r.fidelity == "high"]),
                         (args.out_low,
                          [r for r in rows if r.fidelity == "low"])):
        if path is not None:
            write_runs_csv(path, subset)
            print(f"wrote {len(subset)} runs to {path}")
    return 0


def _cmd_compare(args) -> int:
    verdicts, exit_code = compare_runs(read_runs_csv(args.high),
                                       read_runs_csv(args.low))
    for v in verdicts:
        print(v.line())
    failed = sum(1 for v in verdicts if v.status == "FAIL")
    skipped = sum(1 for v in verdicts if v.status == "SKIP")
    print(f"{len(verdicts) - failed - skipped} passed, "
          f"{failed} failed, {skipped} skipped")
    return exit_code


def _cmd_report(args) -> int:
    print(format_report(read_runs_csv(args.runs_csv)))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"high": _cmd_high, "low": _cmd_low, "sweep": _cmd_sweep,
               "compare": _cmd_compare, "report": _cmd_report}[args.command]
    try:
        return handler(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
