"""The three benchmark workloads.

Each workload builds its configs and per-run seeds from the workload seed
when it is constructed (that is set-up), then runs identical rounds of
`ops_per_round` operations, timed through a `meter.Meter`, and returns
how many operations failed: raised, or gave output that failed a check.
Checks run after the timed part of the round, so their cost is in no time. Checks that span a whole round (CSV round trips,
digests, pooled statistics) append to `problems` instead, which makes the
run incorrect.

Import this module only after `src/` of the checkout is on sys.path.
"""
from __future__ import annotations

import functools
import hashlib
import sys
import traceback
import zlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from adpsim import (
    ArrivalKind,
    ArrivalModel,
    HighLevelConfig,
    LowLevelConfig,
    PollingDistribution,
    PollingKind,
    cli,
    highsim,
    lowsim,
)

import oracles

HORIZON_S = 5000.0          # byte-cost horizon, the sweep default
HIGH_ARRIVAL_MEAN_S = 5.0   # byte-cost mean inter-arrival time
LOW_ARRIVAL_MEAN_S = 50.0   # radio-model mean inter-arrival time
NODE_COUNT = 10             # sink plus nine sources
PACKETS_PER_NODE = 20
POLLINGS = ("deterministic", "exponential", "dynamic")

def derive_seed(*parts: int | str) -> int:
    """A 32-bit seed from the workload seed and a path of names and indices."""
    words = [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint32)[0])


@functools.lru_cache(maxsize=None)
def closed_form(cfg: HighLevelConfig, interval_s: float) -> dict:
    """The cbr/deterministic outcome at this interval, from frame arithmetic
    (computed on first use, outside set-up and timed work)."""
    fr, en = cfg.frames, cfg.energy
    return oracles.cbr_deterministic_expected(
        HIGH_ARRIVAL_MEAN_S, interval_s, HORIZON_S, fr.data_payload_bytes,
        fr.data_overhead_bytes, fr.max_concat, en.energy_per_byte_mJ,
        en.energy_per_poll_mJ, en.energy_per_ack_mJ)


class Workload:
    name = ""
    MIN_ROUNDS = 1

    def __init__(self) -> None:
        self.problems: list[str] = []
        self._reported = 0

    def _fail(self, what: str, problems: list[str]) -> bool:
        """Log an operation's problems (the first few only); False if any."""
        if problems and self._reported < 5:
            self._reported += 1
            print(f"{self.name}: {what}: " + "; ".join(problems[:3]), file=sys.stderr)
        return not problems

    @property
    def ops_per_round(self) -> int:
        return len(self.runs)

    def _run_all(self, meter, fn) -> list[tuple[object, str | None]]:
        """Time fn(cfg, seed) for every run: (result, None) or (None, error)."""
        outcomes = []
        meter.start_round()
        for cfg, seed in self.runs:
            start = perf_counter()
            try:
                outcome = fn(cfg, seed), None
            except Exception:
                outcome = None, traceback.format_exc(limit=3).strip()
            meter.op(perf_counter() - start)
            outcomes.append(outcome)
        meter.end_round()
        return outcomes

    def _check(self, cfg, seed: int, outcome, check) -> bool:
        """True if the run raised nothing and its result passes `check`."""
        result, error = outcome
        problems = [error] if error else check(result)
        label = (f"{cfg.arrival.kind.value}/{cfg.polling.kind.value}"
                 f"@{cfg.polling.mean_interval_s:g} seed {seed}")
        return self._fail(label, problems)


class RadioSaturated(Workload):
    """Direct radio-model runs past the sink's saturation point."""

    name = "radio-saturated"
    # rho = (NODE_COUNT - 1) * p / LOW_ARRIVAL_MEAN_S is 1.08 for cbr at 6 s
    # and 1.8 for poisson at 10 s: both ends of the saturated 6-10 s range,
    # chosen because one run of either costs about the same (1.2 s), which
    # keeps the median run time steady across seeds
    CELLS = (("cbr", 6.0), ("poisson", 10.0))
    REPLICAS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        self.runs = []
        for arrival, interval in self.CELLS:
            for polling in POLLINGS:
                cfg = LowLevelConfig(
                    arrival=ArrivalModel(ArrivalKind(arrival), LOW_ARRIVAL_MEAN_S),
                    polling=PollingDistribution(PollingKind(polling), interval),
                    node_count=NODE_COUNT, packets_per_node=PACKETS_PER_NODE)
                for _ in range(self.REPLICAS):
                    self.runs.append((cfg, derive_seed(seed, self.name, len(self.runs))))

    def run_round(self, meter) -> int:
        outcomes = self._run_all(meter, lowsim.run_low_level)
        return sum(not self._check(cfg, seed, outcome,
                                   lambda res: oracles.check_radio_run(cfg, res))
                   for (cfg, seed), outcome in zip(self.runs, outcomes))


class ByteCost(Workload):
    """Every byte-cost cell of the default grid, over several master seeds."""

    name = "byte-cost"
    MASTER_SEEDS = 4
    INTERVALS = tuple(float(p) for p in range(1, 11))
    REPLICAS = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        self.runs = []
        for m in range(self.MASTER_SEEDS):
            master = derive_seed(seed, self.name, m)
            for arrival in ("cbr", "poisson"):
                for polling in ("deterministic", "exponential"):
                    for i, interval in enumerate(self.INTERVALS):
                        cfg = HighLevelConfig(
                            arrival=ArrivalModel(ArrivalKind(arrival), HIGH_ARRIVAL_MEAN_S),
                            polling=PollingDistribution(PollingKind(polling), interval),
                            horizon_s=HORIZON_S)
                        # cbr on a fixed grid has no randomness at all: one
                        # run, checked exactly against the closed form
                        deterministic_cbr = (arrival, polling) == ("cbr", "deterministic")
                        for rep in range(1 if deterministic_cbr else self.REPLICAS):
                            # the polling kind is left out of the seed, so both
                            # kinds face the same arrivals, as in a sweep
                            run_seed = derive_seed(master, arrival, i, rep)
                            self.runs.append((cfg, run_seed))

    def run_round(self, meter) -> int:
        outcomes = self._run_all(meter, highsim.run_high_level)
        failed = 0
        pooled: dict[tuple, list[float]] = defaultdict(list)
        for (cfg, seed), outcome in zip(self.runs, outcomes):
            p = cfg.polling.mean_interval_s
            deterministic_cbr = cfg.arrival.kind is ArrivalKind.CBR and \
                cfg.polling.kind is PollingKind.DETERMINISTIC
            closed = closed_form(cfg, p) if deterministic_cbr else None
            if not self._check(cfg, seed, outcome,
                               lambda res: oracles.check_byte_cost_run(cfg, res, closed)):
                failed += 1
            elif closed is None:
                pooled[(cfg.polling.kind.value, p)].append(outcome[0].mean_delay_s)
        for (polling, p), delays in sorted(pooled.items()):
            self.problems += oracles.check_pooled_delay(polling, p, delays)
        return failed


class Sweep(Workload):
    """The user's pipeline: sweep, write, read, report and compare."""

    name = "sweep"
    MIN_ROUNDS = 2  # the runs-CSV digest is compared between rounds
    # rho is at most 0.54 at 3 s: every radio cell is below saturation
    INTERVALS = (1.0, 2.0, 3.0)
    LOW_RUNS = 4  # the default sweep's radio runs per cell
    HIGH_RUNS = 20
    HIGH_COMBOS = [(a, p) for a in ("cbr", "poisson") for p in ("deterministic", "exponential")]
    LOW_COMBOS = [(a, p) for a in ("cbr", "poisson", "bursty") for p in POLLINGS]

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        ini = workdir / "sweep.ini"
        ini.write_text(
            "[sweep]\n"
            f"master_seed = {derive_seed(seed, self.name)}\n"
            f"poll_intervals_s = {', '.join(f'{p:g}' for p in self.INTERVALS)}\n"
            f"high_runs_per_cell = {self.HIGH_RUNS}\n"
            f"low_runs_per_cell = {self.LOW_RUNS}\n"
            "[high]\n"
            f"horizon_s = {HORIZON_S:g}\n"
            f"arrival_mean_s = {HIGH_ARRIVAL_MEAN_S:g}\n"
            "[low]\n"
            f"arrival_mean_s = {LOW_ARRIVAL_MEAN_S:g}\n"
            f"node_count = {NODE_COUNT}\n"
            f"packets_per_node = {PACKETS_PER_NODE}\n")
        self.exp = cli.load_experiment_config(str(ini))
        self.paths = {k: str(workdir / f"{k}.csv") for k in ("runs", "high", "low")}
        self.cells = {}
        for arrival, polling in self.HIGH_COMBOS:
            for p in self.INTERVALS:
                reps = 1 if (arrival, polling) == ("cbr", "deterministic") else self.HIGH_RUNS
                self.cells[("high", arrival, polling, p)] = reps
        for arrival, polling in self.LOW_COMBOS:
            for p in self.INTERVALS:
                self.cells[("low", arrival, polling, p)] = self.LOW_RUNS
        # frame and energy constants are the program's defaults in both fidelities
        high = HighLevelConfig(
            arrival=ArrivalModel(ArrivalKind.CBR, HIGH_ARRIVAL_MEAN_S),
            polling=PollingDistribution(PollingKind.DETERMINISTIC, 1.0),
            horizon_s=HORIZON_S)
        low = LowLevelConfig(arrival=high.arrival, polling=high.polling)
        self.high_cfg = high
        self.frames, self.bit_rate_bps = low.frames, low.bit_rate_bps
        self.digest = None

    @property
    def ops_per_round(self) -> int:
        return len(self.cells)

    def run_round(self, meter) -> int:
        """One operation per sweep cell, timed between progress callbacks;
        the round also writes, reads, reports and compares, as the CLI does."""
        cells_done = []

        def progress(_msg: str) -> None:
            meter.op(perf_counter() - cells_done[-1])
            cells_done.append(perf_counter())

        meter.start_round()
        cells_done.append(perf_counter())
        try:
            rows = cli.run_sweep(self.exp, progress)
            subsets = {"runs": rows,
                       "high": [r for r in rows if r.fidelity == "high"],
                       "low": [r for r in rows if r.fidelity == "low"]}
            for key, subset in subsets.items():
                cli.write_runs_csv(self.paths[key], subset)
            back = {key: cli.read_runs_csv(self.paths[key]) for key in subsets}
            report = cli.format_report(back["runs"])
            verdicts, code = cli.compare_runs(back["high"], back["low"])
        except Exception:
            meter.end_round()
            self.problems.append(traceback.format_exc(limit=3).strip())
            return len(self.cells) - (len(cells_done) - 1)
        meter.end_round()
        for key, subset in subsets.items():
            if back[key] != subset:
                self.problems.append(f"{key} CSV read back differs from the rows written")
        self._check_outputs(report, verdicts, code)
        return self._check_cells(rows)

    def _check_cells(self, rows) -> int:
        """Per-cell checks on the sweep rows; returns the number of bad cells."""
        by_cell = defaultdict(list)
        for r in rows:
            by_cell[(r.fidelity, r.arrival, r.polling, r.mean_poll_interval_s)].append(r)
        bad = 0
        for key, reps in self.cells.items():
            fidelity, arrival, polling, p = key
            cell = by_cell.get(key, [])
            problems = [] if len(cell) == reps else [f"{len(cell)} rows, expected {reps}"]
            for r in cell:
                if fidelity == "high":
                    problems += oracles.check_byte_cost_counts(
                        arrival, polling, p, HORIZON_S, HIGH_ARRIVAL_MEAN_S,
                        r.mean_delay_s, r.delivered, r.dropped)
                    if r.collisions or r.retransmissions:
                        problems.append("byte-cost row with collisions")
                    if (arrival, polling) == ("cbr", "deterministic"):
                        problems += oracles.check_closed_form(
                            r.delivered, r.mean_delay_s, r.energy_mJ,
                            closed_form(self.high_cfg, p))
                else:
                    if r.delivered + r.dropped != (NODE_COUNT - 1) * PACKETS_PER_NODE:
                        problems.append(f"{r.delivered} + {r.dropped} packets")
                    if r.collisions < 0 or r.retransmissions < 0 or not r.energy_mJ > 0:
                        problems.append("negative counter or energy")
                    problems += oracles.check_radio_delay(
                        self.frames, self.bit_rate_bps, r.delivered, r.mean_delay_s)
            if not self._fail(f"cell {key}", problems):
                bad += 1
        if len(rows) != sum(self.cells.values()):
            self.problems.append(f"{len(rows)} rows, grid implies {sum(self.cells.values())}")
        # one seed per (fidelity, arrival, interval, run), shared by the
        # polling kinds so they face identical arrivals
        seeds = defaultdict(set)
        for r in rows:
            seeds[(r.fidelity, r.arrival, r.mean_poll_interval_s, r.run)].add(r.seed)
        if any(len(s) != 1 for s in seeds.values()) or \
                len(set().union(*seeds.values())) != len(seeds):
            self.problems.append("per-run seeds not shared across polling kinds")
        return bad

    def _check_outputs(self, report: str, verdicts, code: int) -> None:
        digest = hashlib.sha256(Path(self.paths["runs"]).read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append("runs CSV differs between rounds on one seed")
        if len(report.splitlines()) != 1 + len(self.cells):
            self.problems.append(f"report has {len(report.splitlines())} lines")
        if code != (1 if any(v.status == "FAIL" for v in verdicts) else 0):
            self.problems.append(f"compare exit code {code} disagrees with its verdicts")
        # byte-cost claims follow from residual life and the poll count:
        # energy falls and delay rises with p, exponential polls merge more
        # but wait longer
        for v in verdicts:
            if v.check.startswith("high-") and v.status != "PASS":
                self.problems.append(f"byte-cost verdict {v.line()}")


WORKLOADS = {w.name: w for w in (Sweep, RadioSaturated, ByteCost)}
