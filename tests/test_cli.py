"""Seed derivation, config files, the runs CSV, and the comparison logic."""
import dataclasses
import hashlib
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import adpsim
from adpsim import cli
from adpsim.cli import (
    ExperimentConfig,
    LowSection,
    RUNS_CSV_HEADER,
    SweepSection,
    compare_runs,
    format_report,
    load_experiment_config,
    main,
    map_cells,
    read_runs_csv,
    run_seed,
    run_sweep,
    write_runs_csv,
)
from adpsim.core import ParameterError
from adpsim.stats import RunMetrics


# -- seed derivation --------------------------------------------------------


def test_run_seed_is_stable():
    # frozen value: the sweep CSV column must not drift between releases
    assert run_seed(12345, "low", "cbr", 5.0, 0) == 10781728405064952664


def test_run_seed_separates_every_argument():
    base = run_seed(7, "low", "cbr", 5.0, 0)
    assert run_seed(8, "low", "cbr", 5.0, 0) != base
    assert run_seed(7, "high", "cbr", 5.0, 0) != base
    assert run_seed(7, "low", "poisson", 5.0, 0) != base
    assert run_seed(7, "low", "cbr", 6.0, 0) != base
    assert run_seed(7, "low", "cbr", 5.0, 1) != base


def test_run_seed_ignores_polling_kind():
    # there is no polling argument at all: the same arrival realizations
    # are replayed under every polling distribution
    import inspect

    assert "polling" not in inspect.signature(run_seed).parameters


def test_run_seed_interval_is_bit_exact():
    assert run_seed(7, "low", "cbr", 5, 0) == run_seed(7, "low", "cbr", 5.0, 0)
    assert run_seed(7, "low", "cbr", 5.0, 0) != run_seed(7, "low", "cbr", 5.0 + 1e-9, 0)


# -- config files -----------------------------------------------------------


def test_load_config_none_gives_defaults():
    assert load_experiment_config(None) == ExperimentConfig()


def test_load_config_round_trip(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[sweep]\n"
        "master_seed = 99\n"
        "poll_intervals_s = 1, 2.5 7\n"
        "low_runs_per_cell = 2\n"
        "include_high = false\n"
        "[high]\n"
        "horizon_s = 1000\n"
        "arrival_mean_s = 4\n"
        "[low]\n"
        "arrival_mean_s = 20\n"
        "node_count = 4\n"
        "[mac]\n"
        "strobe_timeout_s = 0.5\n"
        "[bursty]\n"
        "rate_factor = 8\n")
    exp = load_experiment_config(str(ini))
    assert exp.sweep.master_seed == 99
    assert exp.sweep.poll_intervals_s == (1.0, 2.5, 7.0)
    assert exp.sweep.low_runs_per_cell == 2
    assert exp.sweep.include_high is False
    assert exp.sweep.include_low is True
    assert exp.high.horizon_s == 1000.0
    assert exp.high.arrival_mean_s == 4.0
    assert exp.low.arrival_mean_s == 20.0
    assert exp.low.node_count == 4
    assert exp.mac.strobe_timeout_s == 0.5
    assert exp.bursty.rate_factor == 8.0


def test_load_config_empty_strobe_timeout_means_default(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[mac]\nstrobe_timeout_s =\n")
    assert load_experiment_config(str(ini)).mac.strobe_timeout_s is None


def test_load_config_rejects_unknown_section(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[typo]\nx = 1\n")
    with pytest.raises(ParameterError, match=r"unknown config section"):
        load_experiment_config(str(ini))


def test_load_config_rejects_unknown_key(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[low]\nnode_cuont = 4\n")
    with pytest.raises(ParameterError, match=r"unknown key"):
        load_experiment_config(str(ini))
    # knobs that nothing read are gone from the schema
    for section, key in (("mac", "strobe_gap_s"),
                         ("energy", "energy_single_data_mJ")):
        ini.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ParameterError, match=r"unknown key"):
            load_experiment_config(str(ini))
        assert main(["high", "--config", str(ini)]) == 2


def test_load_config_rejects_unprefixed_alias(tmp_path):
    # inside [high] the key is horizon_s; the prefixed name is not accepted
    ini = tmp_path / "exp.ini"
    ini.write_text("[high]\nhigh_horizon_s = 1000\n")
    with pytest.raises(ParameterError, match=r"unknown key"):
        load_experiment_config(str(ini))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParameterError, match=r"cannot read config file"):
        load_experiment_config(str(tmp_path / "absent.ini"))


# -- runs CSV ---------------------------------------------------------------


def _row(fidelity="low", arrival="cbr", polling="deterministic",
         interval=5.0, run=0, energy=100.0, delay=1.0) -> RunMetrics:
    return RunMetrics(fidelity=fidelity, arrival=arrival, polling=polling,
                      mean_poll_interval_s=interval, run=run,
                      seed=run_seed(1, fidelity, arrival, interval, run),
                      energy_mJ=energy, mean_delay_s=delay,
                      delivered=10, dropped=0, collisions=0,
                      retransmissions=0)


def test_runs_csv_round_trip_exact(tmp_path):
    rows = [_row(energy=0.1 + 0.2, delay=1.0 / 3.0),
            _row(interval=1e-3, run=1, energy=2.0 ** -40)]
    path = tmp_path / "runs.csv"
    write_runs_csv(path, rows)
    assert read_runs_csv(path) == rows


def test_runs_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParameterError, match=r"unexpected runs header"):
        read_runs_csv(path)


def test_runs_csv_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(RUNS_CSV_HEADER) + "\nlow,cbr\n")
    with pytest.raises(ParameterError, match=r"bad row"):
        read_runs_csv(path)


def _runs_csv_with(path, column, cell):
    # a valid runs CSV whose second row (line 3) holds one bad cell
    write_runs_csv(path, [_row(run=0), _row(run=1)])
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[RUNS_CSV_HEADER.index(column)] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


_MALFORMED_CELLS = [
    ("energy_mJ", "abc", "cannot parse energy_mJ 'abc'"),
    ("run", "x", "cannot parse run 'x'"),
    ("mean_poll_interval_s", "nan", "mean_poll_interval_s must be finite"),
    ("energy_mJ", "inf", "energy_mJ must be finite"),
    ("mean_delay_s", "-inf", "mean_delay_s must be finite"),
]
_MALFORMED_IDS = ["unparsable-float", "unparsable-int", "nan-interval",
                  "inf-energy", "minus-inf-delay"]


def _tiny_sweep_config() -> ExperimentConfig:
    return ExperimentConfig(sweep=SweepSection(
        poll_intervals_s=(2.0, 4.0), high_runs_per_cell=2,
        low_runs_per_cell=1, include_low=False))


def test_run_sweep_shape_and_order():
    rows = run_sweep(_tiny_sweep_config())
    # 2 arrivals x 2 polling kinds x 2 intervals; the constant cbr/det cell
    # collapses to one run, the stochastic cells keep two
    assert len(rows) == 2 * 1 + 6 * 2
    assert rows == sorted(rows, key=lambda r: (r.fidelity, r.arrival,
                                               r.polling,
                                               r.mean_poll_interval_s, r.run))
    assert {r.fidelity for r in rows} == {"high"}


def test_run_sweep_is_reproducible(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_runs_csv(first, run_sweep(_tiny_sweep_config()))
    write_runs_csv(second, run_sweep(_tiny_sweep_config()))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("cpus", [2, 3])
def test_run_sweep_on_several_cpus_matches_one_cpu(cpus, monkeypatch):
    exp = ExperimentConfig(
        sweep=SweepSection(poll_intervals_s=(2.0, 4.0), high_runs_per_cell=2,
                           low_runs_per_cell=1),
        low=LowSection(node_count=3, packets_per_node=4))
    progress = {}
    for n in (1, cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: n)
        lines = progress[n] = []
        rows = run_sweep(exp, progress=lines.append)
        if n == 1:
            one_cpu = rows
    assert rows == one_cpu
    assert {r.fidelity for r in rows} == {"high", "low"}
    # every cell reported once; the parent's own cells keep their order
    assert sorted(progress[cpus]) == sorted(progress[1])
    assert len(set(progress[1])) == len(progress[1])
    own = progress[1][::cpus]
    assert [m for m in progress[cpus] if m in own] == own
    assert multiprocessing.active_children() == []


def _square_unless_negative(x: int) -> int:
    if x < 0:
        raise ValueError(f"cell {x} is negative")
    return x * x


@pytest.mark.parametrize("bad", [None, 3, 4], ids=["none", "worker", "parent"])
def test_map_cells_passes_errors_on_and_leaves_no_process(bad, monkeypatch):
    # with two CPUs the parent runs cells 0, 2, 4 and a worker runs 1, 3, 5
    cells = [-x if x == bad else x for x in range(6)]
    errors = []
    for n in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: n)
        try:
            assert map_cells(_square_unless_negative, cells) == \
                [x * x for x in cells]
        except ValueError as exc:
            errors.append((type(exc), str(exc)))
        assert multiprocessing.active_children() == []
    assert errors == ([] if bad is None else
                      [(ValueError, f"cell {-bad} is negative")] * 2)


def _sleep_unless_negative(x: float) -> None:
    if x < 0:
        raise ValueError(f"cell {x} is negative")
    time.sleep(x)


def test_map_cells_stops_the_workers_on_error(monkeypatch):
    # the parent's own cell fails at once while the worker's takes 60 s
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cell -1 is negative"):
        map_cells(_sleep_unless_negative, [-1, 60])
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


# -- comparison -------------------------------------------------------------


def _high_rows(energy_at, delay_at, arrivals=("cbr", "poisson"),
               intervals=(1.0, 2.0, 3.0, 4.0)) -> list[RunMetrics]:
    rows = []
    for arrival in arrivals:
        for polling in ("deterministic", "exponential"):
            for i in intervals:
                rows.append(_row("high", arrival, polling, i,
                                 energy=energy_at(polling, i),
                                 delay=delay_at(polling, i)))
    return rows


def _good_high() -> list[RunMetrics]:
    # energy falls with the interval and exponential is cheaper; delay
    # rises and deterministic is faster
    return _high_rows(
        energy_at=lambda p, i: 100.0 - 5.0 * i - (1.0 if p == "exponential" else 0.0),
        delay_at=lambda p, i: i + (0.5 if p == "exponential" else 0.0))


def _good_low(arrivals=("cbr", "poisson", "bursty"),
              intervals=(1.0, 2.0, 3.0, 4.0)) -> list[RunMetrics]:
    matched = {"cbr": "deterministic", "poisson": "exponential",
               "bursty": "dynamic"}
    rows = []
    for arrival in arrivals:
        for polling in ("deterministic", "exponential", "dynamic"):
            bump = 0.0 if polling == matched[arrival] else 1.0
            for i in intervals:
                rows.append(_row("low", arrival, polling, i,
                                 energy=10.0 * i + bump, delay=i + bump))
    return rows


def test_compare_all_claims_pass():
    verdicts, code = compare_runs(_good_high(), _good_low())
    assert code == 0
    assert all(v.status == "PASS" for v in verdicts), \
        [v.line() for v in verdicts if v.status != "PASS"]
    checks = {v.check for v in verdicts}
    assert checks == {"high-energy-vs-interval", "high-delay-vs-interval",
                      "low-energy-vs-interval", "low-delay-vs-interval",
                      "high-polling-order", "low-matched-energy",
                      "low-matched-delay"}


def test_compare_swapped_inputs_fail():
    # feeding the radio-model CSV into the byte-cost slot flips the energy
    # trend expectation, so the check must fail rather than pass vacuously
    verdicts, code = compare_runs(_good_low(), _good_high())
    assert code == 1
    energy = [v for v in verdicts if v.check == "high-energy-vs-interval"]
    assert energy and all(v.status == "FAIL" for v in energy)


def test_compare_combined_csv_in_both_slots():
    # a combined export carries both fidelity blocks; each slot picks its own
    both = _good_high() + _good_low()
    verdicts, code = compare_runs(both, both)
    assert code == 0
    assert all(v.status == "PASS" for v in verdicts)


def test_compare_missing_arrival_block_skips():
    verdicts, code = compare_runs(_good_high(),
                                  _good_low(arrivals=("cbr", "poisson")))
    assert code == 0
    skipped = [v for v in verdicts if v.status == "SKIP"
               and v.subject == "bursty"]
    assert len(skipped) == 2
    assert all("not evaluated" in v.detail for v in skipped)


def test_compare_incomplete_grid_is_an_error():
    low = _good_low()
    cut = [r for r in low if not (r.arrival == "poisson"
                                  and r.polling == "exponential"
                                  and r.mean_poll_interval_s == 3.0)]
    with pytest.raises(ParameterError, match=r"missing cells.*poisson"):
        compare_runs(_good_high(), cut)


def test_compare_disjoint_arrivals_is_an_error():
    high = _high_rows(lambda p, i: 100.0 - i, lambda p, i: i,
                      arrivals=("cbr",))
    low = _good_low(arrivals=("poisson", "bursty"))
    with pytest.raises(ParameterError, match=r"no arrival model common"):
        compare_runs(high, low)


def test_compare_empty_input_is_an_error():
    with pytest.raises(ParameterError, match=r"high-fidelity input"):
        compare_runs([], _good_low())
    with pytest.raises(ParameterError, match=r"low-fidelity input"):
        compare_runs(_good_high(), [])


def _bursty_cell(polling, interval, values) -> list[RunMetrics]:
    return [_row("low", "bursty", polling, interval, run=n,
                 energy=v, delay=v) for n, v in enumerate(values)]


def _ci_tie_fixture(dyn_values):
    # deterministic is the outright winner with mean 11 and a 95% ci
    # half-width of 2.4855 (t(0.975, 2) = 4.3027, std 1, n = 3)
    high = _high_rows(lambda p, i: 100.0 - i, lambda p, i: i,
                      arrivals=("bursty",), intervals=(5.0,))
    low = (_bursty_cell("deterministic", 5.0, [10.0, 11.0, 12.0])
           + _bursty_cell("dynamic", 5.0, dyn_values))
    return high, low


def test_compare_bursty_statistical_tie_passes():
    high, low = _ci_tie_fixture([12.0, 12.5, 13.0])  # mean 12.5 < 11 + 2.4855
    verdicts, code = compare_runs(high, low)
    matched = [v for v in verdicts if v.check.startswith("low-matched")
               and v.subject.startswith("bursty@")]
    assert matched and all(v.status == "PASS" for v in matched)
    assert any("inside 95% ci" in v.detail for v in matched)
    assert code == 0


def test_compare_bursty_clear_loss_fails():
    high, low = _ci_tie_fixture([20.0, 21.0, 22.0])  # mean 21 > 11 + 2.4855
    verdicts, code = compare_runs(high, low)
    matched = [v for v in verdicts if v.check.startswith("low-matched")
               and v.subject.startswith("bursty@")]
    assert matched and all(v.status == "FAIL" for v in matched)
    assert code == 1


@pytest.mark.parametrize("gap, status", [(5e-10, "PASS"), (1e-8, "FAIL")])
def test_compare_polling_order_delay_tie_is_relative(gap, status):
    # deterministic delay a relative `gap` above exponential, at 11-14 s:
    # the tie is a relative 1e-9 on delay as on energy, not 1e-9 seconds
    high = _high_rows(
        energy_at=lambda p, i: 100.0 - 5.0 * i - (1.0 if p == "exponential" else 0.0),
        delay_at=lambda p, i: (10.0 + i) * (1 + gap if p == "deterministic" else 1))
    verdicts, _ = compare_runs(high, _good_low())
    order = [v for v in verdicts if v.check == "high-polling-order"]
    assert len(order) == 8
    assert all(v.status == status for v in order), [v.line() for v in order]


# -- entry point ------------------------------------------------------------


def test_main_compare_exit_codes(tmp_path, capsys):
    high_path = tmp_path / "high.csv"
    low_path = tmp_path / "low.csv"
    write_runs_csv(high_path, _good_high())
    write_runs_csv(low_path, _good_low())
    assert main(["compare", "--high", str(high_path),
                 "--low", str(low_path)]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out

    write_runs_csv(low_path, _good_high())  # wrong fidelity in the low slot
    assert main(["compare", "--high", str(high_path),
                 "--low", str(low_path)]) == 1


def test_main_reports_io_errors_as_two(tmp_path, capsys):
    assert main(["compare", "--high", str(tmp_path / "no.csv"),
                 "--low", str(tmp_path / "no.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(adpsim.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "adpsim", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
    ok = run("high", "--poll-mean", "10")
    assert ok.returncode == 0 and "energy_mJ = " in ok.stdout
    bad = run("high", "--seed", "-1")
    assert bad.returncode == 2 and bad.stderr.startswith("error: master seed")


@pytest.mark.parametrize("column, cell, named", _MALFORMED_CELLS,
                         ids=_MALFORMED_IDS)
def test_main_rejects_malformed_runs_csv(column, cell, named, tmp_path,
                                         capsys):
    bad = _runs_csv_with(tmp_path / "bad.csv", column, cell)
    good = tmp_path / "low.csv"
    write_runs_csv(good, _good_low())
    for argv in (["report", str(bad)],
                 ["compare", "--high", str(bad), "--low", str(good)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{bad} line 3: {named}" in err


def test_report_and_compare_import_no_scipy(tmp_path):
    # importing scipy.stats once cost each command about 70 MB of resident
    # memory and over a second of start-up; nothing on this path may pull
    # it back in. Only the sweep's worker pool needs multiprocessing, whose
    # import costs about 20 ms
    high = tmp_path / "high.csv"
    low = tmp_path / "low.csv"
    second_runs = [dataclasses.replace(r, run=1, energy_mJ=r.energy_mJ + 1)
                   for r in _good_high()]
    write_runs_csv(high, _good_high() + second_runs)
    write_runs_csv(low, _good_low())
    script = (
        "import sys\n"
        "from adpsim import cli\n"
        f"assert cli.main(['report', {str(high)!r}]) == 0\n"
        f"assert cli.main(['compare', '--high', {str(high)!r},"
        f" '--low', {str(low)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'multiprocessing')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(adpsim.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "0 failed" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_main_sweep_requires_an_output(capsys):
    assert main(["sweep"]) == 2
    assert "out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["high", "--horizon", "inf", "--poll-mean", "10"],
    ["low", "--poll-mean", "inf"],
    ["low", "--arrival", "poisson", "--arrival-mean", "inf"],
], ids=["high-horizon", "low-poll-mean", "low-arrival-mean"])
def test_main_rejects_non_finite_inputs(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("ini, argv, named", [
    ("[low]\nnode_count = abc\n", ["low"], "'node_count' in [low]"),
    ("[sweep]\npoll_intervals_s = 1 two\n", ["sweep", "--out", "runs.csv"],
     "poll intervals"),
    ("[mac]\ncca_slot_s = inf\n", ["low", "--nodes", "3", "--packets", "2"],
     "cca_slot_s"),
    ("[radio]\ntx_mW = inf\n", ["low", "--nodes", "3", "--packets", "2"],
     "tx_mW"),
    ("", ["low", "--poll-mean", "1e-9", "--nodes", "2", "--packets", "1"],
     "cca_slot_s"),
    ("", ["sweep", "--out", "runs.csv", "--grid", "1 x"], "poll intervals"),
    ("node_count = 3\n", ["low"], "exp.ini"),
    ("[low]\nnode_count = 5%\n", ["low"], "'node_count' in [low]"),
    ("", ["low", "--seed", "-1", "--nodes", "2", "--packets", "1"], "master seed"),
    ("", ["high", "--seed", "-1"], "master seed"),
    ("", ["sweep", "--out", "runs.csv", "--seed", "-3"], "master seed"),
    ("[sweep]\nmaster_seed = -1\n", ["sweep", "--out", "runs.csv"], "master seed"),
    ("", ["sweep", "--out", "runs.csv", "--runs", "0"], "low_runs_per_cell"),
    ("", ["sweep", "--out", "runs.csv", "--runs", "-1"], "low_runs_per_cell"),
    ("[sweep]\nhigh_runs_per_cell = 0\n", ["sweep", "--out", "runs.csv"],
     "high_runs_per_cell"),
], ids=["unparsable-int", "unparsable-grid-key", "inf-cca-slot", "inf-tx-power",
        "poll-mean-below-cca-slot", "unparsable-grid-flag", "no-section-header",
        "percent-sign", "negative-low-seed", "negative-high-seed",
        "negative-sweep-seed", "negative-ini-seed", "zero-runs-flag",
        "negative-runs-flag", "zero-high-runs-key"])
def test_main_rejects_bad_values(ini, argv, named, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if ini:
        (tmp_path / "exp.ini").write_text(ini)
        argv = [*argv, "--config", "exp.ini"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "runs.csv").exists()


def test_main_sweep_and_report_round_trip(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = main(["sweep", "--out", str(out), "--grid", "2 4",
                 "--runs", "1", "--seed", "5"])
    assert code == 0
    rows = read_runs_csv(out)
    assert {r.fidelity for r in rows} == {"high", "low"}
    capsys.readouterr()

    assert main(["report", str(out)]) == 0
    report = capsys.readouterr().out
    assert "fidelity" in report.splitlines()[0]
    # one summary line per (fidelity, arrival, polling, interval) cell
    assert len(report.splitlines()) == 1 + len({
        (r.fidelity, r.arrival, r.polling, r.mean_poll_interval_s)
        for r in rows})


def test_format_report_smoke():
    text = format_report(_good_low())
    assert "bursty" in text and "dynamic" in text


# -- byte identity of the runs CSV ------------------------------------------

# Frozen sha256 digests of sweep outputs. A change to any of them is a change
# to what the simulators compute and must be made, and recorded, on purpose.

# every key the loader takes, each set to a valid non-default value;
# payload + overhead stays 61 bytes so the byte price of one frame is unchanged
_EVERY_KEY_INI = """\
[sweep]
master_seed = 2024
poll_intervals_s = 1.5, 3
high_runs_per_cell = 3
low_runs_per_cell = 2
include_high = true
include_low = true
[high]
horizon_s = 800
arrival_mean_s = 4
[low]
arrival_mean_s = 30
node_count = 4
packets_per_node = 6
bit_rate_bps = 19200
cycle_duration_s = 8
cv_threshold = 0.7
stagger_arrival_phase = false
idle_horizon_s = 60
[frames]
data_payload_bytes = 49
data_overhead_bytes = 12
ack_bytes = 8
early_ack_bytes = 9
preamble_strobe_bytes = 3
max_concat = 4
[mac]
early_ack_wait_s = 0.003
cca_slot_s = 0.0015
initial_backoff_slots = 8
backoff_cap_slots = 64
max_retries = 3
strobe_timeout_s = 6.5
[bursty]
on_mean_s = 4
off_mean_s = 36
rate_factor = 8
"""


def _sweep_digest(tmp_path, *args) -> str:
    """Digest of the combined runs CSV; the sweep also writes high.csv and
    low.csv next to it for `compare`."""
    out = tmp_path / "runs.csv"
    assert main(["sweep", "--out", str(out),
                 "--out-high", str(tmp_path / "high.csv"),
                 "--out-low", str(tmp_path / "low.csv"), *args]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _report_and_compare_digests(tmp_path, capsys) -> tuple[str, str]:
    """Digests of `report` and `compare` stdout on the last sweep's CSVs.
    Two intervals are too few for a trend, and these grids break some
    ordering claims, so `compare` exits 1."""
    digests = []
    for argv, code in ((["report", str(tmp_path / "runs.csv")], 0),
                       (["compare", "--high", str(tmp_path / "high.csv"),
                         "--low", str(tmp_path / "low.csv")], 1)):
        capsys.readouterr()
        assert main(argv) == code
        digests.append(hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest())
    return tuple(digests)


def test_default_sweep_csv_is_byte_stable(tmp_path, capsys):
    # default config on a two-interval grid, one radio run per cell: 140 rows
    assert _sweep_digest(tmp_path, "--grid", "1 2", "--runs", "1") == (
        "285f3461bf8198c978882a488aec703ea124fd15a971c661f9607a91569c1b2b")
    assert _report_and_compare_digests(tmp_path, capsys) == (
        "9e090e343f7230aca9c5264e6573c1ce5443e54d1f026c4ebe79bcbaeb4a3859",
        "abd4491df5e2c117bc2ceeb547e969179116ae49a1338ba8e1698688d26cdb0a")


def test_every_ini_key_reaches_the_sweep(tmp_path, capsys):
    # a key wired into the wrong component changes the digest, which a
    # config holding only default values cannot show
    ini = tmp_path / "exp.ini"
    ini.write_text(_EVERY_KEY_INI)
    assert _sweep_digest(tmp_path, "--config", str(ini)) == (
        "7f4bf3fc6597f91fc03561f766b97d1e16ee6586637b45908f263a227463f918")
    assert _report_and_compare_digests(tmp_path, capsys) == (
        "68e7db261821e1513480b6862246e2d21c466ca2249852cf838fe0da6eb3e326",
        "e8fdc3f1574fe7d4ae1699d0d41162832267fd5664525b6c9dbf89eaff6d1724")


def test_energy_and_radio_keys_reach_the_sweep(tmp_path):
    # the mixed-case keys (tx_mW, energy_per_byte_mJ) arrive lower-cased
    # from configparser and must still load; the digest is that of the same
    # values given in code
    ini = tmp_path / "exp.ini"
    ini.write_text(_EVERY_KEY_INI
                   + "[energy]\n"
                   "energy_per_byte_mJ = 0.25\n"
                   "energy_per_poll_mJ = 1.5\n"
                   "energy_per_ack_mJ = 4\n"
                   "[radio]\n"
                   "tx_mW = 60\n"
                   "rx_mW = 31\n"
                   "listen_mW = 27\n"
                   "sleep_mW = 0.005\n")
    exp = load_experiment_config(str(ini))
    assert exp.energy.energy_per_byte_mJ == 0.25
    assert exp.radio.tx_mW == 60.0
    assert _sweep_digest(tmp_path, "--config", str(ini)) == (
        "96380a38c902be771daef0c0fe6f87a95b1f3524c50ecb79608a0231c965611b")
