"""adpsim benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/` there
and from nowhere else. The workload repeats identical rounds of operations
until the next round would end past `--seconds` (at least one round, two
for the sweep), then prints one `name = value unit` line per metric and,
as its last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones: set-up time (median
of three fresh interpreters that import adpsim and build the workload's
configs and seeds), the median round time, the median operation time and
the peak resident memory of this process. With `--trace 1` untraced and
traced rounds alternate, and the metrics are the per-layer ones (see
layers.py), with the traced-minus-untraced round time as `trace.overhead_s`.
Every time is corrected for the speed the host gave the run (see meter.py).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from meter import REFERENCE_S, Meter, reference_loop, sample_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("sweep", "radio-saturated", "byte-cost")


def import_program():
    """Import adpsim from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import adpsim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import adpsim from {src}: {exc}")
    if src.resolve() not in Path(adpsim.__file__).resolve().parents:
        raise SystemExit(f"error: adpsim imported from {adpsim.__file__}, not {src}")
    import workloads
    return workloads


def build(workloads, name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir)


def probe_setup(args) -> None:
    """Child side of a set-up measurement: import, build, report, exit."""
    workloads = import_program()
    build(workloads, args.workload, args.seed, Path(args.setup_probe))
    print("ready", flush=True)


def measure_setup(args, workdir: Path) -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter to its workload
    being ready for the first timed operation: corrected with the host
    speed sampled just before and after each probe, and raw."""
    corrected, raw = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1",
               "--setup-probe", str(workdir / f"probe{i}")]
        before = sample_speed()
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited with {code}")
        after = sample_speed()
        raw.append(ready - start)
        corrected.append(raw[-1] * 2.0 * REFERENCE_S / (before + after))
    return statistics.median(corrected), statistics.median(raw)


class Rounds:
    """What the rounds of one run measured."""

    def __init__(self) -> None:
        self.walls = {False: [], True: []}     # corrected, by traced
        self.raw_walls = {False: [], True: []}
        self.op_seconds: list[float] = []      # corrected, untraced rounds
        self.raw_op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.layers: list[dict] = []           # per traced round

    @property
    def count(self) -> int:
        return len(self.walls[False]) + len(self.walls[True])


def run_rounds(workload, seconds: float, tracer=None) -> Rounds:
    """Identical rounds until the next would end past `seconds`. With a
    tracer, odd rounds are traced; the run always ends on a traced round."""
    done = Rounds()
    start = perf_counter()
    while True:
        traced = tracer is not None and done.count % 2 == 1
        if done.count >= workload.MIN_ROUNDS and not traced:
            typical = statistics.mean(done.raw_walls[False] + done.raw_walls[True])
            if perf_counter() - start + typical > seconds:
                break
        gc.collect()  # start every round without the last one's garbage
        if traced:
            with tracer.traced_round():
                meter = Meter(loop=tracer.wrap(reference_loop, "bench.reference_loop"))
                bad = workload.run_round(meter)
            done.layers.append(tracer.round_metrics(meter.wall() / meter.raw_wall()))
        else:
            meter = Meter()
            bad = workload.run_round(meter)
            done.op_seconds += meter.op_seconds()
            done.raw_op_seconds += [s for s, _ in meter.ops]
        done.walls[traced].append(meter.wall())
        done.raw_walls[traced].append(meter.raw_wall())
        done.attempted += workload.ops_per_round
        done.failed += bad
    return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe is not None:
        probe_setup(args)
        return 0

    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    setup = None if args.trace else measure_setup(args, workdir)
    workloads = import_program()
    from layers import UNITS, Tracer, combine_rounds
    workload = build(workloads, args.workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    done = run_rounds(workload, args.seconds, tracer)

    correct = not workload.problems
    for problem in workload.problems[:5]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    median = statistics.median
    print(f"# {args.workload} seed {args.seed}: {done.count} rounds, "
          f"{done.attempted} operations, {done.failed} failed")
    print(f"# round seconds, corrected: {[round(w, 3) for w in done.walls[False]]} "
          f"untraced, {[round(w, 3) for w in done.walls[True]]} traced")
    print(f"# round seconds, raw: {[round(w, 3) for w in done.raw_walls[False]]} "
          f"untraced, {[round(w, 3) for w in done.raw_walls[True]]} traced")
    if args.trace:
        metrics, steady = combine_rounds(done.layers)
        if not steady:
            correct = False
            print("per-layer counts differ between traced rounds", file=sys.stderr)
        metrics["trace.overhead_s"] = median(done.walls[True]) - median(done.walls[False])
        metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in UNITS.items()}
        write_spans(tracer, args)
    else:
        print(f"# raw medians: setup {setup[1]:.4f} s, "
              f"round {median(done.raw_walls[False]):.4f} s, "
              f"operation {median(done.raw_op_seconds) * 1e3:.4f} ms")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "wall_s": {"value": median(done.walls[False]), "unit": "s"},
            "op_ms_p50": {"value": median(done.op_seconds) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": correct, "attempted": done.attempted, "failed": done.failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def write_spans(tracer, args) -> None:
    """Every span of every traced round, one JSON object per line."""
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for r, spans in enumerate(tracer.rounds):
            for name, start, end, parent in spans:
                fh.write(json.dumps({"round": r, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
