"""One cProfile'd round of a workload: the share of host time spent in the
radio model's strobe-train fast paths.

    python3 perfbench/profile_replay.py --workload radio-saturated --seed 1

cProfile adds a cost to every Python call, which inflates call-heavy code
such as the replay loop; use the shares to rank, and run.py for times.
"""
from __future__ import annotations

import argparse
import cProfile
import pstats
from pathlib import Path

import run
from meter import Meter

FAST_PATHS = ("_on_backoff_expired", "_train_jump")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads = run.import_program()
    workdir = run.OUT / f"profile-{args.workload}-{args.seed}"
    workload = run.build(workloads, args.workload, args.seed, workdir)
    profile = cProfile.Profile()
    # one host-speed sample at each end of the round, none in between
    profile.runcall(workload.run_round, Meter(period_s=float("inf")))
    stats = pstats.Stats(profile)
    total = stats.total_tt
    print(f"{args.workload} seed {args.seed}: {total:.2f} s under cProfile")
    cumulative = dict.fromkeys(FAST_PATHS, 0.0)
    for (path, _, func), row in stats.stats.items():
        if func in cumulative and Path(path).name == "lowsim.py":
            cumulative[func] = row[3]
    for func, seconds in cumulative.items():
        print(f"  lowsim.{func}: {seconds:.2f} s cumulative, "
              f"{100 * seconds / total:.1f} % of the round")


if __name__ == "__main__":
    main()
