"""Steadiness check: run workloads repeatedly and report each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workload quantize --seeds 1 2 3 4 5

The spread is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread
stays below a third of its bound; ``setup_s`` is reported but its spread is
not held to the bound.  Runs are made one after another, never in parallel,
so they do not compete for the cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            steady &= res["correct"]
            shares.add((res["failed"] * 1.0 / res["attempted"]))
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (n, v[-1]) for n, v in values.items())), flush=True)
        print("%-12s %-12s %11s %11s %11s %8s %6s" % (
            "workload", "metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            held = name == "setup_s" or spread < bounds[name] / 3.0
            steady &= held
            print("%-12s %-12s %11.5g %11.5g %11.5g %7.2f%% %5.0f%% %s" % (
                workload, name, q1, med, q3, 100.0 * spread,
                100.0 * bounds[name], "" if held else "  <- above a third of the bound"))
        print("%-12s failed share over %d runs: %s\n" % (
            workload, len(args.seeds), ", ".join("%.6f" % s for s in sorted(shares))))
        steady &= len(shares) == 1
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
