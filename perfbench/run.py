"""Benchmark entry point.

    python3 perfbench/run.py --workload quantize --seed 0 --seconds 30 --trace 0

Runs one workload (``quantize``, ``ou-tables`` or ``monte-carlo``) in its own
single-threaded process and prints, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` is the
median over SETUP_REPEATS processes, each timed from its start to the
start of its loop; the last of them also runs the timed loop.  With
``--trace 1`` a single process reports the per-layer metrics of the span
recorder and its overhead.  Sources are imported from ``src/`` of the
checkout this file sits in; nothing is installed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
BUDGET_S = 170.0       # every worker of one run is stopped by then
# Workers run on one fixed core, the highest-numbered one this process may
# use: on the 2-core machine the benchmark was tuned on, core 0 takes the
# virtio interrupts and showed about three times core 1's steal time.
CORE = max(os.sched_getaffinity(0))
DEADLINE = time.monotonic() + BUDGET_S


def child(workload, seed, seconds, mode):
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
         "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(DEADLINE - t0, 1.0),
        preexec_fn=lambda: os.sched_setaffinity(0, {CORE}))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s worker exited with code %d"
                 % (workload, proc.returncode or 1))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.trace:
        res = child(args.workload, args.seed, args.seconds, "trace")
    else:
        setups = [child(args.workload, args.seed, args.seconds, "setup")["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        res = child(args.workload, args.seed, args.seconds, "run")
        setups.append(res["setup_s"])

    print("# workload=%s seed=%d nproc=%d core=%d numpy=%s %s"
          % (args.workload, args.seed, os.cpu_count(), CORE, res["numpy"],
             " ".join("%s=1" % var for var in THREAD_VARS)))
    print("# attempted=%d failed=%d (kept failing: %d)"
          % (res["attempted"], res["failed"], res["failed"] - res["unexpected"]))
    for slot, problem in sorted(res["failures"].items()):
        known = res["kept_failing"].get(slot)
        print("# slot %s %s: %s" % (slot, "kept failing, " + known if known
                                    else "FAILED", problem))
    if args.trace:
        values, listed = res["per_layer"], spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups)}
        values.update({name: res[name] for name in
                       ("ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mb")})
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": res["unexpected"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
