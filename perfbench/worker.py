"""One workload in one process: set-up, one warm-up operation, then a
closed loop with one caller that repeats the workload's round of operations.

Started by ``run.py`` with the BLAS and OpenMP thread counts set to 1;
prints one JSON object on its last line.  Modes:

  setup   stop after the warm-up and report the set-up time only;
  run     time the loop and report latency, throughput and peak RSS;
  trace   time half the run plain and half under the span recorder, and
          report per-layer metrics and the recorder's overhead.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_TIMED_OPS = 100    # leaves at least ten operations beyond the p90
LOOP_CAP_S = 120.0     # a loop stops here even if MIN_TIMED_OPS is not reached


def timed_loop(wl, seconds, min_ops, span):
    """Run whole rounds until ``seconds`` have passed and ``min_ops``
    operations were timed; every run thus holds the same mix of slots."""
    times, failed, unexpected, failures = [], 0, 0, {}
    nslots = len(wl.slots)
    start = time.perf_counter()
    while True:
        for slot in range(nslots):
            t0 = time.perf_counter()
            try:
                with span("op"):
                    out = wl.run(slot, span)
            except (Exception, SystemExit) as exc:  # the CLI exits on errors
                out, problems = None, ["%s: %s" % (type(exc).__name__, exc)]
            times.append(time.perf_counter() - t0)
            if out is not None:
                problems = wl.check(slot, out)
            if problems:
                failed += 1
                unexpected += slot not in wl.kept_failing
                failures.setdefault(slot, problems[0])
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(times) >= min_ops):
            return {"times": times, "elapsed": elapsed, "failed": failed,
                    "unexpected": unexpected, "failures": failures}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ouchaos", "__init__.py")):
        print("perfbench: no ouchaos sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    import spans
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        rng = np.random.default_rng(
            np.random.SeedSequence([args.seed % (1 << 64), sum(args.workload.encode())]))
        wl = workloads.WORKLOADS[args.workload](rng, workdir)
        warm = wl.run(0, lambda name: contextlib.nullcontext())
        wl.check(0, warm)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "numpy": np.__version__}
        if args.mode == "run":
            loop = timed_loop(wl, args.seconds, MIN_TIMED_OPS,
                              lambda name: contextlib.nullcontext())
            times = loop.pop("times")
            result.update(loop, attempted=len(times),
                          ops_per_s=len(times) / loop["elapsed"],
                          op_p50_s=statistics.median(times),
                          op_p90_s=statistics.quantiles(times, n=10)[8],
                          peak_rss_mb=resource.getrusage(
                              resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        elif args.mode == "trace":
            half = 0.5 * args.seconds
            plain = timed_loop(wl, half, 1, lambda name: contextlib.nullcontext())
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = timed_loop(wl, half, 1, recorder.span)
            finally:
                recorder.uninstall()
            n = len(traced["times"])
            per_layer = recorder.per_layer(n)
            plain_rate = len(plain["times"]) / plain["elapsed"]
            per_layer["trace.overhead_pct"] = 100.0 * (
                1.0 - n / traced["elapsed"] / plain_rate)
            recorder.save(os.path.join(
                OUT_DIR, "trace-%s-seed%d.npz" % (args.workload, args.seed)))
            result.update(
                attempted=len(plain["times"]) + n,
                failed=plain["failed"] + traced["failed"],
                unexpected=plain["unexpected"] + traced["unexpected"],
                failures={**plain["failures"], **traced["failures"]},
                per_layer=per_layer)
        result["kept_failing"] = wl.kept_failing
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
