"""Reference figures that stay out of the workloads: the wall time of each
CLI subcommand on its default config as a whole process, and the
in-process time of ``verify``.

    python3 perfbench/reference.py [--repeats 5]

Prints the median over the repeats.  ``verify`` is one fixed suite that
spans every module, so inside a workload it would make latency bimodal.
"""

import argparse
import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

from run import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMMANDS = ("verify", "hyper-scan", "decay", "hs-table", "mehler-demo")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    src = os.path.join(ROOT, "src")
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    env = dict(os.environ, PYTHONPATH=src)
    for cmd in COMMANDS:
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "ouchaos.cli", cmd], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - t0)
        print("subprocess %-12s %.3f s" % (cmd, statistics.median(times)))

    sys.path.insert(0, src)
    from ouchaos import cli
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify"], standalone_mode=False)
        times.append(time.perf_counter() - t0)
    print("in-process verify        %.3f s" % statistics.median(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
