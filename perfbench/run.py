#!/usr/bin/env python3
"""Build and run the OGB benchmark from the repository root.

    python3 perfbench/run.py --workload dispatch-bound --seed 1 --seconds 10 --trace 0

Workloads: dispatch-bound, serve-mixed (see README.md).
Builds the benchmark and the `ogb` CLI with dune, runs one workload in a
private directory under .bench_run/ (its JIT caches, temporary files,
daemon socket and logs), removes that directory on exit, and stops
every process it started.  The last line of standard output is the
result object; the human-readable report goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("dispatch-bound", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the repository root (no dune-project here)")

    # Defaults everywhere: the machine's domain count, no fault injection,
    # no daemon overrides; every cache and temporary file is private.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OGB_")}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/ogb_cli.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.exit("run.py: build failed")

    rundir = os.path.join(".bench_run", str(os.getpid()))
    os.makedirs(os.path.join(rundir, "tmp"))
    env["TMPDIR"] = os.path.abspath(os.path.join(rundir, "tmp"))
    env["XDG_RUNTIME_DIR"] = env["TMPDIR"]
    env["OGB_JIT_CACHE"] = os.path.join(rundir, "jit-init")
    proc = None

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        proc = subprocess.Popen(
            ["./_build/default/perfbench/main.exe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--rundir", rundir, "--cli", "./_build/default/bin/ogb_cli.exe"],
            env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        sys.stdout.write(out)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: the benchmark did not finish in time\n")
        code = 1
    finally:
        if proc is not None:
            # the daemon runs in the benchmark's process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
