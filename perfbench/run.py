#!/usr/bin/env python3
"""Serving benchmark for vbsrm_serve.

    python3 perfbench/run.py --workload fit_mix --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds the daemon and the load driver from
source into .bench_build/perfbench (the first run compiles for about a
minute; later runs only check the build), then runs one measurement and
prints the driver's output, whose last line is the result object.  Exits
non-zero without a result when the build, the run or its correctness gate
fails.  Workloads and every constant live in perfbench/config.json; the
run length is fixed there (run_seconds) and --seconds must match it.  The
metric -> layer -> workload table is in perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CONFIG = os.path.join(HERE, "config.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the daemon, driver and self-test."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "vbsrm_serve", "perfbench_driver", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def run_group(cmd):
    """Run `cmd` in its own process group (it spawns the daemon) and make
    sure every process of the group is gone before returning."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("run timed out")
        return 1, out
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    with open(CONFIG) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    code, out = run_group([
        os.path.join(BUILD, "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--config", CONFIG, "--daemon", os.path.join(BUILD, "vbsrm", "serve", "vbsrm_serve"),
        "--trace-dir", BUILD,
    ])
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        log("driver exited with %d" % code)
        return code
    result = json.loads(lines[-1])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not result["correct"]:
        log("correctness gate failed")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
