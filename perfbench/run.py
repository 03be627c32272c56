#!/usr/bin/env python3
"""Build the Ivory benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

W is dse_study or pdn_transient. The first
call in a checkout configures and builds the repository's libraries, the
`ivory` binary and the benchmark into .bench_build/perfbench (CMake,
RelWithDebInfo); later calls only check that the build is current. Build
output goes to stderr; stdout carries only the benchmark's report, whose
last line is {"correct", "attempted", "failed", "metrics"}. --selftest runs
the checkers' self-test instead. Exit status: 0 on success, 1 when a
correctness check or an operation fails, 2 on bad arguments or a missing
source tree.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ["dse_study", "pdn_transient"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's src/ tree is missing next to perfbench/; "
             "run from a full checkout", 2)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
           "perfbench_selftest", "ivory"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.print_usage(sys.stderr)
        fail("--workload, --seed, --seconds and --trace are required", 2)
    if not args.selftest and (args.seed < 0 or args.seconds <= 0):
        fail("--seed must be >= 0 and --seconds > 0", 2)

    os.chdir(ROOT)  # sockets and stores use short paths relative to the checkout
    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--ivory", os.path.abspath(os.path.join(BUILD, "ivory")),
           "--run-dir", RUN_DIR, "--git-sha", git_sha()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
