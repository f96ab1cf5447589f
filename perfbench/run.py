#!/usr/bin/env python3
"""Runs one benchmark workload end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. Builds the program from its own
sources (Release) into .bench_build/, generates the seeded inputs into
.bench_work/, runs the harness, removes the inputs again and prints the
harness's result JSON as the last line of standard output.
"""
import argparse
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("offline-dbpedia", "offline-lubm", "serve-remote")
TIME_LIMIT_S = 175.0
MEMORY_LIMIT = 8 << 30  # address space per process


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def limit_memory():
    # A runaway query fails this run instead of exhausting the host.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(cmd, timeout):
    """Runs cmd in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True, preexec_fn=limit_memory)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("timed out: " + " ".join(cmd))
    finally:
        # Anything the harness left behind in its group (it stops its own
        # site processes; this only guards against a crash).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("program sources (src/) not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], deadline - time.time())
        if code != 0:
            raise SystemExit("cmake configure failed")
    code, _ = run(["cmake", "--build", BUILD_DIR, "--target",
                   "perfbench_harness", "mpc_cli", "-j4"],
                  deadline - time.time())
    if code != 0:
        raise SystemExit("build failed")
    return (os.path.join(BUILD_DIR, "perfbench_harness"),
            os.path.join(BUILD_DIR, "mpc_tools", "mpc"))


def main():
    start = time.time()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    # The first run in a checkout builds; later runs find it built.
    first_build = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    deadline = start + (900.0 if first_build else TIME_LIMIT_S)
    harness, mpc = build(deadline)
    if first_build:
        deadline = time.time() + TIME_LIMIT_S

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload or "selftest",
                                              args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.selftest:
            code, out = run([harness, "selftest", "--dir", work],
                            deadline - time.time())
            sys.stdout.write(out)
            return code
        # Relative to the checkout (the harness runs there): the site
        # processes' UNIX socket paths live under it and must stay short.
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", os.path.relpath(work, ROOT)]
        code, out = run([harness, "gen"] + common, deadline - time.time())
        sys.stdout.write(out)
        if code != 0:
            raise SystemExit("input generation failed")
        code, out = run([harness, "run"] + common +
                        ["--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--mpc", mpc],
                        deadline - time.time())
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise SystemExit("harness failed (exit %d)" % code)
        for line in lines[:-1]:
            print(line)
        print(lines[-1], flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
