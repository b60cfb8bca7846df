#!/usr/bin/env python3
"""Builds and runs the calperf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale F]

Run it from the root of the repository. The first run configures and
builds perfbench/ in Release, together with the library sources under
src/, into .bench_build/calperf; later runs rebuild only what changed.
Build output goes to stderr. The benchmark's own output goes to stdout and
ends with one JSON line; perfbench/README.md describes it.
"""
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "calperf")
BINARY = os.path.join(BUILD_DIR, "calperf")
RUN_TIMEOUT_S = 175


def cached_source():
    """The source directory the existing build tree was configured from."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at src/; run from the repository root")
    if cached_source() != BENCH_DIR:
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "calperf", "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")
    sys.stdout.flush()
    proc = subprocess.Popen([BINARY] + sys.argv[1:])

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: calperf did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
