#!/usr/bin/env python3
"""Build and run servebench from the root of a wqe checkout.

    python3 servebench/run.py --workload cold_miss --seed 1 --seconds 10 --trace 0

On first use this configures and builds servebench/ -- the benchmark and
the wqe library it measures, from this checkout's sources -- in
.bench_build/servebench (Release).  Later runs rebuild only what changed.
It then runs the benchmark with the given arguments; the benchmark's JSON
result is the last line of stdout, and build output goes to stderr.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
WORK = ROOT / ".bench_build" / "servebench-work"


def run_to_stderr(cmd):
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit(f"servebench: {' '.join(cmd)} failed")


def main():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"servebench: {ROOT} holds no wqe source tree to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_to_stderr(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_to_stderr(["cmake", "--build", str(BUILD), "-j", jobs,
                   "--target", "servebench"])

    bench = subprocess.Popen([str(BUILD / "servebench"), *sys.argv[1:],
                              "--work-dir", str(WORK)])
    # Stop the benchmark with us, and never leave it running.
    signal.signal(signal.SIGTERM, lambda *_: bench.terminate())
    try:
        code = bench.wait()
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
