#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Builds the library, lrdq_solve, lrdq_serve and lrd_perfbench
(Release) into .bench_build, or $CARGO_TARGET_DIR when that is set, then
runs lrd_perfbench. Its last line of standard output is the
result object; build output goes to standard error. `--workload all`
runs the three workloads in one process. Exits non-zero without a
result when the sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep_cold", "solve_tight", "serve_mixed", "all")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (no src/CMakeLists.txt here)",
              file=sys.stderr)
        return 2
    # Relative paths keep the daemon's unix socket name short.
    build = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", root)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs, "--target",
                  "lrd_perfbench", "lrdq_solve", "lrdq_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3

    work = os.path.join(build, "run-%d" % os.getpid())
    bench = [os.path.join(build, "lrd_perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--tools-dir", os.path.join(build, "lrdfluid", "tools"),
             "--work-dir", work]
    env = dict(os.environ, TMPDIR=os.path.abspath(work))
    sys.stdout.flush()
    code = subprocess.run(bench, env=env).returncode
    if not args.trace:  # a traced run keeps its span files for reading
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
