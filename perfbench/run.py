#!/usr/bin/env python3
"""Builds and runs the canonical AIQL benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload soc-sharded --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the AIQL libraries from this source tree)
into .bench_build/, or into $CARGO_TARGET_DIR when that is set, then runs
one workload. The benchmark's report goes to stdout; its last line is one
JSON object {correct, attempted, failed, metrics}. A full result file with
the run's configuration is written to <build dir>/results/. Exit status is
non-zero when the build fails, when the source tree is missing, or when any
reply differs from the reference.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single benchmark process may run before it is killed.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if not f.endswith(".pyc"))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    """HEAD of the repository at ROOT; "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, os.cpu_count() or 1))
    cache = os.path.join(cmake_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another copy of the sources cannot
        # be reused; start it afresh.
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(cmake_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the AIQL source tree (CMakeLists.txt, src/) is not "
            "next to " + HERE + "; nothing to build")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 2

    workdir = os.path.join(build_dir, "work",
                           "%s-%d" % (args.workload, os.getpid()))
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", workdir,
               "--results", os.path.join(build_dir, "results"),
               "--commit", commit_id(),
               "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    try:
        summary = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        summary = None
    if not isinstance(summary, dict) or "metrics" not in summary:
        log("perfbench: run exited %d without a result line" % done.returncode)
        return done.returncode or 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
