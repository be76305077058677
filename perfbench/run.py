#!/usr/bin/env python3
"""Builds and runs the Sieve benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve_prepared, adhoc_analytic, policy_churn (see
perfbench/README.md); "all" runs the three one after another, each in its
own process. The first run configures and builds a Release build of
src/ plus the benchmark binary under .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs only rebuild what changed. Build
output goes to a log file beside the build, never to standard output, so the
last line of standard output is the benchmark's one-line JSON result.
Result, span and layer files are written under .perfbench_out/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "Release"
WORKLOADS = ("serve_prepared", "adhoc_analytic", "policy_churn")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_logged(cmd, log):
    """Runs cmd with its output appended to the open log file."""
    return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if run_logged(cmd, log) != 0:
                fail(f"cmake configure failed; see {log_path}")
        if run_logged(["cmake", "--build", out, "-j", jobs], log) != 0:
            fail(f"build failed; see {log_path}")
    return os.path.join(out, "sieve_perfbench")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the files the binary is built from, for checkouts
    without git history."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(ROOT, ".perfbench_out"),
               "--commit", commit_id(), "--source-digest", source_digest()]
        sys.stdout.flush()
        rc = subprocess.run(cmd, cwd=ROOT).returncode or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
