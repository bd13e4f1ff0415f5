#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_cold|scale_200k \
        --seed N --seconds S --trace 0|1 [--threads N]

Builds `pao` (the CLI the served workloads spawn) and the `perfbench`
binary in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs that binary with its working files under `<target>/work`. The
last line of standard output is the JSON result; everything else is
human-readable context (stamp, per-metric sample counts, span self times).
Exits non-zero, without a result, when the program sources are missing or
a build or run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        fail("program sources not found next to the benchmark; run from a full checkout")
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target, ["-p", "pao-cli"])
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    env = dict(os.environ,
               PERFBENCH_REV=capture(["git", "rev-parse", "--short", "HEAD"]),
               PERFBENCH_RUSTC=capture(["rustc", "--version"]))
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--pao", os.path.join(target, "release", "pao"),
           "--work", os.path.join(target, "work")]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
