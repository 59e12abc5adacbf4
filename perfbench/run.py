#!/usr/bin/env python3
"""Builds `fjs` and the benchmark from this checkout, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-w1, serve-w2 (see perfbench/NOTES.md). Builds go to
$CARGO_TARGET_DIR (default `.bench_build`); run files go to
`.bench_build/perfbench`. The last line of standard output is the JSON
result.
"""

import os
import subprocess
import sys


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Cargo's progress goes to stderr so stdout stays the benchmark's.
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.environ["CARGO_TARGET_DIR"]
    build("Cargo.toml", "-p", "fjs-cli", "--bin", "fjs")
    build(os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "fjs-perfbench"),
           "--fjs", os.path.join(release, "fjs"), *sys.argv[1:]]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
