#!/usr/bin/env python3
"""Serving benchmark of wmlp-serve: build from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload pipelined --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds the `wmlp-serve` binary (root workspace) and the benchmark driver
(`perfbench/`, a Cargo workspace of its own) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the driver. The driver prints every
metric by name with its unit and, as its last line, one JSON result; it
writes spans and on-disk stores under `.bench_out/`. The exit code is
nonzero when a build or any output check fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ("Cargo.toml", ["-p", "wmlp-serve", "--bin", "wmlp-serve"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ]
    for manifest, extra in builds:
        if not os.path.isfile(manifest):
            print(f"run.py: {manifest} not found; run from the repository root", file=sys.stderr)
            return 2
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build of {manifest} failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "wmlp-perfbench"),
        "--serve-bin",
        os.path.join(release, "wmlp-serve"),
        "--out-dir",
        ".bench_out",
        *sys.argv[1:],
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
