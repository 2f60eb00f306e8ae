#!/usr/bin/env python3
"""Builds the benchmark and the bdlfi-serve daemon from source, then runs
one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build). Build output goes to standard error, so the last line of
standard output is the benchmark's result line. Exits non-zero, without a
result, when the sources are missing or a build fails.
"""

import os
import subprocess
import sys

BENCH_MANIFEST = os.path.join("perfbench", "Cargo.toml")
ROOT_MANIFEST = "Cargo.toml"


def main():
    for manifest in (ROOT_MANIFEST, BENCH_MANIFEST):
        if not os.path.isfile(manifest):
            print(f"run.py: {manifest} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", ROOT_MANIFEST, "-p", "bdlfi-serve", "--bin", "bdlfi-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", BENCH_MANIFEST],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "bdlfi-perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "bdlfi-serve")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
