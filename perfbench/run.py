#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (its own cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with a two-thread pool. Build output
goes to stderr, so the last line of stdout is the run's JSON result. Exits
non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = "2"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
        spans = os.path.join(target, "perfbench-spans", f"{workload}-{seed}.jsonl")
        args += ["--spans", spans]
    env["UFIM_THREADS"] = THREADS
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
