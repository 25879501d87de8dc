#!/usr/bin/env python3
"""Build the benchmark and mantled from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zipf-row --seed 1 --seconds 10 --trace 0

Workloads: zipf-row, flash-crowd, daemon-loopback. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones; the last line of
stdout is the JSON result. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`). Exits non-zero when the sources are missing, a build
fails, or an output check fails.
"""

import os
import subprocess
import sys

BUILDS = [
    # mantled, exactly as users build it from the root workspace.
    ["cargo", "build", "--release", "--offline", "-p", "mantle-daemon", "--bin", "mantled"],
    # The benchmark binary, a cargo workspace of its own.
    ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
]


def main():
    root = os.getcwd()
    for need in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for cmd in BUILDS:
        # Build output goes to stderr so stdout ends with the result.
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: `{' '.join(cmd)}` failed", file=sys.stderr)
            return built.returncode or 1
    bench = os.path.join(target, "release", "perfbench")
    mantled = os.path.join(target, "release", "mantled")
    sys.stdout.flush()
    return subprocess.run([bench, *sys.argv[1:], "--mantled", mantled], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
