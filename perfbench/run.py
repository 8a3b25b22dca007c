#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: table1, campaign, serve_seq (see perfbench/NOTES.md).
The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the workspace crates; it is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root) and then
run. Its stdout passes through unchanged: human-readable lines, then one
JSON result line. The exit code is non-zero when the build or the run fails,
in which case no result line is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The first build in a fresh checkout compiles every workspace crate.
BUILD_TIMEOUT_S = 850
# A run must end within 180 s; leave room for start-up and the no-op build.
RUN_TIMEOUT_S = 165


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table1", "campaign", "serve_seq"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(HERE, "reference")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stdout or b"").decode(errors="replace")
                         if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    problem = check_result(run.stdout, args.trace)
    if problem:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


def check_result(stdout, trace):
    """Checks the result line against BENCHMARK.json: exactly the declared
    metrics of the mode, each with its declared unit. Returns a problem or
    None."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON result line"
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if want != got:
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}"
    return None


if __name__ == "__main__":
    sys.exit(main())
