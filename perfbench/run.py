#!/usr/bin/env python3
"""Build the benchmark crate beside this file and run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The crate is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target); build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
`--workload all` runs every workload named in BENCHMARK.json, one
process each, and ends with one JSON line over all of them, metric
names prefixed by workload. Exits non-zero when the build fails, a run
fails or a check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, flag):
    if flag in argv and argv.index(flag) + 1 < len(argv):
        return argv[argv.index(flag) + 1]
    return None


def run_one(exe, argv, out_dir, workload):
    args = list(argv)
    args[args.index("--workload") + 1] = workload
    proc = subprocess.run([exe, *args, "--out", out_dir], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    argv = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    workload = arg(argv, "--workload")
    if workload != "all":
        code, _ = run_one(exe, argv, out_dir, workload or "")
        return code

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        rc, result = run_one(exe, argv, out_dir, name)
        if rc != 0 or result is None:
            code = rc or 1
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return code


if __name__ == "__main__":
    sys.exit(main())
