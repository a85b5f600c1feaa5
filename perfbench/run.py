#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload compile|serve_open|estimate \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build); later runs
only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: nonzero when the build fails or any output check fails.

BENCHMARK.json is the one list of metric names and units: the result
carries exactly the metrics it lists (end-to-end untraced, per-layer
traced). A metric the program measures that BENCHMARK.json does not
list, or an end-to-end metric it did not measure, fails the run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
LEDGER = os.path.join(HERE, "ledger.json")


def load_spec():
    """The metric lists of BENCHMARK.json, checked against ledger.json."""
    with open(SPEC) as f:
        spec = json.load(f)
    with open(LEDGER) as f:
        ledger = json.load(f)
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(ledger["layers"]) != sorted(per_layer):
        drift = set(ledger["layers"]) ^ set(per_layer)
        raise ValueError("ledger.json layers differ from BENCHMARK.json per_layer: "
                         + ", ".join(sorted(drift)))
    return spec


def result_line(raw, spec, traced):
    """The contract's result line from the program's `values`."""
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = raw["values"]
    attempted, failed = raw["attempted"], raw["failed"]
    for name in sorted(set(values) - known):
        print(f"perfbench: CHECK FAILED: {name} is measured but not listed "
              "in BENCHMARK.json", file=sys.stderr)
        attempted, failed = attempted + 1, failed + 1
    metrics = {}
    for m in listed:
        if m["name"] in values:
            value = values[m["name"]]
        elif traced:
            value = 0.0  # A layer the workload leaves idle.
        else:
            print(f"perfbench: CHECK FAILED: end-to-end metric {m['name']} "
                  "not measured", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"] and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: bad metric lists: {e}", file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build_root, "perfbench-out")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(argv):
        return subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            print("perfbench: configure failed", file=sys.stderr)
            return 2
    if step(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    cli = os.path.join(build_dir, "ftsp", "ftsp_cli")
    proc = subprocess.run([binary, *sys.argv[1:], "--cli", cli, "--out-dir", out_dir],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
        traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
        result = result_line(raw, spec, traced)
    except (IndexError, ValueError, KeyError):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
