#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload pagerank --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
library and the benchmark in Release mode under .bench_build/perfbench (a
few minutes); later calls only rebuild what changed. The benchmark binary's
text lines are passed through. Its last line is the JSON result with bare
metric values; this script checks that it names exactly the metrics
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1), adds each metric's declared unit, and prints the result as
the last line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "spdistal", "spdistal.h")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    # The binary clears and pins the library's knobs itself; drop them here
    # too so nothing inherited reaches it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPDISTAL_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode or 1)
    print("\n".join(lines[:-1]))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = json.loads(lines[-1])
    values = result["metrics"]
    if set(values) != set(units):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - set(values)),
                sorted(set(values) - set(units))))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
