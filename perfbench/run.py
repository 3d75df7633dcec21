#!/usr/bin/env python3
"""Build the repository and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
libraries, dp_train, dpho_worker and the perfbench program into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is perfbench's JSON result.  Per-layer metrics that a workload does
not exercise are reported as 0 so that every traced run lists every
per-layer metric named in BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the repository root: no CMakeLists.txt and src/ here")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found in " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    binary = os.path.join(build_dir, "bin", "perfbench")
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"]).returncode)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "perfbench-work"),
               "--fixture-dir", os.path.join(build_dir, "perfbench-fixtures"),
               "--bin-dir", os.path.join(build_dir, "bin"),
               "--git-sha", git_sha()]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s exited with code %d and no result" % (args.workload, run.returncode))
    if run.returncode != 0:
        # A failed output check: show the result (correct: false) and fail.
        print(json.dumps(result), flush=True)
        sys.exit(1)

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    for metric in expected:
        if metric["name"] in metrics:
            continue
        if not args.trace:
            fail("end-to-end metric %s missing" % metric["name"])
        metrics[metric["name"]] = {"value": 0, "unit": metric["unit"]}
    unknown = set(metrics) - {m["name"] for m in expected}
    if unknown:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(sorted(unknown)))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
