#!/usr/bin/env python3
"""Builds and runs the OmniMatch benchmark (see README.md in this directory).

    python3 omnibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the repository's libraries and
the benchmark binary into $CARGO_TARGET_DIR (default .bench_build), trains
the serving fixture for the seed once (cached next to the build), runs the
workload and prints the binary's report; the last line is one JSON object.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train", "serve_warm", "serve_cold", "score_int8")
SERVING = ("serve_warm", "serve_cold", "score_int8")
FIXTURE_REJECTED = 3  # the binary's exit code when the fingerprint check fails
RUN_TIMEOUT_S = 170
FIXTURE_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then lets the build tool bring the binary up to date."""
    bin_dir = os.path.join(build_dir, "omnibench")
    if not os.path.exists(os.path.join(bin_dir, "build.ninja")) and not \
            os.path.exists(os.path.join(bin_dir, "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bin_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bin_dir, "--target", "omnibench",
                    "-j", "3"], check=True, stdout=sys.stderr)
    return os.path.join(bin_dir, "omnibench")


def make_fixture(binary, path, seed):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    subprocess.run([binary, "--make_fixture", path, "--seed", str(seed)],
                   check=True, stdout=sys.stderr, timeout=FIXTURE_TIMEOUT_S)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"omnibench: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    fixture = None
    if args.workload in SERVING:
        fixture = os.path.join(build_dir, "fixtures", f"seed{args.seed}.omck")
        cmd += ["--fixture", fixture]
    try:
        if fixture and not os.path.exists(fixture):
            make_fixture(binary, fixture, args.seed)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if fixture and proc.returncode == FIXTURE_REJECTED:
            # Written by an older build whose config fingerprint differs.
            log("omnibench: fixture rejected by the fingerprint check; "
                "retraining it")
            os.remove(fixture)
            make_fixture(binary, fixture, args.seed)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log(f"omnibench: {e}")
        return 1
    if proc.returncode != 0:
        log(f"omnibench: exit code {proc.returncode}")
        sys.stdout.write(proc.stdout)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace == "1")
    if declared is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != declared:
            log(f"omnibench: metrics differ from BENCHMARK.json: "
                f"{sorted(set(got.items()) ^ set(declared.items()))}")
            return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
