#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Run from the root of a checkout.  Configures and builds perfbench/ (which
compiles the library from src/) into .bench_build/, runs one workload, checks
that it reported exactly the metrics BENCHMARK.json names for the mode, and
relays its output.  The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--workload all` runs every workload in turn, each ending in its own result
line, and stops at the first that fails.

Exit status: 0 on a correct run; non-zero, without a result line, when the
build, the run or the metric check fails, and with a result line whose
"correct" is false when an answer differed from its oracle.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
WORKLOADS = ("paper_mine", "paper_sim", "service_mix", "stream_append")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a full checkout", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The git sha when the checkout is itself a repository, else a digest of the sources."""
    try:
        if not os.path.exists(".git"):  # never let git search the parent directories
            raise OSError("not a repository")
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root in ("src", "perfbench"):
        for folder, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    if result["attempted"] < 1:
        raise ValueError("no operation was attempted")


def run_workload(binary, workload, args):
    """Run one workload, relay its output, and return its exit status."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size,
               "--out-dir", RESULTS_DIR, "--git-sha", source_id()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"perfbench exited with status {run.returncode} and no result")
    try:
        check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError, TypeError) as error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"bad result: {error}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()

    binary = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = run_workload(binary, workload, args)
        if status != 0:
            sys.exit(status)


if __name__ == "__main__":
    main()
