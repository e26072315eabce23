#!/usr/bin/env python3
"""End-to-end benchmark of the Secure Spread stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call builds the benchmark (perfbench/CMakeLists.txt, a Release
build of src/ plus the benchmark binary) into .bench_build/perfbench. Each
run prints every metric by name with its unit, then a provenance line, and
as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace 1
reports its per-layer metrics from a traced pass, after checking the trace
with tools/obs_report --check. The full result, with every metric the run
produced, failure breakdown and provenance (nproc, CPU model, build type,
compiler, commit, source digest), is written to
.bench_build/perfbench-results/. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
RESULTS_DIR = os.path.join(".bench_build", "perfbench-results")
WORKLOADS = ("mcast_small", "mcast_large", "churn", "gate_fanout")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the binaries; returns their paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=subprocess.STDOUT, check=False)
        jobs = str(max(1, os.cpu_count() or 1))
        r = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                            "--target", "ss_perfbench", "pb_obs_report"],
                           stdout=log, stderr=subprocess.STDOUT, check=False)
    if r.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail(f"build failed (log: {log_path}):\n{tail}")
    return (os.path.join(BUILD_DIR, "ss_perfbench"),
            os.path.join(BUILD_DIR, "pb_obs_report"))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             check=False).stdout
        compiler = out.splitlines()[0] if out else compiler
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           check=False)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "commit": commit,
        "source_sha1": digest.hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    # The benchmark builds the program it measures from the checkout it
    # runs in; without the sources there is nothing to measure.
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.isfile(need):
            fail(f"run from the root of a Secure Spread checkout ({need} not found)", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    bench, checker = build()
    if args.selftest:
        sys.exit(subprocess.run([bench, "--selftest"], check=False).returncode)

    out_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                           check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    trace_ok = True
    if args.trace == 1:
        chk = subprocess.run([checker, "--check", os.path.join(out_dir, "trace.json")],
                             capture_output=True, text=True, check=False)
        trace_ok = chk.returncode == 0
        print("obs_report --check: " + ("pass" if trace_ok else "FAIL"))
        for line in chk.stdout.splitlines():
            print("  " + line)

    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"{args.workload}: metric {m['name']} was not measured "
                 f"(flagged: {result.get('flagged')})")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    correct = bool(result["correct"]) and trace_ok
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, trace_check_ok=trace_ok, provenance=prov)
    with open(os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
