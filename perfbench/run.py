#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build; later calls rebuild incrementally. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The line before it ("perfbench-info: ...")
carries the exact counts, digests, tail percentile, seed and host
fingerprint; the same record is kept under <build>/perfbench/results/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(out):
    """Configures once, then builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no mvcom sources at {ROOT / 'src'}; run from a full checkout")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "mvcom_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "mvcom_perfbench"


def host_fingerprint(info):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (the self-test uses this)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    runs = out / "runs"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(runs)]
    if args.tiny:
        command.append("--tiny")
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {BINARY_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result")
    raw = json.loads(lines[-1])

    metrics = {}
    missing = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not reported")
            # A layer this workload does not exercise did no work.
            got = {"value": 0.0, "unit": m["unit"]}
            missing.append(m["name"])
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']!r}, "
                 f"BENCHMARK.json says {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = sorted(set(raw["metrics"]) - set(metrics))
    if extra:
        fail(f"metrics not in BENCHMARK.json: {', '.join(extra)}")

    info = dict(raw["info"])
    info["host"] = host_fingerprint(info)
    info["not_exercised"] = missing
    info["elapsed_s"] = round(time.monotonic() - started, 3)
    result = {"correct": bool(raw["correct"]) and raw["attempted"] >= 1,
              "attempted": max(int(raw["attempted"]), 1),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    record = {"result": result, "info": info}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench-info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
