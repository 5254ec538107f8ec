#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.json]

Run from any directory; the build goes to .bench_build/ at the repository
root (configured on first use, rebuilt incrementally after). The binary's
own lines are passed through, then the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end_to_end
metrics of BENCHMARK.json with --trace 0, its per_layer metrics with
--trace 1 (which also writes a Chrome trace to .bench_build/). --out
appends the binary's full result to a JSON array file, the input of
agree.py. The exit status is non-zero when the sources are missing, the
build fails, a metric is missing, or a correctness gate fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def stop(proc):
    """Kills proc's whole process group and waits for proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group. On a timeout, or when run.py is
    interrupted or terminated, kills the whole group (compilers under make
    included) and waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")
    except BaseException:
        stop(proc)
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no simulator sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed ({code})")


def append_result(path, result):
    results = []
    if path.is_file():
        results = json.loads(path.read_text())
    results.append(result)
    path.write_text(json.dumps(results, indent=1) + "\n")


def main():
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload}")
    build()

    cmd = [str(BUILD / "bench_e2e"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds:g}"]
    if args.trace:
        trace = BUILD / f"trace-{args.workload}-{args.seed}.json"
        cmd.append(f"--trace={trace}")
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines() or [""]
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit(f"run.py: bench_e2e printed no result (exit {code})")
    result["trace"] = args.trace

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"MISSING {m['name']} [{m['unit']}]")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = code == 0 and result["correct"] and len(metrics) == len(wanted)
    if args.out:
        append_result(args.out, result)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
