#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, defaults

Builds perfbench/ (the totem libraries and the driver) in Release
mode into $CARGO_TARGET_DIR or .bench_build, runs the driver, echoes its
human-readable lines and prints, as the last line, one JSON object with
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json names:
the end-to-end set with --trace 0, the per-layer set with --trace 1 (a
per-layer metric the workload does not exercise reads 0). Exits nonzero,
without a result line, when the build or the driver fails to produce one,
and with code 1 after the result line when an output check failed.
`--workload all` runs every workload BENCHMARK.json lists, one result line
each, and exits nonzero if any of them did.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_BUDGET_S = 170  # the driver must finish well inside 180 s
BUILD_BUDGET_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then (incrementally) build the driver."""
    started = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "3",
                  "--target", "perfbench_driver"])
    for cmd in steps:
        left = BUILD_BUDGET_S - (time.monotonic() - started)
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=max(left, 1))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as err:
            fail(f"build failed: {err}", 3)


def run_driver(build_dir, args):
    """Run the driver in its own process group; return (exit code, result)."""
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--build-dir", os.path.relpath(build_dir, ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop():
        # Nothing of the driver's process group (it forks its set-up runs)
        # may outlive this script.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
                proc.wait(timeout=2)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass

    def on_signal(*_):
        stop()
        sys.exit(130)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_BUDGET_S} s", 4)
    finally:
        stop()
    lines = out.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    return proc.returncode, result


def run_one(build_dir, spec, args):
    """Run one workload, print its result line; return the exit code."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    code, result = run_driver(build_dir, args)
    if result is None:
        fail(f"driver exited {code} without a result", 4)
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"workload {args.workload} did not measure {m['name']}", 4)
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised here
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says {m['unit']}", 4)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for v in result.get("violations", []):
        print(f"  violated: {v}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    if args.workload != "all":
        sys.exit(run_one(build_dir, spec, args))
    worst = 0
    for w in spec["workloads"]:
        args.workload = w["name"]
        print(f"== {w['name']}: {w['why']}")
        worst = max(worst, run_one(build_dir, spec, args))
    sys.exit(worst)


if __name__ == "__main__":
    main()
