#!/usr/bin/env python3
"""Run one workload of the LookHD end-to-end benchmark.

    python3 perfbench/run.py --workload physical --seed 1 --seconds 45 --trace 0

Run from the repository root. Builds the library and the benchmark
program from source into .bench_build/ (a full build the first time,
incremental after), runs the workload, prints every metric with its
unit and sample count, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. The metrics are
the end_to_end list of BENCHMARK.json with --trace 0 and its per_layer
list with --trace 1; the traced run also writes its spans to
.bench_build/traces/<workload>.spans.csv.

Exits non-zero, without a result line, when the build, the run or any
of its checks fails. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("physical", "serve-physical", "speech", "serve-speech")
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build() -> Path:
    """Configure (first run only) and build; return the program path."""
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            fail(f"{needed} not found at {ROOT}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                print(tail, file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return BUILD / "perfbench"


def run(program: Path, args: argparse.Namespace) -> dict:
    """Run the workload, echo its lines, return its final JSON object."""
    cmd = [str(program), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.spans.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        fail(f"workload {args.workload} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark program printed no result object")
    return {}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must lie in [1, 60]")
    if args.seed < 0:
        fail("--seed must not be negative")

    started = time.monotonic()
    program = build()
    print(f"# build checked in {time.monotonic() - started:.1f} s")
    result = run(program, args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            fail(f"metric {name} was not measured on {args.workload}")
        if measured[name]["unit"] != entry["unit"]:
            fail(f"metric {name} measured in {measured[name]['unit']}, "
                 f"declared in {entry['unit']}")
        metrics[name] = {"value": measured[name]["value"],
                         "unit": entry["unit"]}
        print(f"# {name} = {measured[name]['value']:.6g} {entry['unit']} "
              f"(n={measured[name]['n']})")
    print(f"# error_rate = {result['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} checked "
          f"operations wrong)")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
