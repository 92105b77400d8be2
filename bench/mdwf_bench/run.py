#!/usr/bin/env python3
"""Build mdwf_bench from source and run one workload.

    python3 bench/mdwf_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from anywhere; the build goes to .bench_build/mdwf_bench at the
repository root (the first run compiles src/, about a minute on 4
threads).  --trace 0 is the end-to-end run (tracing off), --trace 1 the
per-layer run (mdwf_bench layers=1).

Prints mdwf_bench's own report line (every metric with its quartiles and
sample count), then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1), each as {"value": ..., "unit": ...}.

Exit status: 0 on a correct run; 2 when a correctness check failed (the
result line still says "correct": false); 1 when the benchmark could not
be built or run, with nothing printed on standard output.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "mdwf_bench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (a no-op when nothing changed) and builds incrementally."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mdwf_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "mdwf_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    proc = subprocess.run(
        [str(exe), f"workload={args.workload}", f"seed={args.seed}",
         f"seconds={args.seconds}", f"layers={args.trace}"],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 2) or not lines:
        sys.exit(f"run.py: mdwf_bench exited {proc.returncode} "
                 "without a report")
    report = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"run.py: mdwf_bench did not report {m['name']} "
                     f"in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    print(lines[-1])
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        sys.exit(f"run.py: {e}")
