#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 bench/mdwf_bench/spread.py [--sets 2] [--seeds 10] \
        [--workloads a,b] [--out bench/mdwf_bench/baseline.json]

Runs run.py --trace 0 once per (set, seed, workload), seeds 1..N in every
set, workloads interleaved within a seed.  For each set, workload and
end-to-end metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, plus the difference between
the sets' medians, and compares both with the metric's BENCHMARK.json
bound: "ok" below a third of the bound, "wide" below the bound, "OVER"
beyond it, with the bound the measurement suggests.  setup_s is exempt
from the spread check, not from the between-set one.  A (workload, seed)
whose sim_digest differs between sets is "OVER" too.  --out writes the
host, the per-set statistics and every sim_digest.  Exits 1 on "OVER".
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    return json.loads(lines[-2])


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


LEVELS = ("ok", "wide", "OVER")


def verdict(x, bound):
    """0 below a third of the bound, 1 up to the bound, 2 beyond it."""
    return 0 if x < bound / 3 else (1 if x <= bound else 2)


def suggested_bound(drift, spread):
    """Largest of 3%, twice the worse spread, three times the spread."""
    return min(0.25, max(0.03, 2 * max(drift, spread), 3 * spread))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    digests = {w: {} for w in workloads}
    build = "unknown"
    worst = 0
    for s in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                report = run_once(w, seed, args.seconds)
                build = report["build_type"]
                for m in metrics:
                    values[s][w][m["name"]].append(
                        report["metrics"][m["name"]]["value"])
                first = digests[w].setdefault(str(seed), report["sim_digest"])
                if first != report["sim_digest"]:
                    print(f"OVER: {w} seed {seed}: sim_digest "
                          f"{report['sim_digest']} != {first}")
                    worst = 2
            print(f"set {s + 1} seed {seed} done", file=sys.stderr)

    baseline = {}
    for w in workloads:
        print(f"\n{w}")
        baseline[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [stats(values[s][w][name]) for s in range(args.sets)]
            baseline[w][name] = [{k: v for k, v in st.items()
                                  if k != "spread"} for st in per_set]
            meds = [st["median"] for st in per_set]
            drift = (max(meds) - min(meds)) / min(meds) if min(meds) else 0.0
            spread = max(st["spread"] for st in per_set)
            level = verdict(drift, bound)
            if name != "setup_s":
                level = max(level, verdict(spread, bound))
            worst = max(worst, level)
            sets = "  ".join(
                f"med {st['median']:.6g} spread {st['spread']:.3f}"
                for st in per_set)
            print(f"  {name:13s} bound {bound:<5} {sets}  between-set "
                  f"{drift:.3f}  {LEVELS[level]}  (suggest "
                  f"{suggested_bound(drift, spread):.3f})")
    print(f"\nworst: {LEVELS[worst]}")

    if args.out:
        Path(args.out).write_text(json.dumps({
            "host": {"threads": os.cpu_count(), "cpu": cpu_model(),
                     "build_type": build, "git_rev": git_rev(),
                     "run_seconds": args.seconds, "seeds": args.seeds},
            "workloads": baseline, "sim_digest": digests}, indent=1) + "\n")
    return 1 if worst == 2 else 0


if __name__ == "__main__":
    sys.exit(main())
