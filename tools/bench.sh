#!/usr/bin/env sh
# One driver for every benchmark suite:
#
#   tools/bench.sh resilience <mdwf_run-binary>           [out.json]
#   tools/bench.sh health     <mdwf_run-binary>           [out.json]
#   tools/bench.sh scale      <scale_sweep-binary>        [threads] [out.json]
#   tools/bench.sh frontier   <solution_frontier-binary>  [threads] [out.json]
#   tools/bench.sh cotenant   <cotenant_sweep-binary>     [threads] [out.json]
#   tools/bench.sh membership <membership_sweep-binary>   [threads] [out.json]
#
# Shared across suites: CSV/summary field extraction, byte-compare with a
# suite-labelled diagnostic, and the BENCH_*.json emission convention
# (pretty-printed JSON written to the out path AND echoed to stdout).  Every
# pass/fail gate lives in the bench binary's own exit code; this driver only
# byte-compares and records.
#
# Host-cost regressions are measured by bench/mdwf_bench (in-process
# nanosecond timing with quartiles; see its README.md), not here.
set -eu

SUITES="resilience health scale frontier cotenant membership"
SUITE="${1:?usage: bench.sh <resilience|health|scale|frontier|cotenant|membership> ...}"
shift

# ---- shared helpers --------------------------------------------------------

# csv_field <csv-text> <column-name>: value from the first data row.
csv_field() {
    printf '%s\n' "$1" | awk -F, -v name="$2" '
        NR==1 { for (i = 1; i <= NF; i++) if ($i == name) col = i }
        NR==2 { print $col }'
}

# summary_field <key=value line> <key>
summary_field() {
    printf '%s\n' "$1" | tr ' ' '\n' | awk -F= -v k="$2" '$1==k{print $2}'
}

# byte_compare <a> <b> <label>: the determinism contract check.
byte_compare() {
    cmp "$1" "$2" || {
        echo "bench.sh $SUITE: $3" >&2
        exit 1
    }
}

host_threads() {
    (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n 1
}

# ---- suites ----------------------------------------------------------------

suite_resilience() {
    RUN="${1:?usage: bench.sh resilience <mdwf_run-binary> [out.json]}"
    OUT="${2:-BENCH_pr3.json}"
    ARGS="pairs=2 nodes=2 frames=32 reps=3 seed=11 output=csv"
    XFS_ARGS="pairs=2 nodes=1 frames=32 reps=3 seed=11 output=csv"

    RESULTS=""
    for sol in dyad xfs lustre; do
        if [ "$sol" = "xfs" ]; then args="$XFS_ARGS"; else args="$ARGS"; fi
        base_csv="$("$RUN" solution=$sol $args faults=none)"
        fault_csv="$("$RUN" solution=$sol $args faults=crash-flip)"
        base_s="$(csv_field "$base_csv" makespan_s)"
        fault_s="$(csv_field "$fault_csv" makespan_s)"
        recov="$(csv_field "$fault_csv" crash_recoveries)"
        reexec="$(csv_field "$fault_csv" frames_reexecuted)"
        refetch="$(csv_field "$fault_csv" integrity_refetches)"
        unrec="$(csv_field "$fault_csv" integrity_unrecovered)"
        consumed="$(csv_field "$fault_csv" frames_consumed)"
        echo "  $sol: fault-free ${base_s}s, crash-flip ${fault_s}s" \
             "(${recov} restarts, ${reexec} re-executed, ${refetch} re-fetches)" >&2
        RESULTS="$RESULTS $sol $base_s $fault_s $recov $reexec $refetch $unrec $consumed"
    done

    python3 - "$OUT" $RESULTS <<'EOF'
import json, sys
out = sys.argv[1]
vals = sys.argv[2:]
doc = {
    "bench": "resilience_recovery_overhead",
    "workload": "mdwf_run pairs=2 frames=32 reps=3 seed=11 "
                "faults=crash-flip (vs faults=none)",
    "expected_frames": 2 * 32 * 3,
    "solutions": {},
}
for i in range(0, len(vals), 8):
    (sol, base_s, fault_s, recov, reexec, refetch, unrec, consumed) = \
        vals[i:i + 8]
    base_s, fault_s = float(base_s), float(fault_s)
    doc["solutions"][sol] = {
        "fault_free_makespan_s": base_s,
        "crash_flip_makespan_s": fault_s,
        "recovered_run_overhead_pct":
            round(100.0 * (fault_s - base_s) / base_s, 2) if base_s else None,
        "crash_recoveries": int(recov),
        "frames_reexecuted": int(reexec),
        "integrity_refetches": int(refetch),
        "integrity_unrecovered": int(unrec),
        "frames_consumed": int(consumed),
    }
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(json.dumps(doc, indent=2))
EOF
}

suite_health() {
    RUN="${1:?usage: bench.sh health <mdwf_run-binary> [out.json]}"
    OUT="${2:-BENCH_pr4.json}"
    ARGS="solution=dyad pairs=4 nodes=2 frames=32 reps=2 seed=7 output=csv"

    RESULTS=""
    for scenario in overload slow-disk; do
        off_csv="$("$RUN" $ARGS faults=$scenario health=0 hedge=0)"
        on_csv="$("$RUN" $ARGS faults=$scenario health=1 hedge=1)"
        off_p99="$(csv_field "$off_csv" fetch_p99_us)"
        on_p99="$(csv_field "$on_csv" fetch_p99_us)"
        off_mk="$(csv_field "$off_csv" makespan_s)"
        on_mk="$(csv_field "$on_csv" makespan_s)"
        hedges="$(csv_field "$on_csv" dyad_hedges)"
        wins="$(csv_field "$on_csv" dyad_hedge_wins)"
        cancels="$(csv_field "$on_csv" dyad_hedge_cancels)"
        trips="$(csv_field "$on_csv" dyad_breaker_trips)"
        consumed="$(csv_field "$on_csv" frames_consumed)"
        echo "  $scenario: fetch P99 ${off_p99}us -> ${on_p99}us," \
             "makespan ${off_mk}s -> ${on_mk}s" \
             "(${hedges} hedges, ${wins} wins, ${trips} breaker trips)" >&2
        RESULTS="$RESULTS $scenario $off_p99 $on_p99 $off_mk $on_mk \
$hedges $wins $cancels $trips $consumed"
    done

    # No-fault overhead of leaving health+hedge enabled (must be ~zero:
    # without the failover path the layer is detection-only).
    base_csv="$("$RUN" $ARGS faults=none)"
    health_csv="$("$RUN" $ARGS faults=none health=1 hedge=1)"
    base_mk="$(csv_field "$base_csv" makespan_s)"
    health_mk="$(csv_field "$health_csv" makespan_s)"
    echo "  no-fault makespan: health off ${base_mk}s, on ${health_mk}s" >&2

    python3 - "$OUT" "$base_mk" "$health_mk" $RESULTS <<'EOF'
import json, sys
out, base_mk, health_mk = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
vals = sys.argv[4:]
doc = {
    "bench": "health_gray_failure_mitigation",
    "workload": "mdwf_run solution=dyad pairs=4 nodes=2 frames=32 reps=2 "
                "seed=7, health=0 vs health=1 hedge=1",
    "no_fault_makespan_s": {"health_off": base_mk, "health_on": health_mk},
    "no_fault_overhead_pct":
        round(100.0 * (health_mk - base_mk) / base_mk, 3) if base_mk else None,
    "scenarios": {},
}
for i in range(0, len(vals), 10):
    (sc, off_p99, on_p99, off_mk, on_mk,
     hedges, wins, cancels, trips, consumed) = vals[i:i + 10]
    off_p99, on_p99 = float(off_p99), float(on_p99)
    doc["scenarios"][sc] = {
        "fetch_p99_us_health_off": off_p99,
        "fetch_p99_us_health_on": on_p99,
        "fetch_p99_speedup":
            round(off_p99 / on_p99, 2) if on_p99 else None,
        "makespan_s_health_off": float(off_mk),
        "makespan_s_health_on": float(on_mk),
        "hedges": int(hedges),
        "hedge_wins": int(wins),
        "hedge_cancels": int(cancels),
        "breaker_trips": int(trips),
        "frames_consumed": int(consumed),
    }
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(json.dumps(doc, indent=2))
EOF
}

suite_scale() {
    BIN="${1:?usage: bench.sh scale <scale_sweep-binary> [threads] [out.json]}"
    THREADS="${2:-4}"
    OUT="${3:-BENCH_pr5.json}"
    ARGS="pairs=64 frames=16 reps=3"

    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT

    # The binary exits non-zero when a grid point fails; a pipe into tail
    # would mask that, so read its summary line back from a file.
    echo "scale_sweep threads=1 ($ARGS)..." >&2
    "$BIN" $ARGS threads=1 out="$TMP/serial.csv" > "$TMP/serial.txt"
    S1="$(tail -n 1 "$TMP/serial.txt")"
    echo "  $S1" >&2
    echo "scale_sweep threads=$THREADS ($ARGS)..." >&2
    "$BIN" $ARGS threads="$THREADS" out="$TMP/parallel.csv" > "$TMP/parallel.txt"
    SN="$(tail -n 1 "$TMP/parallel.txt")"
    echo "  $SN" >&2

    byte_compare "$TMP/serial.csv" "$TMP/parallel.csv" \
        "merged CSVs differ between thread counts"
    echo "  merged CSVs byte-identical across thread counts" >&2

    WALL1="$(summary_field "$S1" wall_s)"
    WALLN="$(summary_field "$SN" wall_s)"
    EVENTS="$(summary_field "$S1" sim_events)"
    EPS1="$(summary_field "$S1" events_per_s)"
    EPSN="$(summary_field "$SN" events_per_s)"
    POINTS="$(summary_field "$S1" points)"

    # Prefer the binary's own hardware_concurrency report (summary field
    # host_threads=, present since PR 6); fall back to the OS view.
    CORES="$(summary_field "$S1" host_threads)"
    [ -n "$CORES" ] || CORES="$(host_threads)"

    if [ "$CORES" -le 1 ]; then
        echo "bench.sh scale: single hardware thread: speedup marked invalid" >&2
    fi

    python3 - "$OUT" "$THREADS" "$POINTS" "$EVENTS" \
        "$WALL1" "$WALLN" "$EPS1" "$EPSN" "$CORES" <<'EOF'
import json, sys
out, threads, points, events, wall1, walln, eps1, epsn, cores = sys.argv[1:10]
doc = {
    "bench": "scale_sweep_parallel_runner",
    "workload": "scale_sweep pairs=64 frames=16 reps=3 "
                "(DYAD+Lustre grid, STMV, incl. 120-node Corona points)",
    # Speedup is bounded by the host: a 1-core box shows ~1.0x (thread
    # overhead may even push it below); the CI `scale` job measures on a
    # multi-core runner.
    "host_hardware_threads": int(cores),
    "grid_points": int(points),
    "sim_events": int(events),
    "serial": {"wall_s": float(wall1), "events_per_s": float(eps1)},
    "parallel": {
        "threads": int(threads),
        "wall_s": float(walln),
        "events_per_s": float(epsn),
    },
    "speedup": round(float(wall1) / float(walln), 2)
               if float(walln) > 0 else None,
    # A 1-core host can only measure thread overhead: the serial/parallel
    # wall ratio says nothing about the runner's scaling there.
    "speedup_valid": int(cores) > 1,
    "merged_output_byte_identical": True,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(json.dumps(doc, indent=2))
EOF
}

suite_cotenant() {
    BIN="${1:?usage: bench.sh cotenant <cotenant_sweep-binary> [threads] [out.json]}"
    THREADS="${2:-4}"
    OUT="${3:-BENCH_pr8.json}"

    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT

    # The binary exits non-zero when an isolation gate fails.
    echo "cotenant_sweep threads=1..." >&2
    "$BIN" threads=1 out="$TMP/serial.csv" > "$TMP/serial.txt"
    S1="$(tail -n 1 "$TMP/serial.txt")"
    echo "  $S1" >&2
    echo "cotenant_sweep threads=$THREADS..." >&2
    "$BIN" threads="$THREADS" out="$TMP/parallel.csv" > "$TMP/parallel.txt"
    tail -n 1 "$TMP/parallel.txt" >&2

    byte_compare "$TMP/serial.csv" "$TMP/parallel.csv" \
        "merged CSVs differ between thread counts"
    echo "  merged CSVs byte-identical across thread counts" >&2

    OVERHEAD="$(summary_field "$S1" solo_overhead_pct)"
    IMPROVE="$(summary_field "$S1" improvement)"
    P99OFF="$(summary_field "$S1" p99_off)"
    P99ON="$(summary_field "$S1" p99_on)"
    WORST="$(summary_field "$S1" worst_intensity)"

    python3 - "$OUT" "$THREADS" "$WORST" "$P99OFF" "$P99ON" "$IMPROVE" \
        "$OVERHEAD" "$TMP/serial.csv" <<'EOF'
import json, sys
out, threads, worst, p99_off, p99_on, improve, overhead, csv = sys.argv[1:9]
cells = []
with open(csv) as f:
    header = f.readline().strip().split(",")
    for line in f:
        row = dict(zip(header, line.strip().split(",")))
        cells.append({
            "noise_intensity": int(row["intensity"]),
            "isolation": row["isolation"],
            "victim_fetch_p99_us": float(row["victim_p99_us"]),
            "victim_makespan_s": float(row["victim_makespan_s"]),
            "noise_sheds": int(row["noise_sheds"]),
            "slo_escalations": int(row["slo_escalations"]),
            "slo_fallback_frames": int(row["slo_fallback"]),
        })
doc = {
    "bench": "cotenant_isolation_frontier",
    "workload": "DYAD victim (2 pairs, 2 nodes, 4 frames, reps=2) sharing "
                "one testbed with a KVS noise storm at intensity "
                "0/16/64/128; isolation = fair-share quotas + SLO guard",
    "metric": "victim consumer frame-fetch P99 (us)",
    "frontier": cells,
    "worst_noise_intensity": int(worst),
    "victim_p99_us_isolation_off": float(p99_off),
    "victim_p99_us_isolation_on": float(p99_on),
    "isolation_improvement_x": float(improve),
    "solo_overhead_pct": float(overhead),
    "merged_output_byte_identical": True,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(json.dumps(doc, indent=2))
EOF
}

suite_frontier() {
    BIN="${1:?usage: bench.sh frontier <solution_frontier-binary> [threads] [out.json]}"
    THREADS="${2:-4}"
    OUT="${3:-BENCH_pr6.json}"

    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT

    echo "solution_frontier threads=1..." >&2
    "$BIN" threads=1 out="$TMP/serial.csv" > "$TMP/serial.txt"
    tail -n 1 "$TMP/serial.txt" >&2
    echo "solution_frontier threads=$THREADS..." >&2
    "$BIN" threads="$THREADS" out="$TMP/parallel.csv" > "$TMP/parallel.txt"
    tail -n 1 "$TMP/parallel.txt" >&2

    byte_compare "$TMP/serial.csv" "$TMP/parallel.csv" \
        "CSVs differ between thread counts"
    echo "  CSVs byte-identical across thread counts" >&2

    python3 - "$OUT" "$TMP/serial.txt" <<'EOF'
import json, sys

out, txt = sys.argv[1], sys.argv[2]
regimes, summary = [], {}
with open(txt) as f:
    for line in f:
        if line.startswith("frontier: "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            regimes.append({
                "model": fields["model"],
                "pairs": int(fields["pairs"]),
                "consumer_lag": float(fields["lag"]),
                "faults": fields["faults"],
                "stream_fetch_p99_us": float(fields["stream_p99_us"]),
                "dyad_fetch_p99_us": float(fields["dyad_p99_us"]),
                "staging_demand_mib": float(fields["staging_demand_mib"]),
                "winner": fields["winner"],
            })
        elif line.startswith("solution_frontier: "):
            summary = dict(kv.split("=", 1) for kv in line.split()[1:])

wins = [r for r in regimes if r["winner"] == "stream"]
losses = [r for r in regimes if r["winner"] == "dyad"]
doc = {
    "bench": "solution_frontier_stream_vs_dyad",
    "workload": "frame size (JAC/STMV) x consumer count (pairs) x consumer "
                "lag (analytics=) x fault scenario, 4 solutions, reps=2",
    "metric": "consumer frame-fetch latency P99 (us)",
    "grid_points": int(summary.get("points", 0)),
    "errors": int(summary.get("errors", 0)),
    "sim_events": int(summary.get("sim_events", 0)),
    "stream_wins": len(wins),
    "stream_losses": len(losses),
    # The crossover: staged delivery wins while every frame stays resident
    # in the staging buffer and inside the credit window; once a lagging
    # consumer (analytics > 1 frame period) holds credits past
    #   pairs x credits x frame_bytes > buffer_capacity   (buffer-bound) or
    #   consumer_lag x frame_period > credits x frame_period (credit-bound)
    # puts overflow to the Lustre spill path and the consumer pays up to one
    # arrival-timeout of blindness plus a Lustre round trip per frame --
    # behind DYAD, whose producer is never throttled and whose KVS entry is
    # long visible by the time the lagging consumer asks.
    "crossover": {
        "credits_per_prefix": 4,
        "buffer_capacity_mib": 128.0,
        "arrival_timeout_ms": 40.0,
        "buffer_bound": "pairs * credits * frame_bytes > buffer_capacity",
        "credit_bound": "consumer_lag > credits (frames of producer headroom)",
        "stream_wins_when": "frames fit the staging buffer and the consumer "
                            "keeps pace: staged fetch dodges DYAD's KVS "
                            "visibility wait (and its lossy-link retries)",
        "stream_loses_when": "a lagging consumer exhausts credits or buffer "
                             "and puts spill to Lustre",
    },
    "example_win": min(wins, key=lambda r: r["stream_fetch_p99_us"]),
    "example_loss": max(losses,
                        key=lambda r: r["stream_fetch_p99_us"]
                        - r["dyad_fetch_p99_us"]) if losses else None,
    "regimes": regimes,
    "csv_byte_identical_across_threads": True,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(json.dumps({k: v for k, v in doc.items() if k != "regimes"}, indent=2))
EOF
}

suite_membership() {
    BIN="${1:?usage: bench.sh membership <membership_sweep-binary> [threads] [out.json]}"
    THREADS="${2:-$(host_threads)}"
    OUT="${3:-BENCH_pr9.json}"

    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT

    echo "membership_sweep threads=1..." >&2
    "$BIN" threads=1 out="$TMP/serial.csv" > "$TMP/serial.txt"
    tail -n 1 "$TMP/serial.txt" >&2
    echo "membership_sweep threads=$THREADS..." >&2
    "$BIN" threads="$THREADS" out="$TMP/parallel.csv" > "$TMP/parallel.txt"
    tail -n 1 "$TMP/parallel.txt" >&2

    byte_compare "$TMP/serial.csv" "$TMP/parallel.csv" \
        "CSVs differ between thread counts"
    echo "  CSVs byte-identical across thread counts" >&2

    python3 - "$OUT" "$TMP/serial.txt" <<'EOF'
import json, sys

out, txt = sys.argv[1], sys.argv[2]
points, summary = [], {}
with open(txt) as f:
    for line in f:
        if line.startswith("frontier: "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            points.append({
                "silence_ceiling_ms": int(fields["ceiling_ms"]),
                "scenario": fields["scenario"],
                "detect_ms": float(fields["detect_ms"]),
                "mttr_s": float(fields["mttr_s"]),
                "declares": int(fields["declares"]),
                "migrations": int(fields["migrations"]),
                "stale_epoch_rejects": int(fields["stale_rejects"]),
                "frames_lost": int(fields["frames_lost"]),
            })
        elif line.startswith("membership_sweep: "):
            summary = dict(kv.split("=", 1) for kv in line.split()[1:])

loss = [p for p in points if p["scenario"] == "node-loss"]
heal = [p for p in points if p["scenario"] == "heal-after-declare"]
doc = {
    "bench": "membership_mttr_vs_detection",
    "workload": "dyad nodes=2 pairs=2 frames=8 reps=2; declare-dead silence "
                "ceiling sweep (confirm window = ceiling/4) under node-loss "
                "(a node really dies) and heal-after-declare (1.2 s one-way "
                "partition, the node is fine)",
    "metric": "MTTR (makespan minus plane-on fault-free makespan, s) vs "
              "detection latency (declare_latency mean, ms)",
    "grid_points": int(summary.get("points", 0)),
    "errors": int(summary.get("errors", 0)),
    "sim_events": int(summary.get("sim_events", 0)),
    "no_fault_overhead_pct": float(summary.get("overhead_pct", 0.0)),
    "all_frames_delivered": summary.get("all_delivered") == "1",
    # The tension the sweep exists to show: under real loss an eager policy
    # minimizes MTTR (detection IS dead time); under a transient partition
    # the same eagerness declares a healthy node dead -- terminal by design,
    # so it pays a spurious fence + migration -- while a confirm window
    # longer than the partition rides it out for free.
    "tradeoff": {
        "node_loss_fastest_mttr_s": min(p["mttr_s"] for p in loss),
        "node_loss_slowest_mttr_s": max(p["mttr_s"] for p in loss),
        "spurious_declares_eager": max(p["declares"] for p in heal),
        "spurious_declares_conservative":
            min(p["declares"] for p in heal),
    },
    "frontier": points,
    "csv_byte_identical_across_threads": True,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(json.dumps({k: v for k, v in doc.items() if k != "frontier"},
                 indent=2))
EOF
}

# ---- dispatch --------------------------------------------------------------

case "$SUITE" in
    resilience) suite_resilience "$@" ;;
    health)     suite_health "$@" ;;
    scale)      suite_scale "$@" ;;
    frontier)   suite_frontier "$@" ;;
    cotenant)   suite_cotenant "$@" ;;
    membership) suite_membership "$@" ;;
    *)
        # Same diagnostic shape as the C++ config binding (common/suggest):
        # name the bad input, list every valid choice, and point at the
        # nearest one when a typo is within two edits.
        HINT="$(awk -v bad="$SUITE" -v all="$SUITES" '
            function min3(a, b, c) {
                m = a; if (b < m) m = b; if (c < m) m = c; return m
            }
            function dist(s, t,    n, m, i, j, c, d) {
                n = length(s); m = length(t)
                for (i = 0; i <= n; i++) d[i, 0] = i
                for (j = 0; j <= m; j++) d[0, j] = j
                for (i = 1; i <= n; i++)
                    for (j = 1; j <= m; j++) {
                        c = substr(s, i, 1) == substr(t, j, 1) ? 0 : 1
                        d[i, j] = min3(d[i-1, j] + 1, d[i, j-1] + 1,
                                       d[i-1, j-1] + c)
                    }
                return d[n, m]
            }
            BEGIN {
                split(all, names, " ")
                best = ""; bestd = 3
                for (k in names) {
                    dd = dist(bad, names[k])
                    if (dd < bestd) { bestd = dd; best = names[k] }
                }
                if (best != "") printf " (did you mean %s?)", best
            }')"
        echo "bench.sh: unknown suite '$SUITE'$HINT" >&2
        echo "valid suites: $SUITES" >&2
        exit 2
        ;;
esac
