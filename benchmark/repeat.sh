#!/usr/bin/env bash
# Repeats the benchmark and summarises run-to-run spread.
#
#   benchmark/repeat.sh [-n PASSES] [-s SEED] [-v] [-w "WORKLOADS"] [-t SECONDS]
#
#   -n  passes (default 5); each pass runs every workload once, and the
#       workload order alternates between passes
#   -s  seed (default 1)
#   -v  vary the seed: pass i uses SEED + i - 1, so the spread includes
#       the timed traffic's variation between seeds
#   -w  workloads (default: all in BENCHMARK.json)
#   -t  seconds per run (default: run_seconds in BENCHMARK.json)
#
# For every metric it prints the median, quartiles, the interquartile
# range and the min-max range as shares of the median. It flags an
# end-to-end metric whose interquartile share exceeds its bound in
# BENCHMARK.json, a packet or memory metric that differs between passes
# (they are measured on the same reference traffic every run), and a run
# that failed: a wrong answer, any failed session on the in-process
# workloads, or more foreign-slot sessions on serve_socket than its
# allowance. Tolerated foreign-slot sessions are listed, not flagged.
# Run from anywhere; results land in
# ${CARGO_TARGET_DIR:-benchmark/target}/repeat-<time>/.
set -euo pipefail

cd "$(dirname "$0")/.."
passes=5 seed=1 vary=0 workloads="" seconds=""
while getopts "n:s:vw:t:" opt; do
    case "$opt" in
        n) passes=$OPTARG ;;
        s) seed=$OPTARG ;;
        v) vary=1 ;;
        w) workloads=$OPTARG ;;
        t) seconds=$OPTARG ;;
        *) sed -n '2,23p' "$0"; exit 2 ;;
    esac
done
manifest=BENCHMARK.json
[[ -n "$workloads" ]] || workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$manifest")
[[ -n "$seconds" ]] || seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$manifest")

target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$target/release/spair-benchmark
out=$target/repeat-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"

read -r -a order <<<"$workloads"
failed_runs=""
for ((p = 1; p <= passes; p++)); do
    s=$seed
    ((vary)) && s=$((seed + p - 1))
    ws=("${order[@]}")
    if ((p % 2 == 0)); then
        ws=()
        for ((i = ${#order[@]} - 1; i >= 0; i--)); do ws+=("${order[i]}"); done
    fi
    for w in "${ws[@]}"; do
        log=$out/$w.$p.log
        if ! "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$log" 2>"$out/$w.$p.err"; then
            echo "pass $p $w (seed $s) FAILED; see $out/$w.$p.err" >&2
            failed_runs+=" $w.$p"
            continue
        fi
        echo "pass $p $w seed $s: $(tail -n 1 "$log" | cut -c1-60)..."
    done
done

python3 - "$manifest" "$out" "$passes" "$failed_runs" $workloads <<'EOF'
import json, statistics, sys
manifest, out, passes = sys.argv[1], sys.argv[2], int(sys.argv[3])
flags = [f"{r} (run failed)" for r in sys.argv[4].split()]
workloads = sys.argv[5:]
spec = json.load(open(manifest))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
deterministic = {"tuning_packets_mean", "latency_packets_mean", "client_memory_bytes_max"}
for w in workloads:
    runs, foreign = [], []
    for p in range(1, passes + 1):
        lines = open(f"{out}/{w}.{p}.log").read().splitlines()
        if not lines or not lines[-1].startswith("{"):
            continue
        runs.append(json.loads(lines[-1]))
        foreign += [l.split()[3] for l in lines if l.startswith("# serve.foreign_slot_sessions ")]
    if not runs:
        continue
    print(f"\n== {w}: {len(runs)} results, sessions {[r['attempted'] for r in runs]}, failed {[r['failed'] for r in runs]}")
    if foreign:
        print(f"foreign-slot sessions (tolerated up to the allowance): {foreign}")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        mark = ""
        if name in bounds and name != "setup_s" and iqr > bounds[name]:
            mark = f"  SPREAD > bound {bounds[name]}"
            flags.append(f"{w}/{name}")
        if name in deterministic and len(set(vals)) > 1:
            mark += "  NOT DETERMINISTIC"
            flags.append(f"{w}/{name} (deterministic)")
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.4f} {rng:9.4f}{mark}")
print(f"\nresults in {out}")
if flags:
    print("flagged: " + ", ".join(flags))
    sys.exit(1)
EOF
