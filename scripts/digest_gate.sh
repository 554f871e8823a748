#!/usr/bin/env bash
# Shared digest gate for the CI workflows.
#
# Runs one bench binary and verifies the digest of the artifact it wrote,
# either against a pinned 16-hex literal or against the digest of a
# committed artifact. Every digest in this repo is a pure function of the
# committed specs and seeds, so a drift without a matching spec change is
# a determinism regression — the gates' whole job is to make that loud.
#
#   scripts/digest_gate.sh --package spair-sim --bin bench_scenarios \
#       --out /tmp/full.json --expect BENCH_scenarios.json
#   scripts/digest_gate.sh --package spair-sim --bin bench_scenarios \
#       --out /tmp/legacy9.json --expect 1cef0841b0e42909 \
#       --methods nr,eb,dj,ld,af,spq_air,hiti_air,nr_mem_bound,knn_air
#   scripts/digest_gate.sh --package spair-sim --bin bench_faults \
#       --out /tmp/faults_t4.json --expect 3e09da641c35c3dd -- --smoke --threads 4
#
# Flags after `--` pass through to the binary unchanged (e.g. --smoke,
# --threads N). The thread-stability pattern is two invocations with the
# same pinned digest and different --threads.
set -euo pipefail

package="" bin="" out="" expect="" methods=""
passthrough=()
while [ $# -gt 0 ]; do
  case "$1" in
    --package) package="$2"; shift 2 ;;
    --bin) bin="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --expect) expect="$2"; shift 2 ;;
    --methods) methods="$2"; shift 2 ;;
    --) shift; passthrough=("$@"); break ;;
    *) echo "digest_gate: unknown flag $1" >&2; exit 2 ;;
  esac
done
if [ -z "$package" ] || [ -z "$bin" ] || [ -z "$out" ] || [ -z "$expect" ]; then
  echo "digest_gate: --package, --bin, --out and --expect are required" >&2
  exit 2
fi

cmd=(cargo run --release -p "$package" --bin "$bin" -- --out "$out")
if [ -n "$methods" ]; then
  cmd+=(--methods "$methods")
fi
if [ ${#passthrough[@]} -gt 0 ]; then
  cmd+=("${passthrough[@]}")
fi
"${cmd[@]}"

digest_of() {
  grep -o '"digest": "[0-9a-f]*"' "$1" | head -n1 | grep -o '[0-9a-f]\{16\}'
}

fresh=$(digest_of "$out")
if [ -f "$expect" ]; then
  want=$(digest_of "$expect")
  echo "digest_gate: $out -> $fresh / committed $expect -> $want"
else
  want="$expect"
  echo "digest_gate: $out -> $fresh / pinned $want"
fi
test "$fresh" = "$want"
