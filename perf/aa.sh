#!/usr/bin/env bash
# The A/A check: two sets of runs of the same commit, interleaved so both
# see the same host conditions, must agree within every metric's bound.
#
#   perf/aa.sh                 three timed runs and one traced run per set and workload
#   RUNS=5 SEED=7 perf/aa.sh   more runs, another seed
#
# Records land in perf/out/aa/{A,B}.jsonl; the exit status is that of
# `perf compare` (non-zero when an end-to-end metric is past its bound or missing,
# a run was incorrect, or an exact count differs).
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${RUNS:-3}
SEED=${SEED:-1}
OUT=perf/out/aa
mkdir -p "$OUT"
rm -f "$OUT/A.jsonl" "$OUT/B.jsonl"

cargo build --offline --release --quiet --manifest-path perf/Cargo.toml
BIN=${CARGO_TARGET_DIR:-perf/target}/release/perf

for workload in stencil_mask stencil_cross_tcp leanmd_tcp sim_sweep; do
    for ((i = 0; i < RUNS; i++)); do
        # Alternate which set goes first, so neither always runs on a warmer host.
        if ((i % 2 == 0)); then order="A B"; else order="B A"; fi
        for set in $order; do
            echo "== $workload timed run $((i + 1))/$RUNS, set $set" >&2
            "$BIN" run --workload "$workload" --seed "$SEED" --trace 0 --out "$OUT/$set.jsonl" >/dev/null
        done
    done
    for set in A B; do
        echo "== $workload traced run, set $set" >&2
        "$BIN" run --workload "$workload" --seed "$SEED" --trace 1 --out "$OUT/$set.jsonl" >/dev/null
    done
done

"$BIN" compare "$OUT/A.jsonl" "$OUT/B.jsonl"
