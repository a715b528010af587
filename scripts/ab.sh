#!/usr/bin/env bash
# Parent against change on the benchmark spine, the way a performance claim
# has to be measured on this host (ROADMAP, ground rule; perf/README.md):
# alternating pairs, one fresh seed, the declared run length.
#
#   scripts/ab.sh <parent-rev> [pairs] [workloads…]
#
#   scripts/ab.sh HEAD                       ten pairs of every workload
#   scripts/ab.sh 72b68c4 5 leanmd_tcp       five pairs of one
#   SEED=22 AB_DIR=/root/scratch/ab scripts/ab.sh HEAD~1 10 sim_sweep
#
# "Change" is the working tree this script sits in, committed or not.  The
# parent is `git archive`d into $AB_DIR/parent (a temporary directory unless
# AB_DIR names one to keep, which also keeps both builds warm for the next
# call); each side builds its own perf/ package into its own target
# directory and runs from its own checkout, so neither sees the other's
# BENCHMARK.json.  Records land in $AB_DIR/{parent,change}.jsonl (appended
# to, so a second call for another workload adds to the same table); the
# script ends with `perf compare parent.jsonl change.jsonl` from the
# change's binary, then prints the table EXPERIMENTS.md keeps per PR.  The
# exit status is that of `perf compare`.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO=$PWD

REV=${1:?usage: scripts/ab.sh <parent-rev> [pairs] [workloads…]}
PAIRS=${2:-10}
shift
shift || true
if (($# > 0)); then
    WORKLOADS=("$@")
else
    WORKLOADS=(stencil_mask stencil_cross_tcp leanmd_tcp sim_sweep)
fi
# One seed for every run of the set, new each time unless given: the claim
# has to hold on a seed the change was not written against.
SEED=${SEED:-$(($(date +%s) % 100000))}
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

if [[ -n ${AB_DIR:-} ]]; then
    mkdir -p "$AB_DIR"
else
    AB_DIR=$(mktemp -d)
    trap 'rm -rf "$AB_DIR"' EXIT
fi
rm -rf "$AB_DIR/parent"
mkdir -p "$AB_DIR/parent"
git archive "$REV" | tar -x -C "$AB_DIR/parent"

declare -A DIR=([parent]="$AB_DIR/parent" [change]="$REPO")
for side in parent change; do
    echo "== building $side ($([[ $side == parent ]] && echo "$REV" || echo "working tree"))" >&2
    (cd "${DIR[$side]}" && CARGO_TARGET_DIR="$AB_DIR/target-$side" \
        cargo build --offline --release --quiet --manifest-path perf/Cargo.toml)
done

run() { # side workload
    (cd "${DIR[$1]}" && "$AB_DIR/target-$1/release/perf" run --workload "$2" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 --out "$AB_DIR/$1.jsonl" >/dev/null)
}

for workload in "${WORKLOADS[@]}"; do
    for ((i = 0; i < PAIRS; i++)); do
        # Alternate who goes first, so neither side always runs on a warmer host.
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "== $workload pair $((i + 1))/$PAIRS, $side (seed $SEED)" >&2
            run "$side" "$workload"
        done
    done
done

status=0
"$AB_DIR/target-change/release/perf" compare "$AB_DIR/parent.jsonl" "$AB_DIR/change.jsonl" || status=$?

# The per-PR table of EXPERIMENTS.md: gated metrics and the two step times,
# medians with quartiles (the exclusive method, as perf/src/stats.rs and the
# pipeline compute them), how many pairs the change won, and whether the two
# sides are separated: every run of the change below every run of the parent.
python3 - "$AB_DIR/parent.jsonl" "$AB_DIR/change.jsonl" BENCHMARK.json <<'EOF'
import json, statistics, sys

def runs(path):
    by = {}
    for line in open(path):
        r = json.loads(line)
        if r["trace"] == 0:
            by.setdefault(r["workload"], []).append(r)
    return by

def quart(v):
    if len(v) == 1:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

def fmt(x):
    return f"{x:.4g}"

parent, change = runs(sys.argv[1]), runs(sys.argv[2])
decl = json.load(open(sys.argv[3]))
gated = {m["name"]: m for m in decl["end_to_end"]}
names = list(gated) + ["step_ms", "step_ms_lan"]
print()
print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change / parent "
      "| pairs won by change | separated | spread (IQR/median) parent, change | verdict (bound) |")
print("|---|---|---|---|---|---|---|---|---|")
for w in [x["name"] for x in decl["workloads"]]:
    if w not in parent or w not in change:
        continue
    for name in names:
        a = [r["metrics"][name]["value"] for r in parent[w]]
        b = [r["metrics"][name]["value"] for r in change[w]]
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quart(a), quart(b)
        # Runs pair up in the order they were made; lower is better for all six.
        won = sum(y < x for x, y in zip(a, b))
        ties = sum(y == x for x, y in zip(a, b))
        pairs = min(len(a), len(b))
        sa, sb = (a3 - a1) / ma, (b3 - b1) / mb
        separated = max(b) < min(a)
        if name in gated:
            bound = gated[name]["bound"]
            if a == b:
                verdict = "identical"
            elif mb > ma * (1 + bound):
                verdict = "PAST BOUND"
            elif max(sa, sb) > bound and not separated:
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            verdict += f" ({bound})"
        else:
            verdict = "per-layer, not gated"
        tie_note = f", {ties} ties" if ties else ""
        print(f"| `{w}` | `{name}` | {fmt(ma)} [{fmt(a1)}, {fmt(a3)}] | {fmt(mb)} [{fmt(b1)}, {fmt(b3)}] "
              f"| {mb / ma:.3f} | {won}/{pairs}{tie_note} | {'yes' if separated else 'no'} "
              f"| {100 * sa:.1f} %, {100 * sb:.1f} % | {verdict} |")
failed = sum(r["failed"] for by in (parent, change) for rs in by.values() for r in rs)
reps = sum(r["attempted"] for by in (parent, change) for rs in by.values() for r in rs)
wrong = sum(not r["correct"] for by in (parent, change) for rs in by.values() for r in rs)
print(f"\n{sum(len(v) for v in parent.values()) + sum(len(v) for v in change.values())} timed runs, "
      f"{reps} repetitions, {failed} failed, {wrong} records not correct")
EOF
exit $status
