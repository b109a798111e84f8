#!/usr/bin/env bash
# Pins the benchmark's deterministic work counts. Runs the traced
# perfbench on the churn and mobility workloads at seed 3 and fails when
# a run fails its own checks (non-zero exit) or when its `work_counts`
# differ from the published values below: how many solves, Phase-II
# iterations, view builds and directives the controller spent on the
# first 200 events, and the bytes the daemon probe's first session put on
# the wire. Wall-clock figures are never checked here; a change that
# moves one of these counts changes the controller's work and must update
# this table in the same commit.
#
# Used by CI and runnable locally from the repository root:
#
#   bash scripts/perfbench_counts.sh
set -euo pipefail

SEED=3
SECONDS_PER_RUN=8

# The work counts one traced run must report, as name=value pairs.
COMMON="core.solves=200 daemon.bytes_in=270960 daemon.bytes_out=230744"
CHURN="$COMMON core.phase2_iterations=1200 cc.view_builds=200 cc.directives=2853"
MOBILITY="$COMMON core.phase2_iterations=14138 cc.view_builds=138 cc.directives=90"

status=0

# check WORKLOAD NAME=VALUE...
check() {
    local workload="$1"
    shift
    local out
    if ! out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 1)"; then
        echo "perfbench $workload seed $SEED failed its checks:" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    local counts
    counts="$(printf '%s\n' "$out" | grep -o '"work_counts":{[^}]*}' | head -n 1)"
    if [ -z "$counts" ]; then
        echo "perfbench $workload printed no work_counts:" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    local pair name want got
    for pair in "$@"; do
        name="${pair%=*}"
        want="${pair#*=}"
        got="$(printf '%s' "$counts" | grep -o "\"$name\":[0-9]*" | grep -o '[0-9]*$' || true)"
        if [ "$got" != "$want" ]; then
            echo "$workload: $name = ${got:-missing}, expected $want" >&2
            status=1
        fi
    done
    echo "$workload seed $SEED: $counts"
}

# shellcheck disable=SC2086
check churn $CHURN
# shellcheck disable=SC2086
check mobility $MOBILITY

if [ "$status" -ne 0 ]; then
    echo "work counts differ from the published values" >&2
fi
exit "$status"
