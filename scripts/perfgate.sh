#!/usr/bin/env bash
# perfgate.sh — the CI perf gate over the solver's inner-loop primitives.
#
# Runs paperbench's hotpath experiment (one-queue fork-join, scan
# family, parallel merge/sort, arena-backed connectivity) with median-of-N
# repetitions, writes the measured series to BENCH_hotpath.json, and
# compares them against the committed BENCH_baseline.json. Timing is
# normalized by the ref_spin calibration series so the comparison cancels
# raw host speed; allocs/op is compared directly. A regression beyond the
# tolerance fails the script (and the CI job).
#
# To accept an intended slowdown, refresh and commit the baseline:
#
#   go run ./cmd/paperbench -exp hotpath -hotpath-reps 3 -hotpath-out BENCH_baseline.json
#
# Environment overrides:
#   PERFGATE_BASELINE   baseline JSON path   (default BENCH_baseline.json)
#   PERFGATE_OUT        output JSON path     (default BENCH_hotpath.json)
#   PERFGATE_REPS       repetitions/series   (default 3)
#   PERFGATE_TOLERANCE  allowed regression   (default 0.10 = 10%)
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${PERFGATE_BASELINE:-BENCH_baseline.json}"
out="${PERFGATE_OUT:-BENCH_hotpath.json}"
reps="${PERFGATE_REPS:-3}"
tol="${PERFGATE_TOLERANCE:-0.10}"

if [ ! -f "$baseline" ]; then
    echo "perfgate: baseline $baseline missing — generate and commit it first:" >&2
    echo "  go run ./cmd/paperbench -exp hotpath -hotpath-reps 3 -hotpath-out $baseline" >&2
    exit 1
fi

exec go run ./cmd/paperbench -exp hotpath \
    -hotpath-reps "$reps" \
    -hotpath-out "$out" \
    -perf-baseline "$baseline" \
    -perf-tolerance "$tol"
