#!/usr/bin/env bash
# trace_smoke.sh — end-to-end observability check for mincutd's solve
# tracing. It boots the real daemon with tracing on, runs one solve over
# HTTP, and asserts that
#
#   * GET /v1/traces/{job} returns the job's span tree with the full
#     chain: job root, queue-wait, http, run, packing, and scan spans,
#   * GET /v1/traces lists the trace and its graph/min_duration filters
#     behave,
#   * /metrics carries the histogram families (solve_duration_seconds,
#     labeled by class, phase and engine, with the solve's packing and
#     scan counted; queue_wait_seconds; http_request_duration_seconds),
#     the build_info gauge, and no retired solve_phase_seconds summary,
#   * the slow-solve threshold produces a structured "slow solve" log
#     line, and the pprof debug listener answers.
#
# Runs in CI and locally: ./scripts/trace_smoke.sh
set -euo pipefail

PORT="${PORT:-18373}"
DEBUG_PORT="${DEBUG_PORT:-18374}"
BASE="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
LOG="${WORKDIR}/mincutd.log"
PID=""

cleanup() {
  [[ -n "${PID}" ]] && kill -9 "${PID}" 2>/dev/null || true
  rm -rf "${WORKDIR}"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- mincutd log ---" >&2
  cat "${LOG}" >&2 || true
  exit 1
}

cd "$(dirname "$0")/.."
echo "== building mincutd"
go build -ldflags "-X main.version=trace-smoke" -o "${WORKDIR}/mincutd" ./cmd/mincutd

echo "== starting mincutd (tracing on, slow threshold 1ns, pprof debug listener)"
"${WORKDIR}/mincutd" -addr "127.0.0.1:${PORT}" -workers 2 \
  -trace-buffer 64 -trace-slow-threshold 1ns -log-format json \
  -debug-addr "127.0.0.1:${DEBUG_PORT}" >>"${LOG}" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  curl -fsS "${BASE}/healthz" >/dev/null 2>&1 && break
  kill -0 "${PID}" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
curl -fsS "${BASE}/healthz" >/dev/null || fail "daemon never became healthy"
curl -fsS "${BASE}/healthz" | grep -q '"version":"trace-smoke"' || fail "healthz lacks the build version"

graph() {
  local n="$1" i
  echo "p cut ${n} $((2 * n))"
  for ((i = 0; i < n; i++)); do
    echo "e ${i} $(((i + 1) % n)) $((2 + i % 5))"
    echo "e ${i} $(((i + 7) % n)) $((1 + i % 3))"
  done
}

json_field() {
  grep -o "\"$1\":[^,}]*" | head -n1 | sed 's/^[^:]*://; s/^"//; s/"$//'
}

echo "== uploading graph and solving"
ID=$(graph 400 | curl -fsS -X POST --data-binary @- "${BASE}/v1/graphs" | json_field id)
[[ "$ID" == sha256:* ]] || fail "bad upload id: ${ID}"
# Pin the paper engine: this script asserts its packing/scan span chain,
# and the default engine is "auto", which sends a 400-vertex graph to the
# stoerwagner baseline (engines_smoke.sh covers that path).
RESP=$(curl -fsS -X POST -H 'Content-Type: application/json' -d '{"seed": 7, "engine": "geissmann"}' \
  "${BASE}/v1/graphs/${ID}/mincut")
JOB=$(echo "${RESP}" | json_field job_id)
echo "${RESP}" | grep -q '"status":"done"' || fail "solve did not finish: ${RESP}"
[[ -n "${JOB}" ]] || fail "no job id in ${RESP}"

echo "== fetching the span tree for ${JOB}"
TRACE=$(curl -fsS "${BASE}/v1/traces/${JOB}")
for span in job queue-wait http run packing scan; do
  echo "${TRACE}" | grep -q "\"name\":\"${span}\"" || fail "trace lacks a ${span} span: ${TRACE}"
done
echo "${TRACE}" | grep -q "\"key\":\"graph\",\"value\":\"${ID}\"" || fail "trace root not tagged with the graph"

echo "== listing traces with filters"
curl -fsS "${BASE}/v1/traces?graph=${ID}" | grep -q "\"id\":\"${JOB}\"" || fail "trace list by graph misses ${JOB}"
LISTED=$(curl -fsS "${BASE}/v1/traces?graph=${ID}&min_duration=1h")
echo "${LISTED}" | grep -q "\"id\":\"${JOB}\"" && fail "min_duration=1h failed to filter the trace out"

echo "== checking the metric families"
METRICS=$(curl -fsS "${BASE}/metrics")
for want in \
  'mincutd_build_info{version="trace-smoke"' \
  'mincutd_solve_duration_seconds_bucket{class="interactive",phase="packing",engine="geissmann"' \
  'mincutd_queue_wait_seconds_bucket{class="interactive"' \
  'mincutd_http_request_duration_seconds_bucket{route="POST /v1/graphs/{id}/mincut",code="200"'; do
  echo "${METRICS}" | grep -qF "${want}" || fail "/metrics lacks ${want}"
done
for want in \
  'mincutd_solve_duration_seconds_count{class="interactive",phase="packing",engine="geissmann"}' \
  'mincutd_solve_duration_seconds_count{class="interactive",phase="scan",engine="geissmann"}'; do
  COUNT=$(echo "${METRICS}" | awk -v series="${want}" '$1 == series { print $2 }')
  [[ -n "${COUNT}" && "${COUNT}" -ge 1 ]] || fail "/metrics ${want} = '${COUNT}', want >= 1"
done
[[ "${METRICS}" != *mincutd_solve_phase_seconds* ]] || fail "/metrics still carries mincutd_solve_phase_seconds"

echo "== checking the slow-solve log line"
grep -q '"msg":"slow solve"' "${LOG}" || fail "no slow-solve line despite a 1ns threshold"
grep '"msg":"slow solve"' "${LOG}" | head -n1 | grep -q '"packing"' || fail "slow-solve line lacks phase attribution"

echo "== checking the pprof debug listener"
curl -fsS "http://127.0.0.1:${DEBUG_PORT}/debug/pprof/cmdline" >/dev/null || fail "pprof debug listener not answering"

echo "== graceful shutdown"
kill -TERM "${PID}"
wait "${PID}" || fail "daemon exited uncleanly on SIGTERM"
PID=""

echo "PASS: trace smoke"
