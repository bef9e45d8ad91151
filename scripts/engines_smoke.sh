#!/usr/bin/env bash
# engines_smoke.sh — end-to-end check of the pluggable engine seam. It
# boots the real daemon, uploads one graph, solves it over HTTP with every
# engine value (geissmann, andersonblelloch, stoerwagner, auto), and
# asserts that
#
#   * all four solves return the same cut value,
#   * each job reports its concrete engine ("auto" reports what it
#     picked, and on this graph size it must pick stoerwagner),
#   * the job's trace run span carries the engine attribute,
#   * /metrics carries the engine-labeled completion counters and solve
#     duration histograms,
#   * an unknown engine, and the retired kargerstein, is rejected with a
#     400.
#
# Runs in CI and locally: ./scripts/engines_smoke.sh
set -euo pipefail

PORT="${PORT:-18375}"
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
go build -o "${WORKDIR}/mincutd" ./cmd/mincutd

echo "== starting mincutd (tracing on)"
"${WORKDIR}/mincutd" -addr "127.0.0.1:${PORT}" -workers 2 \
  -trace-buffer 64 -log-format json >>"${LOG}" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  curl -fsS "${BASE}/healthz" >/dev/null 2>&1 && break
  kill -0 "${PID}" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
curl -fsS "${BASE}/healthz" >/dev/null || fail "daemon never became healthy"

# A 200-vertex near-4-regular graph: small enough that every engine
# solves it in seconds, and under the auto rule's SmallN so "auto" must
# pick stoerwagner.
graph() {
  local n=200 i
  echo "p cut ${n} $((2 * n))"
  for ((i = 0; i < n; i++)); do
    echo "e ${i} $(((i + 1) % n)) $((2 + i % 5))"
    echo "e ${i} $(((i + 7) % n)) $((1 + i % 3))"
  done
}

json_field() {
  grep -o "\"$1\":[^,}]*" | head -n1 | sed 's/^[^:]*://; s/^"//; s/"$//'
}

echo "== uploading graph"
ID=$(graph | curl -fsS -X POST --data-binary @- "${BASE}/v1/graphs" | json_field id)
[[ "$ID" == sha256:* ]] || fail "bad upload id: ${ID}"

declare -A VALUE ENGINE JOB
for eng in geissmann andersonblelloch stoerwagner auto; do
  echo "== solving with engine=${eng}"
  RESP=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"seed\": 7, \"engine\": \"${eng}\"}" "${BASE}/v1/graphs/${ID}/mincut")
  echo "${RESP}" | grep -q '"status":"done"' || fail "engine ${eng}: solve did not finish: ${RESP}"
  VALUE[$eng]=$(echo "${RESP}" | json_field value)
  ENGINE[$eng]=$(echo "${RESP}" | json_field engine)
  JOB[$eng]=$(echo "${RESP}" | json_field job_id)
  [[ -n "${VALUE[$eng]}" ]] || fail "engine ${eng}: no value in ${RESP}"
done

echo "== diffing cut values across engines"
for eng in andersonblelloch stoerwagner auto; do
  [[ "${VALUE[$eng]}" == "${VALUE[geissmann]}" ]] ||
    fail "engine ${eng} found ${VALUE[$eng]}, geissmann found ${VALUE[geissmann]}"
done

echo "== checking reported engines"
for eng in geissmann andersonblelloch stoerwagner; do
  [[ "${ENGINE[$eng]}" == "${eng}" ]] || fail "engine ${eng} reported as ${ENGINE[$eng]}"
done
[[ "${ENGINE[auto]}" == "stoerwagner" ]] ||
  fail "auto resolved to ${ENGINE[auto]} on a 200-vertex graph, want stoerwagner"
# Auto resolves before the cache key is built, so the auto solve must have
# been served from the explicit stoerwagner solve's cache entry.
[[ "${JOB[auto]}" == "${JOB[stoerwagner]}" ]] ||
  fail "auto ran job ${JOB[auto]} instead of sharing ${JOB[stoerwagner]}"

echo "== checking the job object reports the engine"
curl -fsS "${BASE}/v1/jobs/${JOB[andersonblelloch]}" | grep -q '"engine":"andersonblelloch"' ||
  fail "GET /v1/jobs lacks the engine"

echo "== checking the trace run span carries the engine attribute"
TRACE=$(curl -fsS "${BASE}/v1/traces/${JOB[stoerwagner]}")
echo "${TRACE}" | grep -q '"key":"engine","value":"stoerwagner"' ||
  fail "trace lacks the engine attribute: ${TRACE}"
echo "${TRACE}" | grep -q '"name":"contract"' || fail "stoerwagner trace lacks a contract span"
TRACE_AB=$(curl -fsS "${BASE}/v1/traces/${JOB[andersonblelloch]}")
echo "${TRACE_AB}" | grep -q '"name":"path-decompose"' ||
  fail "andersonblelloch trace lacks a path-decompose span"
echo "${TRACE_AB}" | grep -q '"name":"path-scan"' ||
  fail "andersonblelloch trace lacks a path-scan span"

echo "== checking the engine-labeled metric families"
METRICS=$(curl -fsS "${BASE}/metrics")
for want in \
  'mincutd_jobs_completed_total{class="interactive",engine="geissmann"} 1' \
  'mincutd_jobs_completed_total{class="interactive",engine="andersonblelloch"} 1' \
  'mincutd_jobs_completed_total{class="interactive",engine="stoerwagner"} 1' \
  'mincutd_solve_duration_seconds_count{class="interactive",phase="contract",engine="stoerwagner"}' \
  'mincutd_solve_duration_seconds_count{class="interactive",phase="scan",engine="geissmann"}' \
  'mincutd_solve_duration_seconds_count{class="interactive",phase="scan",engine="andersonblelloch"}'; do
  echo "${METRICS}" | grep -qF "${want}" || fail "/metrics lacks ${want}"
done

echo "== checking an unknown or retired engine is a 400"
for eng in edmondskarp kargerstein; do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "{\"engine\": \"${eng}\"}" "${BASE}/v1/graphs/${ID}/mincut")
  [[ "${CODE}" == "400" ]] || fail "engine ${eng} returned ${CODE}, want 400"
done

echo "== graceful shutdown"
kill -TERM "${PID}"
wait "${PID}" || fail "daemon exited uncleanly on SIGTERM"
PID=""

echo "PASS: engines smoke"
