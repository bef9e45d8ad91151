#!/usr/bin/env bash
# fairness_smoke.sh — end-to-end scheduler fairness check for mincutd's
# QoS classes. It boots the real daemon with a small worker pool, floods
# it with background solves (distinct seeds, so nothing coalesces), then
# submits one interactive solve mid-flood and asserts that
#
#   * the interactive solve completes while the background queue is still
#     deep (it jumped the flood instead of waiting it out),
#   * the per-class metrics exist and account for the flood
#     (queue_depth{class="background"}, jobs_dispatched_total{class=...}),
#   * an NDJSON event stream for a job reaches its terminal result event.
#
# Runs in CI and locally: ./scripts/fairness_smoke.sh
set -euo pipefail

PORT="${PORT:-18372}"
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

echo "== starting mincutd (2 workers, weighted-fair classes)"
"${WORKDIR}/mincutd" -addr "127.0.0.1:${PORT}" -workers 2 \
  -class-weights "interactive=8,batch=4,background=1" >>"${LOG}" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  curl -fsS "${BASE}/healthz" >/dev/null 2>&1 && break
  kill -0 "${PID}" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
curl -fsS "${BASE}/healthz" >/dev/null || fail "daemon never became healthy"

# A graph big enough that one solve takes real time on a busy box.
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

metric() {
  curl -fsS "${BASE}/metrics" | awk -v m="$1" '$1 == m {print $2}'
}

echo "== uploading graph"
ID=$(graph 600 | curl -fsS -X POST --data-binary @- "${BASE}/v1/graphs" | json_field id)
[[ "$ID" == sha256:* ]] || fail "bad upload id: ${ID}"

# The flood pins geissmann: on this graph "auto" picks andersonblelloch,
# whose solves end faster than the curls below can queue new ones, so no
# backlog would form.
echo "== flooding with 40 background solves"
for i in $(seq 1 40); do
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"seed\": ${i}, \"class\": \"background\", \"async\": true, \"engine\": \"geissmann\"}" \
    "${BASE}/v1/graphs/${ID}/mincut" >/dev/null
done

DEPTH=$(metric 'mincutd_queue_depth{class="background"}')
[[ -n "${DEPTH}" && "${DEPTH}" -ge 10 ]] || fail "background queue depth '${DEPTH}', want a deep flood"
echo "   background queue depth: ${DEPTH}"

echo "== submitting an interactive solve mid-flood"
JOB=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"seed": 777, "class": "interactive", "async": true}' \
  "${BASE}/v1/graphs/${ID}/mincut" | json_field job_id)
[[ -n "${JOB}" ]] || fail "no job id for interactive solve"

echo "== watching its NDJSON event stream until the terminal event"
EVENTS=$(curl -fsS -N --max-time 120 "${BASE}/v1/jobs/${JOB}/events" | sed '/"terminal":true/q')
echo "${EVENTS}" | grep -q '"terminal":true' || fail "event stream never reached a terminal event"
echo "${EVENTS}" | grep -q '"type":"phase"' || fail "event stream carried no phase transitions"
echo "${EVENTS}" | grep -q '"state":"done"' || fail "interactive solve did not finish cleanly"

DEPTH_AFTER=$(metric 'mincutd_queue_depth{class="background"}')
[[ -n "${DEPTH_AFTER}" && "${DEPTH_AFTER}" -ge 1 ]] ||
  fail "background queue already drained (depth '${DEPTH_AFTER}'); the interactive solve never had to jump it"
echo "   interactive solve done with background depth still ${DEPTH_AFTER} — no starvation"

DISPATCHED_INT=$(metric 'mincutd_jobs_dispatched_total{class="interactive"}')
[[ "${DISPATCHED_INT}" -ge 1 ]] || fail "interactive dispatch counter is '${DISPATCHED_INT}'"

echo "== graceful shutdown (remaining background jobs drain)"
kill -TERM "${PID}"
wait "${PID}" || fail "daemon exited uncleanly on SIGTERM"
PID=""

echo "PASS: fairness smoke"
