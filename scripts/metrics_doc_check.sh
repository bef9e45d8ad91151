#!/usr/bin/env bash
# metrics_doc_check.sh — checks that docs/OPERATIONS.md's metrics catalog
# names exactly the metric families mincutd exports.
#
# Starts mincutd with a data dir and a one-member cluster, so the store
# and cluster families are printed too, and lists the family names of the
# "# TYPE" lines on GET /metrics. Lists the backticked mincutd_* names
# under OPERATIONS.md's "## Metrics catalog" heading, expanding {a,b}
# inside a name and dropping anything after a space and a trailing label
# list such as {version,go_version}. Fails if the two lists differ,
# naming each family found on one side only.
#
#   ./scripts/metrics_doc_check.sh
set -euo pipefail

PORT="${PORT:-18376}"
ADDR="127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
PID=""

cleanup() {
  if [[ -n "${PID}" ]]; then
    { kill -9 "${PID}" && wait "${PID}"; } 2>/dev/null || true
  fi
  rm -rf "${WORKDIR}"
}
trap cleanup EXIT

cd "$(dirname "$0")/.."
doc=docs/OPERATIONS.md
go build -o "${WORKDIR}/mincutd" ./cmd/mincutd
"${WORKDIR}/mincutd" -addr "${ADDR}" -workers 1 -data-dir "${WORKDIR}/data" \
  -peers "${ADDR}" -advertise "${ADDR}" >"${WORKDIR}/mincutd.log" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  curl -fsS "http://${ADDR}/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
if ! metrics=$(curl -fsS "http://${ADDR}/metrics"); then
  echo "metrics_doc_check: mincutd never served /metrics:" >&2
  cat "${WORKDIR}/mincutd.log" >&2
  exit 1
fi

exported=$(sed -n 's/^# TYPE \(mincutd_[a-z0-9_]*\) .*/\1/p' <<<"$metrics" | sort -u)
documented=$(awk '/^## /{incat = ($0 == "## Metrics catalog")} incat' "$doc" |
  grep -o '`mincutd_[^`]*`' | tr -d '`' |
  sed -e 's/ .*//' -e 's/{[a-z_]*,[a-z_,]*}$//' |
  sed -e 's/^\(.*\){\([a-z_]*\),\([a-z_]*\)}\(.*\)$/\1\2\4\n\1\3\4/' | sort -u)

undocumented=$(comm -23 <(echo "$exported") <(echo "$documented"))
unknown=$(comm -13 <(echo "$exported") <(echo "$documented"))
if [ -n "$undocumented" ] || [ -n "$unknown" ]; then
  for m in $undocumented; do
    echo "metrics_doc_check: $m is exported by mincutd but missing from $doc" >&2
  done
  for m in $unknown; do
    echo "metrics_doc_check: $m is in $doc but mincutd does not export it" >&2
  done
  exit 1
fi
echo "metrics_doc_check: $(wc -l <<<"$exported") metric families, exported and documented alike"
