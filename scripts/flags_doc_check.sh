#!/usr/bin/env bash
# flags_doc_check.sh — checks that docs/OPERATIONS.md documents exactly the
# flags mincutd accepts.
#
# Lists the flags `mincutd -h` prints and the flag names in the first
# column of the tables under OPERATIONS.md's "## Flags" heading, and fails
# if the two lists differ, naming each flag found on one side only.
#
#   ./scripts/flags_doc_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

doc=docs/OPERATIONS.md
usage=$(go run ./cmd/mincutd -h 2>&1)
binary=$(sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' <<<"$usage" | sort)
documented=$(awk '/^## /{inflags = ($0 == "## Flags")} inflags' "$doc" |
    sed -n 's/^| `-\([a-z0-9-]*\)`.*/\1/p' | sort)

if [ -z "$binary" ]; then
    echo "flags_doc_check: no flags parsed from mincutd -h:" >&2
    echo "$usage" >&2
    exit 1
fi

undocumented=$(comm -23 <(echo "$binary") <(echo "$documented"))
unknown=$(comm -13 <(echo "$binary") <(echo "$documented"))
if [ -n "$undocumented" ] || [ -n "$unknown" ]; then
    for f in $undocumented; do
        echo "flags_doc_check: -$f is a mincutd flag missing from $doc" >&2
    done
    for f in $unknown; do
        echo "flags_doc_check: -$f is in $doc but mincutd does not accept it" >&2
    done
    exit 1
fi
echo "flags_doc_check: $(wc -l <<<"$binary") flags, documented and accepted alike"
