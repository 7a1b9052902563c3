#!/usr/bin/env bash
# Checks that every flag the bottleneck doctor recommends still exists: each
# --flag named in the hint strings of src/obs/attribution.cc, or in the
# advice table of docs/observability.md, must appear in `xstream_cli --help`.
# A deletion that retires a flag then also has to retire the advice.
#
# Usage: scripts/check_hint_flags.sh [path/to/xstream_cli]
#        (default: build/xstream_cli; run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
CLI="${1:-build/xstream_cli}"

HELP="$("$CLI" --help)"
# The advice table runs from its "| diagnosis | hint |" header to the first
# line that is not a table row.
TABLE="$(awk '/^\| diagnosis \| hint \|/ { on = 1 } on && !/^\|/ { exit } on' \
  docs/observability.md)"
[[ -n "$TABLE" ]] || { echo "error: no advice table in docs/observability.md" >&2; exit 1; }

FLAGS="$( { grep -oE -- '--[a-z][a-z0-9-]*' src/obs/attribution.cc;
            grep -oE -- '--[a-z][a-z0-9-]*' <<<"$TABLE"; } | sort -u)"
[[ -n "$FLAGS" ]] || { echo "error: found no flags in the doctor's hints" >&2; exit 1; }

fail=0
while IFS= read -r flag; do
  if ! grep -qE -- "${flag}([=[:space:]]|$)" <<<"$HELP"; then
    echo "error: the doctor recommends $flag, which $CLI --help does not list" >&2
    fail=1
  fi
done <<<"$FLAGS"
if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "hint flags ok: $(wc -l <<<"$FLAGS") flags, all listed by $CLI --help"
