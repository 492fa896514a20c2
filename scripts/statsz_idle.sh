#!/usr/bin/env sh
# statsz_idle.sh — poll a running spectred's /statsz for up to 5 s and
# exit 0 once its admission counts are back to zero (inFlight == 0 and
# queueDepth == 0), nonzero otherwise. Run it after a load replay has
# finished: an admission that never returns would otherwise only show
# up much later, as spurious 429s. Needs curl and jq.
#
# Usage: scripts/statsz_idle.sh http://127.0.0.1:8321
set -eu

addr="$1"
i=0
while [ "$i" -lt 50 ]; do
	if stats=$(curl -sf "$addr/statsz") &&
		[ "$(printf '%s' "$stats" | jq '.inFlight == 0 and .queueDepth == 0')" = true ]; then
		exit 0
	fi
	i=$((i + 1))
	sleep 0.1
done
echo "statsz_idle: admission counts did not return to zero within 5 s:" >&2
curl -s "$addr/statsz" >&2 || true
exit 1
