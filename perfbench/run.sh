#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload table2|corpus|service|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build output, cache and temporary
# file stays under .bench_build/ in the checkout. "--workload all" runs
# the three workloads one after another, each in a fresh process.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)

commit=unknown
if git -C "$root" rev-parse --show-toplevel 2>/dev/null | grep -qxF "$root"; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[$i]}" == "--workload" && $((i + 1)) -lt ${#args[@]} ]]; then
		workload="${args[$((i + 1))]}"
	fi
done

if [[ "$workload" != "all" ]]; then
	exec "$out/perfbench" "$@"
fi

status=0
for w in table2 corpus service; do
	rest=()
	for ((i = 0; i < ${#args[@]}; i++)); do
		if [[ "${args[$i]}" == "--workload" ]]; then
			i=$((i + 1))
			continue
		fi
		rest+=("${args[$i]}")
	done
	echo "== workload $w"
	"$out/perfbench" --workload "$w" "${rest[@]}" || status=$?
done
exit "$status"
