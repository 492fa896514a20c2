#!/usr/bin/env sh
# bench.sh — run the Table 2, schedule-generation, symbolic
# state-budget, machine-step, service cache-hit, repair and static-pass
# benchmarks ten times each and emit a BENCH_<sha>.json artifact in the format the
# CI bench job uploads (go test -json event stream). Ten samples per
# benchmark are what benchstat needs for a median and a confidence
# interval; compare two checkouts with:
#
#   jq -rj 'select(.Action=="output") | .Output' BENCH_<base>.json > base.txt
#   jq -rj 'select(.Action=="output") | .Output' BENCH_<head>.json > head.txt
#   benchstat base.txt head.txt
#
# Usage: scripts/bench.sh [output-dir] [count] [pattern]
#   output-dir  where BENCH_<sha>.json lands (default .)
#   count       go test -count value (default 10)
#   pattern     go test -bench regexp (default
#               'Table2|ScheduleGeneration|SymbolicBudget|MachineStep|ServeCacheHit|Repair|StaticPass';
#               '.' runs every benchmark in bench_test.go and
#               spectre/crypto_test.go)
#
# -benchmem is always on: B/op and allocs/op are tracked alongside
# ns/op, since allocation volume is what the copy-on-write state
# representation optimizes. End-to-end numbers (Table 2, the corpus
# sweep, the analysis service) come from perfbench/run.sh instead.
set -eu

outdir="${1:-.}"
count="${2:-10}"
pattern="${3:-Table2|ScheduleGeneration|SymbolicBudget|MachineStep|ServeCacheHit|Repair|StaticPass}"
sha="$(git rev-parse HEAD 2>/dev/null || echo nogit)"
out="${outdir}/BENCH_${sha}.json"

mkdir -p "$outdir"
go test -bench="$pattern" -count="$count" -benchmem -run='^$' -json . ./spectre > "$out"
echo "wrote $out" >&2
