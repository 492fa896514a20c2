#!/usr/bin/env sh
# bench.sh — run the full repository benchmark sweep and emit a
# BENCH_<sha>.json artifact in the exact format the CI bench job
# uploads (go test -json event stream), so local runs, the committed
# baseline under bench/, and the CI artifact trail are directly
# comparable with benchstat:
#
#   jq -rj 'select(.Action=="output") | .Output' BENCH_<sha>.json > out.txt
#   benchstat baseline.txt out.txt
#
# Usage: scripts/bench.sh [output-dir] [benchtime]
#   output-dir  where BENCH_<sha>.json lands (default .)
#   benchtime   go test -benchtime value (default 1x, the CI setting)
#
# -benchmem is always on: the perf trajectory tracks B/op and
# allocs/op alongside ns/op, since allocation volume is what the
# copy-on-write state representation optimizes.
#
# The sweep includes BenchmarkStaticPass, which prices the static
# taint pass itself (the whole cost of certifying a safe program).
# The repair side is covered by BenchmarkRepairPortfolio, whose
# auto/fence/mask/ret sub-benchmarks price the whole mitigation
# portfolio against each pinned strategy on the same corpus.
set -eu

outdir="${1:-.}"
benchtime="${2:-1x}"
sha="$(git rev-parse HEAD 2>/dev/null || echo nogit)"
out="${outdir}/BENCH_${sha}.json"

mkdir -p "$outdir"
go test -bench=. -benchtime="$benchtime" -benchmem -run='^$' -json ./... > "$out"
echo "wrote $out" >&2
