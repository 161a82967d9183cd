#!/usr/bin/env bash
# Builds bench_pipeline (Release, from this checkout's sources) and runs it.
#
#   bench/pipeline/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload once untraced and once traced; prints every metric
#       and writes one results JSON (default .bench_build/pipeline/results.json)
#   bench/pipeline/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its JSON result
#   bench/pipeline/run.sh --compare A.json B.json
#       judges B against A with the bounds in BENCHMARK.json
#
# Build output goes to stderr, so stdout carries only the benchmark's.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/pipeline"
bin="$build/bench_pipeline"

# The seed every claim is measured on, and the one held out to confirm it.
default_seed=1
held_out_seed=20261016

if [[ ! -f "$build/.configured" ]]; then
  cmake -S "$root/bench/pipeline" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  touch "$build/.configured"
fi
cmake --build "$build" -j "$(nproc)" >&2

sha=unknown
if [[ -e "$root/.git" ]]; then
  sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

if [[ "${1:-}" == "--compare" ]]; then
  exec "$bin" "$@"
fi
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@" --git-sha "$sha"
  fi
done

seed=$default_seed
seconds=20
out="$build/results.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --held-out) seed=$held_out_seed; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

runs="$build/runs"
rm -rf "$runs"
mkdir -p "$runs"
for w in curve-fleet validate-sim serve-replay scale-ladder; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
    --out "$runs/$w.trace0.json" --git-sha "$sha"
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
    --out "$runs/$w.trace1.json" --spans "$runs/$w.spans.jsonl" --git-sha "$sha"
done
"$bin" --merge "$out" "$runs"/*.trace?.json
echo "results: $out"
