#!/usr/bin/env bash
# Reproduce every paper artifact end to end.
#
#   scripts/reproduce.sh            # default Monte-Carlo budgets (~15 min)
#   scripts/reproduce.sh --full     # paper-scale budgets (hours)
#
# Extra arguments go to every bench but bench_decoder_speed and
# bench_traffic (fixed single-stream rows), so pass only flags every other
# bench accepts (--full, --seed S, --trials N, --threads T); a bench exits
# 2 on an output format it does not print (--csv, --json).
#
# Output lands in reproduction/: one text file per bench, plus the ctest
# log. Compare against EXPERIMENTS.md.

set -euo pipefail
cd "$(dirname "$0")/.."

EXTRA=("$@")
OUT=reproduction
mkdir -p "$OUT"

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee "$OUT/ctest.txt"

for bench in build/bench/bench_*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name=$(basename "$bench")
  echo "== $name =="
  if [[ "$name" == "bench_decoder_speed" || "$name" == "bench_traffic" ]]; then
    "$bench" 2>&1 | tee "$OUT/$name.txt"
  else
    "$bench" "${EXTRA[@]}" 2>&1 | tee "$OUT/$name.txt"
  fi
done

echo "done; results in $OUT/"
