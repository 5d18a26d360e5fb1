#!/usr/bin/env sh
# Runs the microbenchmark suite and records the results as JSON so runs can
# be diffed across commits.
#
# Usage: bench/run_benchmarks.sh [build-dir] [output.json]
#   build-dir defaults to ./build (must already be configured and built)
#   output    defaults to BENCH_micro.json in the repo root
#
# The output's `context` and `benchmarks` are replaced by this run's; a
# `trajectory` array already in the output (hand-kept before/after records)
# is carried over unchanged.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out=${2:-"$repo_root/BENCH_micro.json"}

bench_bin="$build_dir/bench/bench_micro"
if [ ! -x "$bench_bin" ]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

fresh=$(mktemp "${TMPDIR:-/tmp}/bench_micro.XXXXXX")
trap 'rm -f "$fresh"' EXIT

"$bench_bin" \
  --benchmark_format=json \
  --benchmark_out="$fresh" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}"

python3 - "$fresh" "$out" <<'EOF'
import json
import os
import sys

fresh_path, out_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    result = json.load(f)
if os.path.exists(out_path):
    with open(out_path) as f:
        previous = json.load(f)
    if "trajectory" in previous:
        result["trajectory"] = previous["trajectory"]
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
EOF

echo "wrote $out"
