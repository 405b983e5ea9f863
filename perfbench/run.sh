#!/usr/bin/env bash
# Build the benchmark from source and run it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of standard output is the
# JSON result. The build directory is $CARGO_TARGET_DIR (default
# .bench_build), kept apart from the repository's own _build.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build_dir" --profile release \
  ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
