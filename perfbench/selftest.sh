#!/usr/bin/env bash
# The benchmark's own test. For every workload it asserts that two
# untraced runs print identical simulated-statistics digests and count
# proxies, that a traced run reproduces the same digest and counts, and
# that every run reports correct=true with no failed operation.
# Usage (from the repository root): bash perfbench/selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}/selftest"
mkdir -p "$out"
fail=0
run() { bash perfbench/run.sh --workload "$1" --seed 7 --seconds "$2" --trace "$3" >"$4"; }
for w in offload-warm native-warm lockstep-concurrent fleet-mixed; do
  before=$fail
  run "$w" 2 0 "$out/$w.a"
  run "$w" 2 0 "$out/$w.b"
  run "$w" 4 1 "$out/$w.t"
  for f in a b t; do
    tail -n 1 "$out/$w.$f" | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,' ||
      { echo "FAIL $w ($f): $(tail -n 1 "$out/$w.$f" | cut -c1-120)"; fail=1; }
  done
  for key in digest counts; do
    a=$(grep "^$key:" "$out/$w.a"); b=$(grep "^$key:" "$out/$w.b")
    [ "$a" = "$b" ] || { echo "FAIL $w: $key differs between runs"; fail=1; }
  done
  d=$(grep '^digest:' "$out/$w.a" | awk '{print $2}')
  grep -q "^digest: $d (untraced) .* equal$" "$out/$w.t" ||
    { echo "FAIL $w: traced run changed the digest"; fail=1; }
  [ "$w" = fleet-mixed ] ||
    cmp -s <(grep '^counts:' "$out/$w.a" | sed 's/ gc_minor_kwords=[0-9]*//') \
      <(grep '^counts(traced):' "$out/$w.t" | sed 's/^counts(traced)/counts/; s/ gc_minor_kwords=[0-9]*//') ||
    { echo "FAIL $w: traced run changed the count proxies"; fail=1; }
  [ "$fail" != "$before" ] || echo "ok $w: $(grep '^digest:' "$out/$w.a")"
done
exit $fail
