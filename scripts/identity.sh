#!/usr/bin/env bash
# Identity check: does the working tree simulate exactly what <rev> does?
#
#   scripts/identity.sh <rev> [--seeds N]
#
# A refactor must not move a simulated instant or a protocol decision.
# This script extracts <rev> with `git archive` into a temporary
# directory (it writes nothing under .git, so a read-only checkout
# works), builds it there, then runs the same deterministic commands on
# both sides:
#
#   - the twelve torture cells, {micro, jacobi, kv} x {plain, --crash,
#     --crash-shard, --partition}, at --seeds N (default 100). Each report
#     ends with the seeds' digest line, a fold of every probe event and
#     makespan, so equal reports mean equal event streams;
#   - perfbench's traced run of every workload at seed 42
#     (`--seconds 0 --trace 1`), keeping only the simulated per-layer
#     metrics: every count-valued metric (engine.events, cache.* counts,
#     server.*, manager.jobs, sync.*, fabric.messages, ...), fabric.mbytes,
#     server.util_max and the sim.* metrics. Host timings are dropped.
#
# Prints `identical` and exits 0, or prints the first differences and
# exits 1. Exit 2 on a usage or build error.
set -u

usage() {
  echo "usage: scripts/identity.sh <rev> [--seeds N]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev="$1"
shift
seeds=100
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) [ $# -ge 2 ] || usage; seeds="$2"; shift 2 ;;
    *) usage ;;
  esac
done

here=$(git rev-parse --show-toplevel) || exit 2
git -C "$here" rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
  || { echo "identity: unknown revision $rev" >&2; exit 2; }

tmp=$(mktemp -d) || exit 2
base="$tmp/base"
trap 'rm -rf "$tmp"' EXIT

mkdir "$base" || exit 2
git -C "$here" archive -o "$tmp/base.tar" "$rev" \
  && tar -x -f "$tmp/base.tar" -C "$base" || exit 2

sim=bin/samhita_sim.exe
bench=perfbench/samhita_bench.exe
workloads="jacobi micro-strided kv torture"
metric='^[a-z-]+ ([a-z_.0-9]+ [^ ]+ count|(sim\.[a-z_0-9]+|fabric\.mbytes|server\.[a-z_]+) [^ ]+ [^ ]+)$'

# run <tree> <out>: every command above, one report per file under <out>.
run() {
  local tree="$1" out="$2"
  mkdir -p "$out"
  dune build --root "$tree" --no-print-directory --display quiet \
    "./$sim" "./$bench" 2>&1 \
    || { echo "identity: build failed in $tree" >&2; exit 2; }
  for kernel in micro jacobi kv; do
    for mode in "" --crash --crash-shard --partition; do
      # $mode is deliberately unquoted: the plain cell passes no flag.
      "$tree/_build/default/$sim" torture --kernel "$kernel" \
        --seeds "$seeds" $mode >"$out/torture-$kernel${mode:-"-plain"}" 2>&1
      echo "exit=$?" >>"$out/torture-$kernel${mode:-"-plain"}"
    done
  done
  for w in $workloads; do
    "$tree/_build/default/$bench" --workload "$w" --seed 42 --seconds 0 \
      --trace 1 2>&1 | grep -E "$metric" >"$out/perfbench-$w"
  done
}

run "$base" "$tmp/a"
run "$here" "$tmp/b"

if (cd "$tmp" && diff -r a b) >"$tmp/diff"; then
  echo "identical"
  exit 0
fi
echo "identity: differences against $rev (a: $rev, b: working tree):"
head -n 40 "$tmp/diff"
exit 1
