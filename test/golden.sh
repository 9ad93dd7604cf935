#!/usr/bin/env bash
# Golden output table: one "<md5 of output> exit=<code> <command>" line
# per run of a fixed matrix of deterministic simulator commands (stdout
# and stderr together; every one is reproducible run to run, and the
# whole matrix takes a few seconds). The runtest rule in
# test/dune diffs this against test/golden.expected, so any change to a
# simulated result fails the build; `dune promote` accepts a deliberate
# change (state why in the commit).
#
# Usage: golden.sh path/to/samhita_sim.exe
set -u

bin="$1"

row() {
  local out code
  out="$("$bin" "$@" 2>&1)"
  code=$?
  printf '%s exit=%d %s\n' "$(printf '%s\n' "$out" | md5sum | cut -d' ' -f1)" \
    "$code" "$*"
}

for id in $("$bin" list); do
  row fig "$id" --scale quick
done

row micro -t 8 -m 4 -s 2
row jacobi -t 8 -n 64 --iters 3
row md -t 4 -n 48 --steps 2

row serve --seed 7 -t 8 --clients 8 --requests 2000

for kernel in micro jacobi kv; do
  for mode in "" --crash --crash-shard --partition; do
    # $mode is deliberately unquoted: the plain row passes no flag.
    row torture --kernel "$kernel" --seeds 5 $mode
  done
done

for kernel in micro racy abba gray; do
  row check --kernel "$kernel"
done
