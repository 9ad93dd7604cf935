#!/usr/bin/env bash
# Wire lint: every message size the simulator charges to the fabric lives
# in lib/core/wire.ml (Samhita.Wire), so a size changes in one place and
# PROTOCOL.md can cite it by name. Reject a size spelled anywhere else in
# lib/core.
#
# Forbidden under lib/core except wire.ml and diff_reference.ml (the
# reference diff implementation, which keeps its own framing):
#   an integer literal other than 0 in a ~bytes:/~request:/~reply:/
#     ~payload: argument (bare or inside its parentheses)
#   a *_wire, *_overhead or *framing binding to a literal
#   <int> * List.length, or List.length <x> * <int>
set -u

root="${1:-lib/core}"
allow="$root/(wire|diff_reference)\.ml:"

arg='~(bytes|request|reply|payload):(\([^)]*)?\b([1-9][0-9_]*|0[0-9_]+)\b'
binding='let +[a-z0-9_]*(_wire|_overhead|framing) *= *[0-9]'
length='[0-9][0-9_]* *\* *List\.length|List\.length +[a-z0-9_.]+ *\* *[0-9]'

hits=$(grep -rn -E "$arg|$binding|$length" "$root" --include='*.ml' \
  | grep -v -E "^$allow" || true)

if [ -n "$hits" ]; then
  echo "lint_wire: message size outside $root/wire.ml:" >&2
  echo "$hits" >&2
  echo "name the size in Samhita.Wire and charge it from there" >&2
  exit 1
fi
echo "lint_wire: clean"
