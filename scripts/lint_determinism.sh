#!/usr/bin/env bash
# Determinism lint: the simulator's reproducibility story (replayable
# torture seeds, RegCCheck counterexample schedules, byte-identical
# figures) rests on every source of randomness or wall-clock time going
# through the seeded splitmix in lib/sim/rng.ml. Reject any other use in
# library code.
#
# Forbidden anywhere under lib/ except lib/sim/rng.ml:
#   Random.            stdlib PRNG (global, unseeded state)
#   Unix.gettimeofday  wall-clock time
#   Unix.time          wall-clock time
#   Sys.time           processor time
#   Hashtbl.randomize  per-run hash orders (iteration-order leaks)
set -u

root="${1:-lib}"
allow="lib/sim/rng.ml"

pattern='Random\.|Unix\.gettimeofday|Unix\.time|Sys\.time|Hashtbl\.randomize'

hits=$(grep -rn -E "$pattern" "$root" --include='*.ml' --include='*.mli' \
  | grep -v "^$allow:" || true)

if [ -n "$hits" ]; then
  echo "lint_determinism: nondeterminism outside $allow:" >&2
  echo "$hits" >&2
  echo "route randomness through Sim.Rng (seeded, splittable) instead" >&2
  exit 1
fi

# Run-isolation check: one process builds hundreds of Systems (torture
# sweeps, model-checker schedules, every figure of a fig run), so a
# top-level `ref` or `Hashtbl.create` in lib/sim or lib/core is state
# that leaks from one run into the next — the second run of a seed
# would no longer match the first. Keep state inside the per-engine or
# per-system records; extend the allowlist only for hooks that are
# installed and cleared around a single run.
#
# Allowlist (file:binding, matched against the grep hit):
#   lib/sim/resource.ml let observer — RegCCheck observer hook, installed
#   for one model-checking run and removed after it.
mutable_allow='^lib/sim/resource\.ml:[0-9]+:let observer '
mutable_hits=$(grep -rn -E \
  '^let [^=]*= *(ref |Hashtbl\.create|Array\.make|Bytes\.create|Buffer\.create)' \
  lib/sim lib/core --include='*.ml' 2>/dev/null \
  | grep -v -E "$mutable_allow" || true)

if [ -n "$mutable_hits" ]; then
  echo "lint_determinism: new top-level mutable state in lib/sim or lib/core:" >&2
  echo "$mutable_hits" >&2
  echo "one process runs many simulations; top-level refs and Hashtbls" >&2
  echo "carry state from one run into the next. Put it in the engine or" >&2
  echo "system record — or allowlist it here with a proof that it is" >&2
  echo "reset around every run." >&2
  exit 1
fi
echo "lint_determinism: clean"
