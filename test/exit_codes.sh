#!/usr/bin/env bash
# Pins the defect-detection exit-code contract shared by race, torture
# and check: 0 when clean, 1 when the tool found what it hunts for, 2 on
# usage errors. A drift in any of these breaks scripted CI consumers.
set -u

# Absolute path: the serve --json check below runs from a scratch dir.
bin="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
fails=0

expect() {
  local want="$1"
  local desc="$2"
  shift 2
  "$bin" "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "exit_codes: $desc: want exit $want, got $got ($bin $*)" >&2
    fails=$((fails + 1))
  fi
}

# race: the seeded kernel always has findings.
expect 1 "race finds the seeded defects" race

# check: defect kernels exit 1, the clean kernel 0.
expect 1 "check finds the seeded race" check --kernel racy
expect 1 "check finds the ABBA deadlock" check --kernel abba
expect 0 "check exhausts micro clean" check --kernel micro

# check usage errors.
expect 2 "check rejects unknown kernel" check --kernel bogus
expect 2 "check rejects out-of-scope threads" check --threads 9
expect 2 "check rejects out-of-scope pages" check --pages 7
expect 2 "check rejects malformed schedule" check --replay 1.x.2
expect 2 "check rejects stale schedule" check --kernel racy --replay 9.9

# check replay: the deadlock counterexample reproduces (1), a clean
# schedule replays clean (0).
expect 1 "replayed counterexample reproduces" check --kernel abba --replay 0.0.0.1.0.0.0.0.0
expect 0 "clean replay is clean" check --kernel micro --replay 0

# torture: a clean sweep exits 0 (tiny sweep to stay fast).
expect 0 "clean torture sweep" torture --kernel micro --seeds 2 --faults off
expect 0 "clean kv torture sweep" torture --kernel kv --seeds 2 --faults off

# torture shard-crash mode: clean sweep 0, incompatible modes 2.
expect 0 "clean shard-crash torture sweep" torture --kernel micro --seeds 2 --faults off --crash-shard
expect 2 "torture rejects crash + crash-shard" torture --kernel micro --seeds 1 --crash --crash-shard
expect 2 "torture rejects crash-shard on racy" torture --kernel racy --seeds 1 --crash-shard

# torture partition mode: clean gray-failure sweep 0, incompatible modes 2.
expect 0 "clean partition torture sweep" torture --kernel micro --seeds 2 --faults off --partition
expect 2 "torture rejects crash + partition" torture --kernel micro --seeds 1 --crash --partition
expect 2 "torture rejects partition on racy" torture --kernel racy --seeds 1 --partition
expect 2 "torture rejects crash-shard + partition" torture --kernel micro --seeds 1 --crash-shard --partition
expect 2 "torture rejects all three fault modes" torture --kernel micro --seeds 1 --crash --crash-shard --partition

# check gray model: fenced runs clean (0), replay/crash are usage errors.
expect 0 "gray fence model holds" check --kernel gray
expect 2 "gray rejects replay" check --kernel gray --replay 0
expect 2 "gray rejects crash" check --kernel gray --crash

# kernel control-plane geometry: sharded run clean, bad geometry 2.
expect 0 "sharded micro run" micro -t 4 --shards 2
expect 2 "micro rejects zero shards" micro -t 4 --shards 0
expect 2 "micro rejects zero servers" micro --servers 0
expect 2 "micro rejects shards on pth" micro --backend pth --shards 2
expect 2 "micro rejects report on pth" micro --backend pth --report
expect 2 "jacobi rejects sanitize on pth" jacobi --backend pth --sanitize
expect 2 "md rejects sanitize on pth" md --backend pth --sanitize
expect 2 "micro rejects over-cap threads" micro -t 1000

# serve: 0 on a clean sweep, 2 on usage errors.
serve_quick=(--backend pth -t 2 --clients 4 --requests 64 --keys 16 --load 0.5)
expect 0 "clean serve sweep" serve "${serve_quick[@]}"
expect 2 "serve rejects zero threads" serve -t 0
expect 2 "serve rejects bad shards" serve --keys 8 --shards 9
expect 2 "serve rejects bad read fraction" serve --read-fraction 1.5
expect 2 "serve rejects bad replication" serve --replication 2
expect 2 "serve rejects replication on pth" serve --backend pth --replication 1
expect 2 "serve rejects crash without replication" serve --backend smh --crash
expect 2 "serve rejects malformed load" serve --load 0.5,zero
expect 2 "serve rejects negative load" serve --load=-0.5
expect 2 "serve rejects zero manager shards" serve --manager-shards 0
expect 2 "serve rejects manager shards on pth" serve --backend pth --manager-shards 2

# Usage errors carry subcommand context: "samhita_sim <cmd>: message".
shape="$("$bin" micro -t 4 --shards 0 2>&1 >/dev/null)"
case "$shape" in
  "samhita_sim micro: "*) : ;;
  *)
    echo "exit_codes: usage-error shape: got '$shape'" >&2
    fails=$((fails + 1))
    ;;
esac

# serve --json: the printed object's schema is a CI consumer contract.
# Run in a scratch dir to prove serve writes nothing to the cwd.
scratch="$(mktemp -d)"
(
  cd "$scratch" || exit 1
  "$bin" serve "${serve_quick[@]}" --json >serve.json 2>/dev/null
)
json_fail=0
for field in '"backend": "pth"' '"threads": 2' '"replication": 0' \
  '"crash": false' '"capacity_rps":' '"points":' '"fraction":' \
  '"rate_rps":' '"achieved_rps":' '"served":' '"p50_ns":' '"p99_ns":' \
  '"p999_ns":' '"mean_ns":' '"max_ns":' '"wall_ns":' '"lost_writes":'; do
  if ! grep -qF -- "$field" "$scratch/serve.json"; then
    echo "exit_codes: serve --json schema: missing $field" >&2
    json_fail=1
  fi
done
if [ "$(ls -A "$scratch")" != "serve.json" ]; then
  echo "exit_codes: serve --json wrote files to the cwd" >&2
  json_fail=1
fi
json_text="$(tr -d '[:space:]' <"$scratch/serve.json")"
case "$json_text" in
  "{"*"}") : ;;
  *)
    echo "exit_codes: serve --json: stdout is not one JSON object" >&2
    json_fail=1
    ;;
esac
if [ "$json_fail" -ne 0 ]; then
  fails=$((fails + 1))
fi
rm -rf "$scratch"

if [ "$fails" -ne 0 ]; then
  echo "exit_codes: $fails contract violation(s)" >&2
  exit 1
fi
echo "exit_codes: contract holds"
