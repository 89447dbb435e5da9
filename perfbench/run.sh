#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument is passed
# through to perfbench/main.exe:
#   bash perfbench/run.sh --workload admit-hot --seed 1 --seconds 20 --trace 0
#
# While the benchmark runs it is moved to the next CPU it may use every
# 250 ms.  On a shared machine one CPU is often slowed by a neighbour for
# minutes at a time, and a process the scheduler leaves on one CPU reads
# that CPU's speed: runs then disagree by up to 1.5x.  Rotating makes
# every run sample every CPU alike.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exe=./_build/default/perfbench/main.exe

cpus=()
if command -v taskset >/dev/null 2>&1; then
  list=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //') || list=""
  for part in ${list//,/ }; do
    if [[ $part == *-* ]]; then
      for ((c = ${part%-*}; c <= ${part#*-}; c++)); do cpus+=("$c"); done
    else
      cpus+=("$part")
    fi
  done
fi
if ((${#cpus[@]} < 2)); then exec "$exe" "$@"; fi

"$exe" "$@" &
pid=$!
rotator=""
# stopped from outside: stop the benchmark and the rotator, and wait for both
trap 'kill "$pid" $rotator 2>/dev/null; wait 2>/dev/null; exit 143' TERM INT
(
  i=0
  while kill -0 "$pid" 2>/dev/null; do
    taskset -a -pc "${cpus[i % ${#cpus[@]}]}" "$pid" >/dev/null 2>&1 || true
    i=$((i + 1))
    sleep 0.25
  done
) &
rotator=$!
status=0
wait "$pid" || status=$?
wait "$rotator" || true
exit "$status"
