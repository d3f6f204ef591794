#!/usr/bin/env bash
# ds-anvil crash drill, external-kill variant: SIGKILL a live ds serve
# mid-sweep, restart it on the same cache directory, and prove the
# recovery guarantees — zero job loss (original ids still resolve and
# finish), no double-compute (a resubmission is pure cache), and the
# recovery is visible on /metrics.
#
# The in-process variant with exact seeded crash points is
# `ds drill`; this script rehearses the same machinery against a
# genuinely external `kill -9` that the process cannot see coming.
set -euo pipefail
cd "$(dirname "$0")/.."

ds="${DS:-./target/release/ds}"
[ -x "$ds" ] || {
  echo "crash_drill.sh: $ds missing; build it first:" >&2
  echo "  cargo build --release -p ds-bench" >&2
  exit 2
}

bench="${1:-VA,MM,BS}"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cache="$scratch/cache"

start_server() { # $1 = port file
  "$ds" serve --port 0 --port-file "$1" --cache "$cache" \
    --workers 1 --handlers 2 2>> "$scratch/serve.log" &
  server_pid=$!
  for _ in $(seq 100); do
    [ -s "$1" ] && break
    sleep 0.1
  done
  [ -s "$1" ] || {
    echo "crash_drill.sh: server did not come up" >&2
    cat "$scratch/serve.log" >&2
    exit 1
  }
  url="http://$(cat "$1")"
}

echo "==> crash_drill: start, submit two jobs, SIGKILL mid-sweep"
start_server "$scratch/addr-before"
# Two jobs of the same sweep on one worker: the second is queued
# behind the first, so it is guaranteed unfinished when the kill
# lands — the drill never races the worker to completion.
ballast="$("$ds" submit --url "$url" --bench "$bench" \
  --input small --mode ds --no-wait)"
probe="$("$ds" submit --url "$url" --bench "$bench" \
  --input small --mode ds --no-wait)"
# Wait for the first journaled task completion, then kill with no
# chance to flush, drain, or say goodbye.
for _ in $(seq 300); do
  completed="$("$ds" metrics --url "$url" \
    | grep -o '"tasks_completed": *[0-9]*' | grep -o '[0-9]*$' || echo 0)"
  [ "${completed:-0}" -ge 1 ] && break
  sleep 0.1
done
[ "${completed:-0}" -ge 1 ] || {
  echo "crash_drill.sh: no task completed within 30s" >&2
  exit 1
}
kill -9 "$server_pid"
wait "$server_pid" 2> /dev/null || true

echo "==> crash_drill: restart on the same cache; jobs $ballast and $probe must survive"
start_server "$scratch/addr-after"
grep -q "journal replay recovered" "$scratch/serve.log" || {
  echo "crash_drill.sh: restart log reports no journal replay" >&2
  cat "$scratch/serve.log" >&2
  exit 1
}
for job in "$ballast" "$probe"; do
  state=""
  for _ in $(seq 1200); do
    state="$("$ds" status --url "$url" "$job" \
      | grep -o '"state": *"[a-z]*"' | head -n 1 || true)"
    case "$state" in *done*) break ;; esac
    sleep 0.1
  done
  case "$state" in
    *done*) echo "    job $job recovered and finished" ;;
    *)
      echo "crash_drill.sh: job $job never finished after recovery (state: $state)" >&2
      exit 1
      ;;
  esac
done

echo "==> crash_drill: no double-compute — resubmission is pure cache"
"$ds" submit --url "$url" --bench "$bench" --input small --mode ds \
  --expect-cached > "$scratch/replay.json"
test -s "$scratch/replay.json"
"$ds" metrics --url "$url" > "$scratch/metrics.json"
grep -q '"recovered_jobs": 2' "$scratch/metrics.json" || {
  echo "crash_drill.sh: /metrics does not report 2 recovered jobs" >&2
  cat "$scratch/metrics.json" >&2
  exit 1
}

"$ds" shutdown --url "$url"
wait "$server_pid"
echo "==> crash_drill: passed (jobs $ballast and $probe survived kill -9)"
