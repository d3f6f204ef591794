#!/usr/bin/env bash
# Service throughput sweep: starts a private ds serve instance, runs
# the built-in stress harness at increasing concurrency levels, and
# writes one CSV row per level (ops/sec, p50/p95/p99 op latency,
# store hit rate). The server's in-memory store is retained across
# levels, so the first level pays the simulations and later levels
# measure served-from-cache throughput — the service's steady state.
#
# usage: scripts/serve_bench.sh [--users A,B,...] [--ops N] [--seed S]
#                               [--bench A,B,...] [--out FILE]
#
#   --users A,B,...  concurrency levels to sweep (default: 1,2,4,8)
#   --ops N          HTTP ops per user per level (default: 24)
#   --seed S         stress master seed (default: 1)
#   --bench A,B,...  Table II codes submissions draw from
#                    (default: VA,MM,BS)
#   --out FILE       CSV destination (default: serve_bench.csv)
set -euo pipefail
cd "$(dirname "$0")/.."

users="1,2,4,8"
ops="24"
seed="1"
bench="VA,MM,BS"
out="serve_bench.csv"
while [ $# -gt 0 ]; do
  case "$1" in
    --users|--ops|--seed|--bench|--out)
      flag="$1"
      shift
      [ $# -gt 0 ] || { echo "serve_bench.sh: $flag needs a value" >&2; exit 2; }
      case "$flag" in
        --users) users="$1" ;;
        --ops) ops="$1" ;;
        --seed) seed="$1" ;;
        --bench) bench="$1" ;;
        --out) out="$1" ;;
      esac
      ;;
    *) echo "serve_bench.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

echo "==> building ds (release)"
cargo build --release -q -p ds-bench

work_dir="$(mktemp -d)"
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    ./target/release/ds shutdown --url "$url" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work_dir"
}
trap cleanup EXIT

echo "==> starting private ds serve (ephemeral port, memory-only store)"
./target/release/ds serve --port 0 --port-file "$work_dir/addr" \
  --no-cache 2>"$work_dir/serve.log" &
server_pid=$!
for _ in $(seq 100); do
  [ -s "$work_dir/addr" ] && break
  sleep 0.1
done
[ -s "$work_dir/addr" ] || {
  echo "serve_bench.sh: server did not come up" >&2
  cat "$work_dir/serve.log" >&2
  exit 1
}
url="http://$(cat "$work_dir/addr")"
echo "    serving on $url"

echo "users,ops,elapsed_s,ops_per_sec,rejected,errors,p50_us,p95_us,p99_us,max_us,store_requests,store_hits,store_misses,hit_rate" > "$out"
IFS=',' read -ra levels <<< "$users"
for level in "${levels[@]}"; do
  echo "==> stress: $level user(s) x $ops ops"
  ./target/release/ds stress --url "$url" --users "$level" \
    --ops "$ops" --seed "$seed" --bench "$bench" --csv >> "$out"
done

echo "==> serve_bench.sh: sweep written to $out"
column -s, -t < "$out" 2>/dev/null || cat "$out"
