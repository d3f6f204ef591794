#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, release build, full test suite.
# Run from the repo root before every merge; CI runs the same sequence.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> ds-gauge package (its own workspace: fmt, clippy, tests)"
cargo fmt --manifest-path ds-gauge/Cargo.toml --check
cargo clippy --offline --manifest-path ds-gauge/Cargo.toml --all-targets -- -D warnings
cargo test -q --offline --manifest-path ds-gauge/Cargo.toml

# Every step below drives the one binary the release build produced.
ds=./target/release/ds

echo "==> ds trace smoke run (both modes, validated output)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for mode in ccsm ds; do
  "$ds" trace --bench VA --input small --mode "$mode" \
    --format jsonl --check --out "$smoke_dir/va-$mode.jsonl"
  "$ds" trace --bench VA --input small --mode "$mode" \
    --format chrome --check --window 1000 --out "$smoke_dir/va-$mode.json"
  test -s "$smoke_dir/va-$mode.jsonl"
  test -s "$smoke_dir/va-$mode.json"
  # The windowed chrome trace must carry the pulse counter tracks.
  grep -q '"args":{"name":"pulse"}' "$smoke_dir/va-$mode.json"
done

echo "==> ds trace epoch-window validation"
"$ds" trace --bench VA --input small --format epochs --check \
  --out "$smoke_dir/va-epochs.csv"
test -s "$smoke_dir/va-epochs.csv"

echo "==> ds xray smoke run (both modes)"
"$ds" xray --bench VA --input small --out "$smoke_dir/va-xray.txt"
test -s "$smoke_dir/va-xray.txt"

echo "==> ds check (every audit over the small catalog, both modes)"
# One plain run per task, audited on its own (lens, stage accounting,
# CCSM push quiescence, the paper's Fig. 4/5 shape), then one observed
# run per probe level with the profiler on (pulse and an inactive
# seeded fault plan at full; the live transaction stitcher at stages
# and minimal), each equal to the plain, untraced run field for field;
# then the push ledger under delay + duplicate faults and the seeded
# pulse-anomaly run. Exits 1 naming the audit and the task of any
# violation.
"$ds" check

echo "==> ds pulse anomaly-report smoke (fault-injected stall/retry storm)"
"$ds" pulse --bench VA --input small --kind delay --rate 32000 --seed 7 \
  --format report --out "$smoke_dir/va-pulse-report.txt"
grep -q "anomalies (" "$smoke_dir/va-pulse-report.txt" || {
  echo "ci.sh: fault-injected ds pulse run reported no anomalies" >&2
  cat "$smoke_dir/va-pulse-report.txt" >&2
  exit 1
}

echo "==> ds chaos fault-sweep smoke (survivable drop rates)"
# Rates above ~256 can sever CPU demand-load replies on VA, which the
# watchdog (correctly) aborts; the smoke sticks to rates VA survives.
"$ds" chaos --bench VA --rates 0,64,256 --quiet --format csv \
  > "$smoke_dir/va-chaos.csv"
test -s "$smoke_dir/va-chaos.csv"

echo "==> exact-output gate (committed results and ds-gauge pins, byte for byte)"
# The simulator is deterministic, so its committed outputs are pinned
# exactly, not within a tolerance. Each line below names a committed
# file and the command that regenerates it after a deliberate model
# change.
while read -r file cmd; do
  read -r -a argv <<< "$cmd"
  "${argv[@]}" < /dev/null > "$smoke_dir/exact.out" 2>> "$smoke_dir/exact.log"
  cmp -s "$smoke_dir/exact.out" "$file" || {
    echo "ci.sh: $file differs from a fresh run; regenerate it with:" >&2
    echo "  $cmd > $file" >&2
    exit 1
  }
done <<'LIST'
results/evaluation_small.csv ./target/release/ds export-csv --input small
results/fig4_speedup.txt ./target/release/ds fig4 --input both
results/fig5_missrate.txt ./target/release/ds fig5 --input both
results/table1.txt ./target/release/ds table1
results/table2.txt ./target/release/ds table2
results/fig1_dataflow.txt ./target/release/ds fig1
results/fig2_topology.txt ./target/release/ds fig2
results/fig3_protocol.txt ./target/release/ds fig3
results/ablate_network.txt ./target/release/ds ablate network
results/ablate_l2size.txt ./target/release/ds ablate l2size --bench MM --input small
results/ablate_prefetch.txt ./target/release/ds ablate prefetch
results/ablate_storebuf.txt ./target/release/ds ablate storebuf --bench VA
results/ablate_replacement.txt ./target/release/ds ablate replacement --input small
results/ablate_policy.txt ./target/release/ds ablate policy --bench MM,VA
results/ablate_directory.txt ./target/release/ds ablate directory
results/ablate_dram.txt ./target/release/ds ablate dram
ds-gauge/pinned.csv cargo run --release --offline -q --manifest-path ds-gauge/Cargo.toml -- --pin
LIST

echo "==> ds serve smoke gate (service vs batch bytes, cache replay, 429, shutdown)"
serve_cache="$smoke_dir/serve-cache"
"$ds" serve --port 0 --port-file "$smoke_dir/serve-addr" \
  --cache "$serve_cache" --workers 2 2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 100); do
  [ -s "$smoke_dir/serve-addr" ] && break
  sleep 0.1
done
[ -s "$smoke_dir/serve-addr" ] || {
  echo "ci.sh: ds serve did not come up" >&2
  cat "$smoke_dir/serve.log" >&2
  exit 1
}
serve_url="http://$(cat "$smoke_dir/serve-addr")"
# Served sweep must be byte-identical to the batch runner...
"$ds" submit --url "$serve_url" --bench VA,MM --input small --mode ds \
  > "$smoke_dir/served.json"
"$ds" run --bench VA,MM --input small --mode ds --format json --quiet \
  > "$smoke_dir/batch.json"
cmp "$smoke_dir/served.json" "$smoke_dir/batch.json"
# ...and a repeat submission must be a pure cache replay of it.
"$ds" submit --url "$serve_url" --bench VA,MM --input small --mode ds \
  --expect-cached > "$smoke_dir/served-replay.json"
cmp "$smoke_dir/served.json" "$smoke_dir/served-replay.json"
# Repeat stress traffic must actually hit the shared store.
"$ds" stress --url "$serve_url" --users 3 --ops 12 --bench VA \
  --require-hits > /dev/null
"$ds" shutdown --url "$serve_url"
wait "$serve_pid"

echo "==> ds serve saturation gate (bounded queue answers 429, never hangs)"
"$ds" serve --port 0 --port-file "$smoke_dir/sat-addr" \
  --no-cache --workers 1 --queue-limit 1 2> "$smoke_dir/sat.log" &
sat_pid=$!
for _ in $(seq 100); do
  [ -s "$smoke_dir/sat-addr" ] && break
  sleep 0.1
done
sat_url="http://$(cat "$smoke_dir/sat-addr")"
# One full-catalog job occupies the single admission slot for seconds
# on one worker; the immediate second submission must be refused with
# the distinguished exit code for an explicit 429.
"$ds" submit --url "$sat_url" --input small --mode ds --no-wait \
  > /dev/null
rc=0
"$ds" submit --url "$sat_url" --bench VA --input small --mode ds \
  --no-wait > /dev/null 2>> "$smoke_dir/sat.log" || rc=$?
[ "$rc" -eq 7 ] || {
  echo "ci.sh: expected explicit 429 rejection (exit 7), got exit $rc" >&2
  exit 1
}
# Shutdown abandons the queued backlog instead of draining it.
"$ds" shutdown --url "$sat_url"
wait "$sat_pid"

echo "==> ds-anvil crash drill (seeded abort mid-sweep, zero loss, byte-identical)"
# A real ds serve child aborts after a seeded number of journaled task
# completions; the restart must recover the job under its original
# id, rehydrate finished tasks from cache (store accounting proves no
# double-compute), and fold byte-identical results.
"$ds" drill --seed 3 --workers 2 --dir "$smoke_dir/drill" \
  2> "$smoke_dir/drill.log" || {
  echo "ci.sh: ds drill failed" >&2
  cat "$smoke_dir/drill.log" >&2
  exit 1
}

echo "==> ds-anvil external kill -9 drill (scripts/crash_drill.sh)"
scripts/crash_drill.sh VA,MM > "$smoke_dir/crash-drill.log" 2>&1 || {
  echo "ci.sh: scripts/crash_drill.sh failed" >&2
  cat "$smoke_dir/crash-drill.log" >&2
  exit 1
}

echo "==> ds-scope live telemetry gate (watch stream, request log, merged trace)"
"$ds" serve --port 0 --port-file "$smoke_dir/scope-addr" \
  --cache "$smoke_dir/scope-cache" --workers 2 \
  --verbose --log-format json 2> "$smoke_dir/scope.log" &
scope_pid=$!
for _ in $(seq 100); do
  [ -s "$smoke_dir/scope-addr" ] && break
  sleep 0.1
done
scope_url="http://$(cat "$smoke_dir/scope-addr")"
scope_job="$("$ds" submit --url "$scope_url" --bench VA --input small \
  --mode ds --pulse 1000 --no-wait)"
# The watch stream must carry the span telemetry for a running job,
# interleave pulse windows before each task summary, end with the
# stream-closing done event, and render the live sparkline dashboard
# on stderr.
"$ds" watch --url "$scope_url" "$scope_job" \
  > "$smoke_dir/watch.ndjson" 2> "$smoke_dir/watch-spark.txt"
grep -q '"event":"span-open".*"kind":"sim-run"' "$smoke_dir/watch.ndjson"
grep -q '"event":"pulse-window"' "$smoke_dir/watch.ndjson"
grep -q '"event":"task-done".*"pulse_windows"' "$smoke_dir/watch.ndjson"
grep -q '"event":"done"' "$smoke_dir/watch.ndjson"
grep -q "pulse (" "$smoke_dir/watch-spark.txt" || {
  echo "ci.sh: ds watch rendered no live pulse sparklines" >&2
  cat "$smoke_dir/watch-spark.txt" >&2
  exit 1
}
# Pulse gauges from the job's last window must now be on /metrics.
"$ds" metrics --url "$scope_url" > "$smoke_dir/scope-metrics.json"
grep -q '"pulse"' "$smoke_dir/scope-metrics.json"
grep -q '"window_cycles"' "$smoke_dir/scope-metrics.json"
# The structured request log joins against the span stream by span id.
grep -q '"log":"request".*"path":"/jobs"' "$smoke_dir/scope.log"
# One merged Perfetto trace from the HTTP request down to simulator
# stages (the ds trace chrome track from the smoke above); ds scope
# exits non-zero if any span tree fails its checks.
"$ds" scope merge --url "$scope_url" "$scope_job" --trace "$smoke_dir/va-ds.json" \
  --out "$smoke_dir/merged-trace.json" > "$smoke_dir/scope-summary.txt"
test -s "$smoke_dir/merged-trace.json"
grep -q "reconciles:" "$smoke_dir/scope-summary.txt"
"$ds" shutdown --url "$scope_url"
wait "$scope_pid"

echo "==> postmortem dump gate (forced timeout ships a flight-record file)"
rc=0
"$ds" run --bench VA --input small --keep-going --timeout 0 \
  --cache "$smoke_dir/pmcache" --format csv \
  > /dev/null 2> "$smoke_dir/pm.log" || rc=$?
[ "$rc" -eq 1 ] || {
  echo "ci.sh: expected exit 1 from a timed-out keep-going run, got $rc" >&2
  exit 1
}
grep -q "postmortem" "$smoke_dir/pm.log"
ls "$smoke_dir"/pmcache/postmortem/VA-small-*.json > /dev/null

echo "==> ci.sh: all gates passed"
