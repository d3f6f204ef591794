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

echo "==> dstrace smoke run (both modes, validated output)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for mode in ccsm ds; do
  cargo run --release -q -p ds-runner --bin dstrace -- \
    --bench VA --input small --mode "$mode" \
    --format jsonl --check --out "$smoke_dir/va-$mode.jsonl"
  cargo run --release -q -p ds-runner --bin dstrace -- \
    --bench VA --input small --mode "$mode" \
    --format chrome --check --window 1000 --out "$smoke_dir/va-$mode.json"
  test -s "$smoke_dir/va-$mode.jsonl"
  test -s "$smoke_dir/va-$mode.json"
  # The windowed chrome trace must carry the pulse counter tracks.
  grep -q '"args":{"name":"pulse"}' "$smoke_dir/va-$mode.json"
done

echo "==> dstrace epoch-window validation"
cargo run --release -q -p ds-runner --bin dstrace -- \
  --bench VA --input small --format epochs --check \
  --out "$smoke_dir/va-epochs.csv"
test -s "$smoke_dir/va-epochs.csv"

echo "==> dsxray smoke run (both modes, invariants checked)"
cargo run --release -q -p ds-runner --bin dsxray -- \
  --bench VA --input small --check --out "$smoke_dir/va-xray.txt"
test -s "$smoke_dir/va-xray.txt"

echo "==> dslens reconciliation audit (full catalog, both modes)"
cargo run --release -q -p ds-runner --bin dslens -- --check

echo "==> dsprof invariant audit (profiler never perturbs simulated cycles)"
# Re-runs VA at every probe level and with the profiler off: simulated
# cycles must be bit-identical across all of them, self-times must sum
# to <= wall, and shed levels must report exactly-zero tax buckets.
cargo run --release -q -p ds-runner --bin dsprof -- --check --bench VA

echo "==> dschaos invariant audit (zero-fault identity + no silent push loss)"
cargo run --release -q -p ds-runner --bin dschaos -- --check --bench VA --quiet

echo "==> dspulse conservation gate (full small catalog, both modes)"
# Every per-window counter series must sum exactly to the final
# RunReport totals, reports must stay bit-identical with pulse
# stripped (fig4 is untouched by sampling), and a seeded fault run
# must surface at least one detected anomaly.
cargo run --release -q -p ds-runner --bin dspulse -- --check

echo "==> dspulse anomaly-report smoke (fault-injected stall/retry storm)"
cargo run --release -q -p ds-runner --bin dspulse -- \
  --bench VA --input small --delay 32000 --seed 7 --format report \
  --out "$smoke_dir/va-pulse-report.txt"
grep -q "anomalies (" "$smoke_dir/va-pulse-report.txt" || {
  echo "ci.sh: fault-injected dspulse run reported no anomalies" >&2
  cat "$smoke_dir/va-pulse-report.txt" >&2
  exit 1
}

echo "==> dschaos fault-sweep smoke (survivable drop rates)"
# Rates above ~256 can sever CPU demand-load replies on VA, which the
# watchdog (correctly) aborts; the smoke sticks to rates VA survives.
cargo run --release -q -p ds-runner --bin dschaos -- \
  --bench VA --rates 0,64,256 --quiet --format csv \
  > "$smoke_dir/va-chaos.csv"
test -s "$smoke_dir/va-chaos.csv"

echo "==> exact-output gate (committed results and ds-gauge pins, byte for byte)"
# The simulator is deterministic, so its committed outputs are pinned
# exactly, not within a tolerance. Each line below names a committed
# file and the command that regenerates it after a deliberate model
# change. fig5_missrate.txt is not gated: it needs the big catalog.
while read -r file cmd; do
  read -r -a argv <<< "$cmd"
  "${argv[@]}" < /dev/null > "$smoke_dir/exact.out" 2>> "$smoke_dir/exact.log"
  cmp -s "$smoke_dir/exact.out" "$file" || {
    echo "ci.sh: $file differs from a fresh run; regenerate it with:" >&2
    echo "  $cmd > $file" >&2
    exit 1
  }
done <<'LIST'
results/evaluation_small.csv cargo run --release -q -p ds-bench --bin export_csv -- small
results/fig4_speedup.txt cargo run --release -q -p ds-bench --bin fig4_speedup -- both
results/table1.txt cargo run --release -q -p ds-bench --bin table1
results/table2.txt cargo run --release -q -p ds-bench --bin table2
results/fig1_dataflow.txt cargo run --release -q -p ds-bench --bin fig1_dataflow
results/fig2_topology.txt cargo run --release -q -p ds-bench --bin fig2_topology
results/fig3_protocol.txt cargo run --release -q -p ds-bench --bin fig3_protocol
results/ablate_network.txt cargo run --release -q -p ds-bench --bin ablate_network
results/ablate_l2size.txt cargo run --release -q -p ds-bench --bin ablate_l2size -- MM small
results/ablate_prefetch.txt cargo run --release -q -p ds-bench --bin ablate_prefetch
results/ablate_storebuf.txt cargo run --release -q -p ds-bench --bin ablate_storebuf -- VA
results/ablate_replacement.txt cargo run --release -q -p ds-bench --bin ablate_replacement -- small
results/ablate_policy.txt cargo run --release -q -p ds-bench --bin ablate_policy -- MM VA
results/ablate_directory.txt cargo run --release -q -p ds-bench --bin ablate_directory
results/ablate_dram.txt cargo run --release -q -p ds-bench --bin ablate_dram
ds-gauge/pinned.csv cargo run --release --offline -q --manifest-path ds-gauge/Cargo.toml -- --pin
LIST

echo "==> dsserve self-audit (admission, coalescing, store reconciliation)"
cargo run --release -q -p ds-serve --bin dsserve -- --check

echo "==> dsserve smoke gate (service vs batch bytes, cache replay, 429, shutdown)"
dsserve=./target/release/dsserve
serve_cache="$smoke_dir/serve-cache"
"$dsserve" serve --port 0 --port-file "$smoke_dir/serve-addr" \
  --cache "$serve_cache" --workers 2 2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 100); do
  [ -s "$smoke_dir/serve-addr" ] && break
  sleep 0.1
done
[ -s "$smoke_dir/serve-addr" ] || {
  echo "ci.sh: dsserve did not come up" >&2
  cat "$smoke_dir/serve.log" >&2
  exit 1
}
serve_url="http://$(cat "$smoke_dir/serve-addr")"
# Served sweep must be byte-identical to the batch runner...
"$dsserve" submit --url "$serve_url" --bench VA,MM --input small --mode ds \
  > "$smoke_dir/served.json"
cargo run --release -q -p ds-runner --bin dsrun -- \
  --bench VA,MM --input small --mode ds --format json --quiet \
  > "$smoke_dir/batch.json"
cmp "$smoke_dir/served.json" "$smoke_dir/batch.json"
# ...and a repeat submission must be a pure cache replay of it.
"$dsserve" submit --url "$serve_url" --bench VA,MM --input small --mode ds \
  --expect-cached > "$smoke_dir/served-replay.json"
cmp "$smoke_dir/served.json" "$smoke_dir/served-replay.json"
# Repeat stress traffic must actually hit the shared store.
"$dsserve" stress --url "$serve_url" --users 3 --ops 12 --bench VA \
  --require-hits > /dev/null
"$dsserve" shutdown --url "$serve_url"
wait "$serve_pid"

echo "==> dsserve saturation gate (bounded queue answers 429, never hangs)"
"$dsserve" serve --port 0 --port-file "$smoke_dir/sat-addr" \
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
"$dsserve" submit --url "$sat_url" --input small --mode ds --no-wait \
  > /dev/null
rc=0
"$dsserve" submit --url "$sat_url" --bench VA --input small --mode ds \
  --no-wait > /dev/null 2>> "$smoke_dir/sat.log" || rc=$?
[ "$rc" -eq 7 ] || {
  echo "ci.sh: expected explicit 429 rejection (exit 7), got exit $rc" >&2
  exit 1
}
# Shutdown abandons the queued backlog instead of draining it.
"$dsserve" shutdown --url "$sat_url"
wait "$sat_pid"

echo "==> ds-anvil crash drill (seeded abort mid-sweep, zero loss, byte-identical)"
# A real dsserve child aborts after a seeded number of journaled task
# completions; the restart must recover the job under its original
# id, rehydrate finished tasks from cache (store accounting proves no
# double-compute), and fold byte-identical results.
"$dsserve" drill --seed 3 --workers 2 --dir "$smoke_dir/drill" \
  2> "$smoke_dir/drill.log" || {
  echo "ci.sh: dsserve drill failed" >&2
  cat "$smoke_dir/drill.log" >&2
  exit 1
}

echo "==> ds-anvil external kill -9 drill (scripts/crash_drill.sh)"
scripts/crash_drill.sh VA,MM > "$smoke_dir/crash-drill.log" 2>&1 || {
  echo "ci.sh: scripts/crash_drill.sh failed" >&2
  cat "$smoke_dir/crash-drill.log" >&2
  exit 1
}

echo "==> dsscope span audit (telescoping, exact reconciliation, zero overhead off)"
# Every small-catalog report must carry a span tree that telescopes
# and reconciles queue + store + sim + overhead exactly against its
# wall clock — and a scope-off rerun must be bit-identical minus the
# tree (fig4 stays untouched by the tracing layer).
cargo run --release -q -p ds-serve --bin dsscope -- --check

echo "==> ds-scope live telemetry gate (watch stream, request log, merged trace)"
"$dsserve" serve --port 0 --port-file "$smoke_dir/scope-addr" \
  --cache "$smoke_dir/scope-cache" --workers 2 \
  --verbose --log-format json 2> "$smoke_dir/scope.log" &
scope_pid=$!
for _ in $(seq 100); do
  [ -s "$smoke_dir/scope-addr" ] && break
  sleep 0.1
done
scope_url="http://$(cat "$smoke_dir/scope-addr")"
scope_job="$("$dsserve" submit --url "$scope_url" --bench VA --input small \
  --mode ds --pulse 1000 --no-wait)"
# The watch stream must carry the span telemetry for a running job,
# interleave pulse windows before each task summary, end with the
# stream-closing done event, and render the live sparkline dashboard
# on stderr.
"$dsserve" watch --url "$scope_url" "$scope_job" \
  > "$smoke_dir/watch.ndjson" 2> "$smoke_dir/watch-spark.txt"
grep -q '"event":"span-open".*"kind":"sim-run"' "$smoke_dir/watch.ndjson"
grep -q '"event":"pulse-window"' "$smoke_dir/watch.ndjson"
grep -q '"event":"task-done".*"pulse_windows"' "$smoke_dir/watch.ndjson"
grep -q '"event":"done"' "$smoke_dir/watch.ndjson"
grep -q "pulse (" "$smoke_dir/watch-spark.txt" || {
  echo "ci.sh: dsserve watch rendered no live pulse sparklines" >&2
  cat "$smoke_dir/watch-spark.txt" >&2
  exit 1
}
# Pulse gauges from the job's last window must now be on /metrics.
"$dsserve" metrics --url "$scope_url" > "$smoke_dir/scope-metrics.json"
grep -q '"pulse"' "$smoke_dir/scope-metrics.json"
grep -q '"window_cycles"' "$smoke_dir/scope-metrics.json"
# The structured request log joins against the span stream by span id.
grep -q '"log":"request".*"path":"/jobs"' "$smoke_dir/scope.log"
# One merged Perfetto trace from the HTTP request down to simulator
# stages (the dstrace chrome track from the smoke above); dsscope
# exits non-zero if any span tree fails its checks.
cargo run --release -q -p ds-serve --bin dsscope -- \
  merge --url "$scope_url" "$scope_job" --trace "$smoke_dir/va-ds.json" \
  --out "$smoke_dir/merged-trace.json" > "$smoke_dir/scope-summary.txt"
test -s "$smoke_dir/merged-trace.json"
grep -q "reconciles:" "$smoke_dir/scope-summary.txt"
"$dsserve" shutdown --url "$scope_url"
wait "$scope_pid"

echo "==> postmortem dump gate (forced timeout ships a flight-record file)"
rc=0
cargo run --release -q -p ds-runner --bin dsrun -- \
  --bench VA --input small --keep-going --timeout 0 \
  --cache "$smoke_dir/pmcache" --format csv \
  > /dev/null 2> "$smoke_dir/pm.log" || rc=$?
[ "$rc" -eq 1 ] || {
  echo "ci.sh: expected exit 1 from a timed-out keep-going run, got $rc" >&2
  exit 1
}
grep -q "postmortem" "$smoke_dir/pm.log"
ls "$smoke_dir"/pmcache/postmortem/VA-small-*.json > /dev/null

echo "==> ci.sh: all gates passed"
