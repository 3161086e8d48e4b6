#!/usr/bin/env sh
# Tier-1 verification: build + test the default members, then style gates.
# Usage: scripts/verify.sh   (run from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (default members, warnings are errors)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors: a link to a removed or private item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> service loopback smoke test (boots the daemon on an ephemeral port)"
cargo run -q --release -p rsmem-service --example service_client

echo "==> stress smoke (pinned seed; fails on any divergence)"
target/release/rsmem-cli stress --seed 0xDA7E --budget 100000

echo "==> code-family comparison smoke (RS vs RM vs interleaved RS)"
target/release/rsmem-cli compare --quick >/dev/null

echo "==> array smoke (--duplex must run the duplex campaign, --code the configured family, --threads nothing)"
ARRAY_FLAGS="--seu 1e-2 --erasure 1e-3 --tsc 900 --trials 50 --seed 3"
# shellcheck disable=SC2086 # the flags are split on purpose
SIMPLEX_ARRAY=$(target/release/rsmem-cli array $ARRAY_FLAGS)
# shellcheck disable=SC2086
DUPLEX_ARRAY=$(target/release/rsmem-cli array --duplex $ARRAY_FLAGS)
[ "$SIMPLEX_ARRAY" != "$DUPLEX_ARRAY" ] || {
  echo "array --duplex printed the simplex result: $DUPLEX_ARRAY"; exit 1;
}
# The array runs the configured code family: IRS(18,16) at depth 2 has the
# geometry of RS(36,32) but must not run as it.
# shellcheck disable=SC2086
IRS_ARRAY=$(target/release/rsmem-cli array --code irs:18,16,8,2 $ARRAY_FLAGS)
# shellcheck disable=SC2086
RS_ARRAY=$(target/release/rsmem-cli array --code 36,32,8 $ARRAY_FLAGS)
[ "$IRS_ARRAY" != "$RS_ARRAY" ] || {
  echo "array --code irs:18,16,8,2 printed the RS(36,32) result: $IRS_ARRAY"; exit 1;
}
# The worker count must not change an array report.
# shellcheck disable=SC2086
SERIAL_ARRAY=$(target/release/rsmem-cli array --duplex $ARRAY_FLAGS --threads 1)
# shellcheck disable=SC2086
PARALLEL_ARRAY=$(target/release/rsmem-cli array --duplex $ARRAY_FLAGS --threads 2)
[ "$SERIAL_ARRAY" = "$PARALLEL_ARRAY" ] || {
  echo "array --threads 2 differs from --threads 1: $PARALLEL_ARRAY vs $SERIAL_ARRAY"; exit 1;
}

echo "==> flight-recorder smoke (trace a stress run; exemplars must be captured)"
target/release/rsmem-cli trace --trace-json -- stress --budget small > /tmp/rsmem_trace.json
target/release/rsmem-cli check-jsonl < /tmp/rsmem_trace.json
grep -q '"kind":"miscorrection"' /tmp/rsmem_trace.json || {
  echo "no miscorrection exemplar in trace document"; exit 1;
}
rm -f /tmp/rsmem_trace.json

echo "==> JSON-lines tracing smoke (RSMEM_LOG=json output must be strict canonical JSON with trace IDs)"
RSMEM_LOG=json target/release/rsmem-cli sweep fig7 --threads 2 >/dev/null 2>/tmp/rsmem_sweep_events.jsonl
target/release/rsmem-cli check-jsonl < /tmp/rsmem_sweep_events.jsonl
grep -q '"trace_id"' /tmp/rsmem_sweep_events.jsonl || {
  echo "no trace_id in sweep events"; exit 1;
}
rm -f /tmp/rsmem_sweep_events.jsonl

echo "==> profiler smoke (fig7 regeneration under the self-profiler)"
target/release/rsmem-cli profile sweep fig7 >/dev/null

echo "==> observability smoke (metrics history, chunked stream, live dashboard)"
target/release/rsmem-cli serve --addr 127.0.0.1:0 --sample-interval-ms 100 \
  2>/tmp/rsmem_serve_announce.txt &
SERVE_PID=$!
ADDR=""
i=0
while [ "$i" -lt 50 ]; do
  ADDR=$(sed -n 's/.*listening on //p' /tmp/rsmem_serve_announce.txt | head -n 1)
  [ -n "$ADDR" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "daemon never announced its address"; kill "$SERVE_PID"; exit 1; }
curl -sf "http://$ADDR/healthz" >/dev/null
# The history document and the streamed frames are strict canonical JSON.
curl -sf "http://$ADDR/debug/metrics/history" | target/release/rsmem-cli check-jsonl
STREAM_LINES=$(curl -sfN "http://$ADDR/v1/stream/metrics?interval_ms=100&frames=2" | wc -l)
[ "$STREAM_LINES" -ge 2 ] || { echo "metrics stream delivered $STREAM_LINES frames, wanted 2"; kill "$SERVE_PID"; exit 1; }
# The live dashboard's raw mode must pipe cleanly into check-jsonl.
target/release/rsmem-cli top --url "$ADDR" --interval 100 --frames 2 --raw \
  | target/release/rsmem-cli check-jsonl
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f /tmp/rsmem_serve_announce.txt

echo "==> bench self-compare smoke (the regression gate must pass a run against itself)"
target/release/rsmem-cli bench --quick --out /tmp/rsmem_bench_a.json >/dev/null
target/release/rsmem-cli bench --compare /tmp/rsmem_bench_a.json /tmp/rsmem_bench_a.json
# A second run on the same build must agree on every fingerprint
# (timing may jitter on a loaded machine, so it only warns here).
target/release/rsmem-cli bench --quick --out /tmp/rsmem_bench_b.json >/dev/null
target/release/rsmem-cli bench --compare /tmp/rsmem_bench_a.json /tmp/rsmem_bench_b.json --warn-timing
rm -f /tmp/rsmem_bench_a.json /tmp/rsmem_bench_b.json

echo "verify: OK"
