#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verify (see ROADMAP.md).
#
#   scripts/ci.sh            # fmt --check, clippy -D warnings, build, tests
#   PPG_BENCH=1 scripts/ci.sh  # additionally run the gateway fan-out bench
#                              # (quick scale) and emit BENCH_gateway.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> repo benchmark builds against the current crates, lock file untouched"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> call-context suite (deadlines, cancellation, tracing)"
cargo test -q -p ppg-context
cargo test -q -p pperf-gateway --test deadline

echo "==> httpd event-loop soak (1000+ parked keep-alive connections)"
cargo test -q -p pperf-httpd --features soak --test event_loop

echo "==> httpd suite on the portable poll(2) backend"
PPG_FORCE_POLL=1 cargo test -q -p pperf-httpd

echo "==> binary batch suite (PPGB codec, wireVersion negotiation, mixed fleets,"
echo "    per-entry faults/deadlines, shared-batch headroom on the poll(2) backend)"
cargo test -q -p pperf-soap wire
cargo test -q -p pperf-gateway --test batch --test binary --test force_xml
PPG_FORCE_POLL=1 cargo test -q -p pperf-gateway --test batch
echo "==> binary batch: PPG_FORCE_XML=1 pass (the pin's per-call SOAP stays green)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test batch --test federation --test deadline

echo "==> push notification plane suite (subscriptions, delta push, invalidation)"
cargo test -q -p ppg-notify
cargo test -q -p pperf-gateway --test notify
echo "==> push notification plane: PPG_FORCE_XML=1 pass (XML event codec stays green)"
PPG_FORCE_XML=1 cargo test -q -p ppg-notify
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test notify

echo "==> semantic segment cache suite (range subsumption, stress, spill)"
cargo test -q -p pperf-gateway cache
cargo test -q -p pperf-gateway --test segment_cache
echo "==> semantic segment cache: PPG_FORCE_XML=1 pass (spill is codec-negotiation independent)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test segment_cache

echo "==> batch-streaming suite (interleaved entry sections, batches of one, backpressure,"
echo "    per-entry truncation, frame-boundary cancel, fallback, decoder totality)"
cargo test -q -p pperf-soap stream
cargo test -q -p pperf-soap --test stream_totality
cargo test -q -p pperf-httpd stream
cargo test -q -p pperf-gateway --test streaming --test batch_stream
echo "==> batch-streaming: PPG_FORCE_XML=1 pass (the pin sends every target per-call, never streams)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test force_xml --test batch --test federation

if [[ "${PPG_BENCH:-0}" == "1" ]]; then
    echo "==> gateway fan-out bench (quick scale)"
    PPG_QUICK=1 cargo run --release -p pperf-bench --bin gateway_fanout
fi

echo "==> CI OK"
