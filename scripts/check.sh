#!/usr/bin/env bash
# Contributor gate: formatting, lints, and the tier-1 build/test pass.
# Run from the repository root before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> tier-1 again under a 2-worker pool (TSDX_NUM_THREADS=2)"
TSDX_NUM_THREADS=2 cargo test -q

echo "==> tier-1 again with the workspace arena disabled (TSDX_WORKSPACE=0)"
TSDX_WORKSPACE=0 cargo test -q

echo "==> steady-state allocation regression (arena must absorb buffer traffic)"
cargo test -q --release -p tsdx-core --test alloc_regression

echo "==> streaming parity under both workspace modes (session == full recompute, bitwise)"
TSDX_WORKSPACE=1 cargo test -q -p tsdx-core --test streaming_parity
TSDX_WORKSPACE=0 cargo test -q -p tsdx-core --test streaming_parity

echo "==> tensor suite: AVX-512 kernel == portable kernel (bitwise), then everything with 8 concurrent test threads (metric-scope isolation)"
# One line of the parity suite names the f32 kernel this host selected; on a
# CPU without AVX-512F it is the portable one and the parity is vacuous.
cargo test -q -p tsdx-tensor --test avx512_parity -- --nocapture | grep -o 'f32 kernel: .*'
cargo test -q -p tsdx-tensor -- --test-threads=8

echo "==> tier-1 and the serve smoke again under the int8 inference plane (TSDX_PRECISION=int8)"
TSDX_PRECISION=int8 cargo test -q
TSDX_PRECISION=int8 TSDX_NUM_THREADS=2 cargo test -q -p tsdx-serve --test smoke

echo "==> streaming parity under int8 (cached groups == recompute, bitwise, on the i8 GEMM)"
TSDX_PRECISION=int8 cargo test -q -p tsdx-core --test streaming_parity

echo "==> f32 default stays bit-identical with the int8 plane packed (accuracy gate)"
cargo test -q -p tsdx-core --test quant_accuracy

echo "==> profile binary under int8 (i8 dispatch counters + per-kernel self time)"
TSDX_PRECISION=int8 cargo run -q -p tsdx-bench --release --bin profile -- --quick > /dev/null

echo "==> profile binary smoke test (self-time coverage + overhead asserts)"
cargo run -q -p tsdx-bench --release --bin profile -- --quick > /dev/null

echo "==> fault-injection suite (worker panics, torn/corrupt checkpoints, NaN grads)"
cargo test -q --features fault-inject

echo "==> serve suite (HTTP hardening, batcher, error mapping, proptest fuzz)"
TSDX_NUM_THREADS=2 cargo test -q -p tsdx-serve

echo "==> serve fault-injection suite (accept stall, mid-chunk disconnect, session-table exhaustion, route/handler panics)"
TSDX_NUM_THREADS=2 cargo test -q -p tsdx-serve --features fault-inject --test fault_injection

echo "==> serve smoke (boot server, health check, extraction round-trip, drain assert)"
TSDX_NUM_THREADS=2 cargo test -q -p tsdx-serve --test smoke

echo "==> session smoke (lifecycle routes, HTTP-vs-core parity, limits, TTL eviction)"
TSDX_NUM_THREADS=2 cargo test -q -p tsdx-serve --test sessions

echo "==> index suite (shard format, search parity across pool sizes and shard counts)"
TSDX_NUM_THREADS=2 cargo test -q -p tsdx-index

echo "==> index fault-injection suite (torn and bit-flipped shards load as typed errors)"
TSDX_NUM_THREADS=2 cargo test -q -p tsdx-index --features fault-inject

echo "==> kill-and-resume determinism under a 2-worker pool"
TSDX_NUM_THREADS=2 cargo test -q --test resume_training

echo "==> benchmark package unit tests (standalone workspace under benchmark/)"
(cd benchmark && cargo test --offline -q)

echo "==> benchmark smoke (bulk_batch8, search_sdl, stream_pair, clip_octet: replies == references — muxed pushes against solo sessions — traced sanity rules, clip_octet's coverage floor among them)"
for workload in bulk_batch8 search_sdl stream_pair clip_octet; do
  bash benchmark/run.sh --workload "$workload" --seed 17 --seconds 3 --trace 1 > /dev/null
done

echo "All checks passed."
