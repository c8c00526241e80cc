#!/usr/bin/env bash
# Contributor gate: formatting, lints, and the tier-1 build/test pass.
# Run from the repository root before sending a change.
#
# No stage re-runs a suite under a TSDX_* variable: every run-time switch has
# a per-thread override, so the suites cross buffer recycling x f32 kernel in
# process (the matrix test of crates/core/tests/streaming_parity.rs and the
# other suites built on tsdx_tensor::dial::RunConfig). Every kernel, and
# the index scan, runs on its caller's thread.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors: a link to a deleted or private item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests (every crate's suite, the parity matrix among them)"
cargo test --workspace -q

echo "==> steady-state allocation regression (arena must absorb buffer traffic; prints the run-time switches and the alloc/ counts it gates)"
# The counts DESIGN.md quotes come from these lines; a failure prints the whole run.
# The switches line names the f32 kernel this host selected; on a CPU without
# AVX-512F it is the portable one and the kernel parity below is vacuous.
alloc_out=$(cargo test -q --release -p tsdx-core --test alloc_regression -- --nocapture --test-threads=1 2>&1) \
  || { echo "$alloc_out"; exit 1; }
grep -oE 'run-time switches: .*|alloc/.*' <<< "$alloc_out"

echo "==> tensor suite with 8 concurrent test threads (metric-scope isolation; AVX-512 kernel == portable kernel, bitwise), then the 2^32-input GELU twin and zmm exp proofs at --release"
cargo test -q -p tsdx-tensor -- --test-threads=8
# The GELU twin against the portable loop, and the attention lanes' zmm
# exponential against fastmath::exp, on all 2^32 inputs (~30 s and ~60 s):
# ignored in debug builds, so they run here at --release.
cargo test -q -p tsdx-tensor --release --lib the_gelu_twin_matches_the_portable_loop_on_every_input
cargo test -q -p tsdx-tensor --release --lib the_zmm_exp_matches_fastmath_exp_on_every_input

echo "==> fault-injection suite (torn/corrupt checkpoints, NaN grads; the fault registry's own unit tests)"
cargo test -q --features fault-inject
cargo test -q -p tsdx-tensor --features fault-inject --lib

echo "==> serve fault-injection suite (accept stall, mid-chunk disconnect, session-table exhaustion, route/handler/readout panics)"
cargo test -q -p tsdx-serve --features fault-inject --test fault_injection

echo "==> index suite at release speed (the block-boundary proptests and the 100k-row allocation budget as shipped)"
cargo test -q -p tsdx-index --release

echo "==> benchmark package unit tests (standalone workspace under benchmark/)"
(cd benchmark && cargo test --offline -q)

echo "==> benchmark smoke (bulk_batch8, search_sdl, stream_pair, clip_octet: replies == references — muxed pushes against solo sessions — traced sanity rules, clip_octet's coverage floor among them)"
# benchmark/run.sh builds without --locked: a dependency edit in any crate the
# benchmark builds would rewrite benchmark/Cargo.lock, which must not happen.
lock_sum=$(cksum < benchmark/Cargo.lock)
for workload in bulk_batch8 search_sdl stream_pair clip_octet; do
  summary=$(bash benchmark/run.sh --workload "$workload" --seed 17 --seconds 3 --trace 1)
  # Report only: whether the two streams shared their rounds, and what
  # reading a reply cost the client.
  if [ "$workload" = stream_pair ]; then
    tail -n 1 <<< "$summary" \
      | grep -oE '"(serve\.batcher\.mux_pair_share|client\.read_us)":\{"value":[0-9.e+-]+' \
      | sed -E 's/"([^"]+)":\{"value":/  stream_pair \1 = /' || true
  fi
done
if [ "$(cksum < benchmark/Cargo.lock)" != "$lock_sum" ]; then
  echo "benchmark/Cargo.lock was rewritten by a benchmark run: a crate it builds changed its dependencies" >&2
  exit 1
fi

echo "All checks passed."

# The numbers ROADMAP.md quotes ("Per-crate `src` lines"), from a command.
bash scripts/loc.sh
