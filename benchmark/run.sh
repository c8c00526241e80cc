#!/usr/bin/env bash
# Builds the benchmark in release and runs it. Arguments go to the binary:
#   run.sh [--seed N] [--workload NAME] [--seconds S] [--trace [0|1]]
set -euo pipefail

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
  export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
# cargo reads .cargo/config.toml upwards from where it runs: from here both
# the local target-dir and the root's x86-64-v3 rustflags apply.
cd "$(dirname "$0")"

export BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC="$(rustc --version)"
cargo build --release --offline --quiet >&2
exec "${CARGO_TARGET_DIR:-../target}/release/tsdx-benchmark" "$@"
