#!/usr/bin/env bash
# Build the benchmark and run the whole set: every workload, untraced and
# traced, each in a process of its own. Arguments go to `benchmark set`
# (--seed <n>, --seconds <s>, --out <ledger.json>).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
exec "${CARGO_TARGET_DIR:-target}/release/benchmark" set "$@"
