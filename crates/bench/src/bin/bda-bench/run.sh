#!/usr/bin/env bash
# The one command of BENCHMARK.json: build `bda-served` (repository
# workspace) and `bda-bench` (this package) into one target directory, so
# the bench finds the server beside its own executable, then run it with
# whatever arguments were given. Cargo reports on stderr; stdout carries
# only the benchmark's report, whose last line is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -p bda-reactor --bin bda-served
cargo build --release --offline --manifest-path crates/bench/src/bin/bda-bench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/bda-bench" "$@"
