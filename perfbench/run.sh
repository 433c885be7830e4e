#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to standard error; the last line of standard output
# is the JSON result. Exits non-zero, printing no result, when the build
# fails (for example when the repository's crates are absent).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/veros-perfbench" "$@"
