#!/usr/bin/env bash
# Builds the benchmark (and the repository's sweep and nachos-sweepd
# binaries it drives) from source, then runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload suite-long --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/perfbench" "$@"
