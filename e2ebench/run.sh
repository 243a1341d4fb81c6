#!/usr/bin/env bash
# Build the release CLI and the benchmark from source, then run one
# benchmark invocation. Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload <name> --seed N --seconds S --trace <0|1>
#
# Build output goes to stderr; the benchmark's report (last line: one JSON
# object) goes to stdout. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/datasculpt || ! -f e2ebench/Cargo.toml ]]; then
    echo "e2ebench: run from the root of a DataSculpt checkout (crates/ not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet -p datasculpt --bin datasculpt >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/datasculpt-e2ebench" \
    --cli "$CARGO_TARGET_DIR/release/datasculpt" --work-dir .bench_run "$@"
