#!/usr/bin/env bash
# Builds the release binaries the benchmark drives (table2, coverage,
# scanbist) and the benchmark itself, then runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload table2-cold --seed 1 --seconds 8 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# `target`) so the benchmark finds the binaries beside its own.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    -p scan-bench -p scan-bist-cli --bin table2 --bin coverage --bin scanbist >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
