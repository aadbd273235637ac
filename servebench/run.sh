#!/usr/bin/env bash
# Build the `gaps` binary and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#
#   bash servebench/run.sh --workload serve_hot --seed 3 --seconds 15 --trace 0
#   bash servebench/run.sh --workload serve_cold --repeat 10
#
# Build output goes to stderr; the report and the closing JSON line go to
# stdout. CARGO_TARGET_DIR (default: the repository's `target`) holds both
# builds.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin gaps >&2
cargo build --release --offline --quiet --manifest-path "$root/servebench/Cargo.toml" >&2
exec "$target/release/servebench" --gaps "$target/release/gaps" "$@"
