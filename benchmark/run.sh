#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it; every argument is
# passed on. See README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S]     all workloads, untraced then traced
#   benchmark/run.sh --smoke | --agree | --compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/abyss-benchmark" --out "$here/out" "$@"
