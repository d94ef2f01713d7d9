#!/usr/bin/env bash
# The repo benchmark's one command. Builds the harness (a package of its own
# under benchmark/macrobench) from the checkout's sources, then hands it the
# arguments:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh --all [--out FILE]       every workload, untraced + traced
#   benchmark/run.sh --check-repeat           the suite twice, held to the bounds
#   benchmark/run.sh --smoke --all            a 1/50-length pass, for iteration
#
# Run it from the repository root. See benchmark/README.md.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/macrobench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/macrobench" "$@"
