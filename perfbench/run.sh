#!/usr/bin/env bash
# Runs the rsmem workload benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
#   bash perfbench/run.sh --compare OLD.json NEW.json
#
# Builds the benchmark (release) only when its binary is missing or a
# source file is newer than it. `cargo run` alone would rebuild on every
# call in a tree without `.git`: the `rsmem-obs` build script watches
# `.git/HEAD`, and a missing watched file always counts as changed.
set -euo pipefail

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/rsmem-benchmark"
if [ ! -x "$bin" ] || [ -n "$(find BENCHMARK.json Cargo.toml crates vendor perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src -newer "$bin" -print -quit 2>/dev/null)" ]; then
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
