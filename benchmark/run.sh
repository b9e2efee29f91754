#!/usr/bin/env bash
# The one command of the benchmark (see benchmark/README.md).
#
#   benchmark/run.sh                          every workload, both modes, tables + out/*.json
#   benchmark/run.sh selfcheck                two full sets of this build, medians and gaps
#   benchmark/run.sh --workload tc-dense --seed 42 --seconds 10 --trace 0|1
#                                             one run; last stdout line is one JSON result
#   ... --smoke                               sizes / 10, one repetition (CI-sized)
#
# Builds `pdatalog` (repository root) and `pdbench` (this directory) in
# release mode into one target directory, then hands over to `pdbench`.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# One absolute target directory for both packages, so the two binaries
# land side by side whatever directory cargo is started from.
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-target}")"

boot_start="$(date +%s.%N)"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin pdatalog
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin pdbench
export PDBENCH_BOOT_S="$(echo "$(date +%s.%N) $boot_start" | awk '{printf "%.3f", $1 - $2}')"

exec "$CARGO_TARGET_DIR/release/pdbench" "$@"
