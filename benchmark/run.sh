#!/usr/bin/env bash
# The benchmark's one command (see README.md beside this file).
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick]
#   benchmark/run.sh --compare A.json B.json
#
# Builds `pll` (the program under test) and the harness from source, then
# runs the end-to-end binary (--trace 0, the default) or the traced
# per-layer binary (--trace 1). Run it from the repo root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the workspace crates the
# harness links are not compiled twice: the caller's if set (the driver
# sets one inside its checkout), else the root target/.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# In a directory without the repo's sources these fail, and so does the run.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pll-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin=pll-benchmark
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then bin=pll-benchmark-trace; fi
  prev="$arg"
done

PLL_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)" \
exec "$target/release/$bin" \
  --pll "$target/release/pll" \
  --out-dir "$here/out" \
  --bench-json "$root/BENCHMARK.json" \
  "$@"
