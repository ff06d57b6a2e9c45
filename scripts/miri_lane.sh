#!/usr/bin/env bash
# Miri lane: run the pure-memory subset of the pll-core unit tests under
# the Miri interpreter to catch undefined behaviour (invalid pointer
# casts, aliasing violations, out-of-bounds section reads) that tests
# running on real hardware would silently survive.
#
# Scope: the checksum / storage / serialize / v2 / wal module unit tests — the code
# holding every unsafe pointer cast in the workspace — MINUS anything
# touching mmap (Miri has no mmap; the mmap feature stays off, which is
# the crate's default). `-Zmiri-disable-isolation` lets the wal/serialize
# tests use real temp files.
#
# Usage: scripts/miri_lane.sh
# Requires: rustup toolchain nightly with the miri component
#           (rustup component add --toolchain nightly miri).
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly miri --version >/dev/null 2>&1; then
    echo "miri_lane: cargo +nightly miri is not installed" >&2
    echo "  rustup component add --toolchain nightly miri" >&2
    exit 2
fi

export MIRIFLAGS="-Zmiri-disable-isolation"

# Run module-by-module so a failure names the subsystem in CI output.
for module in checksum storage serialize v2 wal; do
    echo "== miri: pll-core ${module}::tests =="
    cargo +nightly miri test -p pll-core --lib "${module}::tests"
done

echo "miri lane passed"
