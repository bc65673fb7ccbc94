#!/usr/bin/env bash
# Builds and runs fleetbench; run it from the repository root:
#
#   bash fleetbench/run.sh --workload serve_small --seed 1 --seconds 25 --trace 0
#
# The build does not depend on where the checkout lives. The crates are
# path dependencies outside fleetbench's own workspace, so their
# absolute paths reach the binary twice: as panic-location strings,
# whose length shifts where the machine code starts, and through cargo's
# per-crate metadata hash, which orders the functions. Either moves the
# alignment of every hot loop: the same source built in two checkouts
# measured join_ms ~200 ms in one and ~340 ms in the other. The path is
# remapped to a fixed prefix, and rustc-wrapper.sh fixes the metadata.
set -euo pipefail

root=$(pwd -P)
if [[ ! -f "$root/fleetbench/Cargo.toml" ]]; then
    echo "fleetbench/run.sh: run it from the repository root" >&2
    exit 2
fi
export CARGO_ENCODED_RUSTFLAGS="--remap-path-prefix=$root=/checkout"
export RUSTC_WRAPPER="$root/fleetbench/rustc-wrapper.sh"
[[ -x $RUSTC_WRAPPER ]] || chmod +x "$RUSTC_WRAPPER"
exec cargo run --quiet --release --offline --manifest-path fleetbench/Cargo.toml -- "$@"
