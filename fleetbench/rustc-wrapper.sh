#!/usr/bin/env bash
# The rustc wrapper fleetbench/run.sh builds with. Cargo derives each
# path dependency's `-C metadata` hash from its absolute path, and the
# hash orders the functions in the linked binary, so the same source
# built in two checkouts gets two code layouts. This passes every
# argument through, except that a crate's metadata becomes its name,
# which is unique in fleetbench's dependency graph.
set -euo pipefail

rustc=$1
shift
name=""
prev=""
for arg in "$@"; do
    if [[ $prev == --crate-name ]]; then
        name=$arg
    fi
    prev=$arg
done
args=()
prev=""
for arg in "$@"; do
    if [[ $prev == -C && $arg == metadata=* && -n $name ]]; then
        arg="metadata=fleetbench-$name"
    fi
    args+=("$arg")
    prev=$arg
done
exec "$rustc" "${args[@]}"
