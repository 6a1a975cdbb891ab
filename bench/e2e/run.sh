#!/usr/bin/env bash
# Builds the end-to-end fleet benchmark from source and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary go to .bench_build/
# under the current directory, so the build reads and writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench/e2e" build -o "$out/e2e" .
exec "$out/e2e" "$@"
