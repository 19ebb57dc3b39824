#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload plan-tree --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, exact-count records) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
