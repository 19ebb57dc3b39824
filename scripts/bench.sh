#!/bin/sh
# bench.sh — regenerate the checked-in benchmark artifacts:
#
#   docs/benchmarks/etbench_bench.txt   human-readable: the full etbench
#                                       run at -scale bench (x0.25
#                                       datasets), the source of the
#                                       README's Performance table
#   docs/benchmarks/BENCH_<n>.json      machine-readable: schema
#                                       etransform-bench/v1 (obs.BenchReport),
#                                       one record per case-study solve,
#                                       each dataset solved once with
#                                       the default options (root cuts
#                                       included). The "+warm" and
#                                       "+cuts" records of BENCH_5-7 are
#                                       historical re-solves from when
#                                       those features were opt-in.
#                                       <n> is one past the highest
#                                       BENCH_*.json already checked in,
#                                       so each PR's run lands in a fresh
#                                       file; override with BENCH_PR=<n>.
#
# Usage:
#
#   scripts/bench.sh [extra etbench flags...]
#
# Extra flags pass straight through to etbench, e.g.
#   scripts/bench.sh -sweep-workers 1 -workers 1   # sequential baseline
# The artifact header records the flags, Go version, CPU count and date
# so numbers in the repo are never context-free.
set -eu

cd "$(dirname "$0")/.."

out=docs/benchmarks/etbench_bench.txt
mkdir -p docs/benchmarks

# Derive the artifact number from what is already checked in (max + 1),
# so the script never silently overwrites a prior PR's trajectory point.
if [ -z "${BENCH_PR:-}" ]; then
    last=0
    for f in docs/benchmarks/BENCH_*.json; do
        [ -e "$f" ] || continue
        n=${f#docs/benchmarks/BENCH_}
        n=${n%.json}
        case $n in
        *[!0-9]*) continue ;;
        esac
        [ "$n" -gt "$last" ] && last=$n
    done
    BENCH_PR=$((last + 1))
fi
json=docs/benchmarks/BENCH_$BENCH_PR.json

# No pipe into tee here: POSIX sh has no pipefail, so `etbench | tee`
# would let a failed run still move half-written artifacts into place.
if ! {
    echo "# etbench -scale bench $*"
    echo "# $(go version)"
    echo "# CPUs: $(getconf _NPROCESSORS_ONLN)"
    echo "# date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
    echo
    go run ./cmd/etbench -scale bench -json "$json.tmp" -json-pr "$BENCH_PR" "$@"
} > "$out.tmp" 2>&1; then
    cat "$out.tmp" >&2
    rm -f "$out.tmp" "$json.tmp"
    echo "etbench failed; artifacts left untouched" >&2
    exit 1
fi
cat "$out.tmp"
mv "$out.tmp" "$out"
mv "$json.tmp" "$json"
echo "wrote $out"
echo "wrote $json"
