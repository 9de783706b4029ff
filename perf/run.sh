#!/usr/bin/env bash
# The benchmark's one command.
#
#   perf/run.sh [--seed N] [--seconds S]
#       the whole ledger: offline release build, every workload untraced
#       (end-to-end metrics), every workload traced (per-layer metrics),
#       merged into perf/out/results.json and printed as a table
#   perf/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last line of stdout is its result as one JSON object
#       (the form BENCHMARK.json's `command` takes)
#
# Exits non-zero if the build fails or any correctness check fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=perf/out

# Spill files and stores live under $out/tmp-<pid>; the binary removes its
# own on exit, this also covers a run that was killed.
cleanup() { rm -rf "$out"/tmp-*; }
trap cleanup EXIT

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-perf/target}/release/perf"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        "$bin" "$@" --out "$out"
        exit
    fi
done

status=0
for trace in 0 1; do
    for workload in apps-coarse apps-fine exchange-pkt exchange-bytes jobs stream; do
        echo "perf: $workload --trace $trace" >&2
        "$bin" --workload "$workload" --trace "$trace" "$@" --out "$out" >/dev/null || status=1
    done
done
[ "$status" -eq 0 ] || { echo "perf: a run failed its checks; see the messages above" >&2; exit 1; }
"$bin" merge --out "$out"
