#!/usr/bin/env bash
# The one command of the benchmark: builds `tempo-serve` (root workspace) and
# `tempo-benchmark` (this package) in release, then runs the workloads.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--traced | --trace 0|1] [--out FILE]
#
# Without --workload all four workloads run, one after the other. The last
# line of standard output is the result of the (last) workload as one JSON
# object; every metric is also printed by name above it and written to
# benchmark/out/run-<seed>.json. Exits non-zero when a build fails or a
# correctness, decision-count or failed-share check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One shard thread and a What-if pool of width 1, for the daemon and for the
# in-process mirrors alike (see README: noise rules).
export TEMPO_THREADS=1

# Both packages build into $CARGO_TARGET_DIR when it is set (made absolute,
# because the two builds run from different directories).
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    serve_bin="$CARGO_TARGET_DIR/release/tempo-serve"
    bench_bin="$CARGO_TARGET_DIR/release/tempo-benchmark"
else
    serve_bin="$root/target/release/tempo-serve"
    bench_bin="$here/target/release/tempo-benchmark"
fi

# Build output goes to standard error so that standard output stays the
# benchmark's own.
cargo build --release --offline --quiet -p tempo-serve --bin tempo-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

work="$here/out/work-$$"
mkdir -p "$work"
bench_pid=""
cleanup() {
    # Whatever happened above: no benchmark process, no daemon child and no
    # journal directory outlives this script.
    if [[ -n "$bench_pid" ]]; then
        kill "$bench_pid" 2>/dev/null || true
        wait "$bench_pid" 2>/dev/null || true
    fi
    if [[ -f "$work/daemon.pid" ]]; then
        kill -9 "$(cat "$work/daemon.pid")" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# In the background, so that a signal to this script runs the trap at once
# and does not wait for the benchmark to end.
"$bench_bin" --serve-bin "$serve_bin" --work-dir "$work" "$@" &
bench_pid=$!
status=0
wait "$bench_pid" || status=$?
bench_pid=""
exit "$status"
