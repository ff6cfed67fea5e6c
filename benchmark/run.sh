#!/usr/bin/env bash
# The smpx benchmark, one command: builds the release `smpx` binary at the
# repository root and the harness in this directory, then runs the harness.
#
#   benchmark/run.sh                          all workloads, end-to-end metrics
#   benchmark/run.sh --workload xmark-mmap    one workload (repeatable)
#   benchmark/run.sh --trace                  per-layer metrics and out/trace.jsonl
#   benchmark/run.sh --quick                  small corpora, seconds, not comparable
#   benchmark/run.sh compare A.json B.json    is B a regression from A?
#   benchmark/run.sh oracle --write           re-pin expected.json from TokenProjector
#   benchmark/run.sh test                     the package's own tests
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both builds run from the repository root so that a relative
# CARGO_TARGET_DIR means the same directory for each.
cargo build --release --offline --bin smpx >&2
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    smpx="$CARGO_TARGET_DIR/release/smpx"
    harness="$CARGO_TARGET_DIR/release/smpx-benchmark"
else
    smpx="target/release/smpx"
    harness="benchmark/target/release/smpx-benchmark"
fi

if [ "${1:-}" = "test" ]; then
    shift
    exec cargo test --release --offline --manifest-path benchmark/Cargo.toml "$@"
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
case "${1:-}" in
    compare | oracle) exec "$harness" "$@" ;;
    *) exec "$harness" --smpx "$smpx" "$@" ;;
esac
