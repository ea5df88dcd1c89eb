#!/usr/bin/env sh
# Tier-1 gate: everything that must stay green on every commit.
#
#   scripts/tier1.sh [--no-perf]
#
# Formatting, the clippy wall, release build, full workspace test suite,
# the golden cycle-count snapshots (the bit-exactness contract for the
# timing model), the via-verify static sweep over every shipped kernel's
# instruction streams, and the simulator-throughput smoke benchmark —
# correctness and performance regressions surface in one command.
#
# Set TIER1_SKIP_PERF=1 (or pass --no-perf) to skip the throughput
# benchmark: wall-clock numbers are meaningless on noisy shared runners,
# so CI runs perf_smoke in a separate non-gating step instead.
set -eu
cd "$(dirname "$0")/.."

for arg in "$@"; do
    case "$arg" in
    --no-perf) TIER1_SKIP_PERF=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets (-D warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release (workspace)"
cargo build --release --workspace

echo "==> cargo test (workspace, release)"
cargo test --workspace --release -q

echo "==> golden cycle snapshots"
cargo test -p via-kernels --release -q --test golden_cycles

echo "==> golden stall accounting"
cargo test -p via-kernels --release -q --test golden_stalls

echo "==> compiled-vs-interpreted golden equivalence"
cargo test -p via-kernels --release -q --test compiled_equivalence

echo "==> verify_programs --quick (via-verify static sweep)"
cargo run --release -p via-bench --bin verify_programs -- --quick

echo "==> campaign tune --quick (auto-tuner smoke, prune audit on)"
TUNE_SMOKE_DIR=$(mktemp -d)
cargo run --release -p via-bench --bin campaign -- \
    tune --dir "$TUNE_SMOKE_DIR" --quick --expect-non-default 1 >/dev/null
rm -rf "$TUNE_SMOKE_DIR"

if [ "${TIER1_SKIP_PERF:-0}" = "1" ]; then
    echo "==> perf_smoke skipped (TIER1_SKIP_PERF=1)"
    echo "==> campaign kill-and-resume smoke skipped (TIER1_SKIP_PERF=1)"
else
    echo "==> perf_smoke (simulator throughput)"
    cargo run --release -p via-bench --bin perf_smoke

    echo "==> campaign kill-and-resume smoke"
    CAMPAIGN_SMOKE_DIR=$(mktemp -d)
    trap 'rm -rf "$CAMPAIGN_SMOKE_DIR"' EXIT
    CAMPAIGN_ARGS="--synthetic 6 --min-rows 48 --max-rows 128 --quiet"
    # Kill a sweep after 2 jobs, resume it, and demand the resumed store
    # is byte-identical to an uninterrupted run's (canonical sort).
    cargo run --release -p via-bench --bin campaign -- \
        run --dir "$CAMPAIGN_SMOKE_DIR/killed" $CAMPAIGN_ARGS --max-jobs 2 >/dev/null
    cargo run --release -p via-bench --bin campaign -- \
        run --dir "$CAMPAIGN_SMOKE_DIR/killed" $CAMPAIGN_ARGS --resume >/dev/null
    cargo run --release -p via-bench --bin campaign -- \
        run --dir "$CAMPAIGN_SMOKE_DIR/straight" $CAMPAIGN_ARGS >/dev/null
    LC_ALL=C sort "$CAMPAIGN_SMOKE_DIR/killed/results.jsonl" >"$CAMPAIGN_SMOKE_DIR/a"
    LC_ALL=C sort "$CAMPAIGN_SMOKE_DIR/straight/results.jsonl" >"$CAMPAIGN_SMOKE_DIR/b"
    cmp "$CAMPAIGN_SMOKE_DIR/a" "$CAMPAIGN_SMOKE_DIR/b"
    echo "    resume smoke OK (stores byte-identical)"
fi

echo "tier-1: OK"
