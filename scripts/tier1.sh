#!/usr/bin/env sh
# Tier-1 gate: everything that must stay green on every commit.
#
#   scripts/tier1.sh
#
# Formatting, the clippy wall, CI's docs job (the rustdoc wall, where a
# broken intra-doc link fails, and the markdown link check), release
# build, full workspace test suite in release and in debug (debug builds
# verify every pushed and replayed instruction, so that run doubles as
# the stream-soundness proof), the golden cycle-count, stall and stream
# snapshots (the bit-exactness contract for the timing model, and the
# exact instruction stream of every VIA kernel's SSPM read-out and of the
# baseline and SSR kernels that share their idioms), the
# via-verify static sweep over every shipped kernel's
# instruction streams and the socket sweep (each JSON report compared
# byte for byte with the committed VERIFY_programs.json and
# BENCH_multicore.json, so a moved bound or cycle count fails), the
# quick auto-tune (gated on soundness and on the
# 1.10x tuned-over-default geomean floor), the campaign kill-and-resume
# smoke over all six kernel pairs (results, cycle memo and quarantine
# compared), and the repository benchmark's self-test (every perfbench
# workload at a tiny scale, so a crate change that breaks the benchmark
# fails here). Wall-clock performance is measured separately, by the
# repository benchmark (`python3 perfbench/run.py`).
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "unknown argument: $1" >&2
    exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets (-D warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> markdown link check"
sh scripts/check_links.sh

echo "==> cargo build --release (workspace)"
cargo build --release --workspace

echo "==> cargo test (workspace, release)"
cargo test --workspace --release -q

echo "==> cargo test (workspace, debug: every pushed and replayed instruction verified)"
cargo test --workspace -q

echo "==> golden cycle, stall and stream snapshots"
cargo test -p via-kernels --release -q \
    --test golden_cycles --test golden_stalls --test golden_streams

echo "==> compiled-vs-interpreted golden equivalence"
cargo test -p via-kernels --release -q --test compiled_equivalence

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> verify_programs --quick (via-verify static sweep, equal to VERIFY_programs.json)"
cargo run --release -p via-bench --bin verify_programs -- --quick --out "$SMOKE_DIR/verify.json"
cmp "$SMOKE_DIR/verify.json" VERIFY_programs.json

echo "==> multicore (socket sweep, equal to BENCH_multicore.json)"
cargo run --release -p via-bench --bin multicore -- --out "$SMOKE_DIR/multicore.json" >/dev/null
cmp "$SMOKE_DIR/multicore.json" BENCH_multicore.json

echo "==> campaign tune --quick (auto-tuner smoke, prune audit on, 1.10x geomean floor)"
cargo run --release -p via-bench --bin campaign -- \
    tune --dir "$SMOKE_DIR/tune" --quick --expect-geomean 1.10 >/dev/null

echo "==> campaign kill-and-resume smoke"
CAMPAIGN_ARGS="--synthetic 6 --min-rows 48 --max-rows 128 --kernels all --quiet"
# Kill a sweep after 2 jobs, resume it, and demand the resumed store
# is byte-identical to an uninterrupted run's (canonical sort).
cargo run --release -p via-bench --bin campaign -- \
    run --dir "$SMOKE_DIR/killed" $CAMPAIGN_ARGS --max-jobs 2 >/dev/null
cargo run --release -p via-bench --bin campaign -- \
    run --dir "$SMOKE_DIR/killed" $CAMPAIGN_ARGS --resume >/dev/null
cargo run --release -p via-bench --bin campaign -- \
    run --dir "$SMOKE_DIR/straight" $CAMPAIGN_ARGS >/dev/null
for f in results cycles quarantine; do
    LC_ALL=C sort "$SMOKE_DIR/killed/$f.jsonl" >"$SMOKE_DIR/a"
    LC_ALL=C sort "$SMOKE_DIR/straight/$f.jsonl" >"$SMOKE_DIR/b"
    cmp "$SMOKE_DIR/a" "$SMOKE_DIR/b"
done
echo "    resume smoke OK (results, cycles and quarantine byte-identical)"

echo "==> perfbench selftest (every benchmark workload at a tiny scale)"
python3 perfbench/run.py selftest

echo "tier-1: OK"
