#!/usr/bin/env bash
# Repo verification gate: build, tests, formatting, lints.
#
#   scripts/verify.sh            # tier-1 gate + fmt + clippy
#   scripts/verify.sh --clippy   # fast path: fmt + clippy only, no build/tests
#   scripts/verify.sh --full     # additionally run the full workspace test suite
#   scripts/verify.sh --threads  # additionally stress the concurrency tests
#   scripts/verify.sh --soak     # shaped-cluster suites, N random seeds
#
# Tier-1 (must stay green, see ROADMAP.md): release build + root-package
# tests, plus the store/client (memfs-memkv) and file-system (memfs-core)
# crate suites. fmt/clippy keep the tree warning-free; clippy runs with -D warnings
# so new lints fail the gate instead of scrolling by. The benchmark under
# perfbench/ (its own cargo workspace, built against the library by path)
# is built and tested too, so a library API change that breaks it fails
# here rather than in a benchmark run.
#
# --threads repeats the fan-out/thread-pool suites with a high test-thread
# count so the per-server dispatcher, the write drain, and the prefetcher
# race against each other — the schedule-dependent bugs (lost wakeups,
# in-flight gauges that never settle, out-of-order reassembly) that a
# single quiet run can miss. It also runs the (otherwise `--ignored`)
# shaped-cluster scaling regression: 8 bandwidth-capped servers must
# deliver >= 1.5x the 4-server aggregate batched throughput, plus the
# thread-census binaries (client side: one reactor loop per mount,
# including a live 4 -> 6 grow; server side: exactly 1 epoll loop +
# ServerConfig::workers execution threads per server, regardless of
# connection count) and the stall/kill isolation suites, plus the
# self-healing repair and elastic-membership suites: mover units, the
# membership property tests, the 8-server kill/heal/second-kill soak,
# and the grow-mid-workload kill-during-migration chaos cycle. The
# store-engine suites ride along: the lock-discipline census (reads
# take read locks, eviction write-locks one shard per victim) and the
# reader/writer/sweeper stress oracle with eviction and TTL active.
#
# --soak loops the shaped-cluster transport suites (failure injection,
# shaped e2e, scaling, the repair kill/heal and grow/kill chaos
# cycles) plus the seeded store stress oracle, with a randomized
# MEMFS_SHAPE_SEED per iteration
# (SOAK_ITERS, default 5). Each iteration prints its seed; export
# MEMFS_SHAPE_SEED to replay a failure deterministically.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fast path: lints across every target (lib, tests, benches, bins)
# without paying for the release build or the test run. Keeps the
# edit-lint loop tight; the default gate still runs everything.
if [[ "${1:-}" == "--clippy" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "verify: OK (clippy fast path)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test -q -p memfs-memkv -p memfs-core"
cargo test -q -p memfs-memkv -p memfs-core

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
CARGO_TARGET_DIR=.bench_build/verify \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

for arg in "$@"; do
    case "$arg" in
    --full)
        echo "==> cargo test --workspace -q (full)"
        cargo test --workspace -q
        ;;
    --threads)
        echo "==> stressed concurrency pass (RUST_TEST_THREADS=16, 5 rounds)"
        for round in 1 2 3 4 5; do
            echo "  -- round $round"
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --test fanout
            # engine_sharing counts process-wide threads: own binary, one test.
            cargo test -q -p memfs-core --test engine_sharing
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                threadpool:: pool:: prefetch:: bufwrite::
            # Error-injection regressions: prefetch wedge recovery,
            # concurrent-miss coalescing, zombie unlink.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                prefetch_recovers_after_transient_errors \
                concurrent_misses_coalesce_into_one_fetch \
                cache_never_exceeds_capacity_under_random_ops \
                unlink_open_file
            # reactor_threads / server_threads count process-wide threads
            # by name: own binaries, one test each, no parallel siblings.
            cargo test -q --test reactor_threads
            cargo test -q --test server_threads
            RUST_TEST_THREADS=16 cargo test -q --test shared_reactor
            # Self-healing + elastic membership: repair planner/daemon
            # and mover units, heartbeat census, kill/heal and
            # grow/kill-during-migration chaos cycles, placement props.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                repair:: mover::
            cargo test -q --test repair
            cargo test -q --test fault_tolerance
            RUST_TEST_THREADS=16 cargo test -q --test props -- membership
            # Store engine: lock-discipline census (process-global audit
            # counters: own binary, one test) and the reader/writer/
            # sweeper stress oracle with eviction + TTL active.
            cargo test -q --test store_locks
            cargo test -q --release --test store_stress
        done
        echo "==> shaped-cluster scaling regression (8 vs 4 servers)"
        cargo test -q --release --test shaped_scaling -- --ignored --nocapture
        echo "==> shaped repair + elastic chaos suites (8 servers)"
        cargo test -q --release --test repair -- --nocapture
        ;;
    --soak)
        iters="${SOAK_ITERS:-5}"
        echo "==> shaped-cluster soak ($iters iterations, randomized seeds)"
        for i in $(seq 1 "$iters"); do
            seed="${MEMFS_SHAPE_SEED:-$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')}"
            echo "  -- iteration $i (MEMFS_SHAPE_SEED=$seed)"
            MEMFS_SHAPE_SEED="$seed" cargo test -q -p memfs-memkv --test tcp_failures
            MEMFS_SHAPE_SEED="$seed" cargo test -q --test tcp_e2e
            MEMFS_SHAPE_SEED="$seed" cargo test -q --test shared_reactor
            MEMFS_SHAPE_SEED="$seed" cargo test -q --release --test shaped_scaling -- --ignored
            MEMFS_SHAPE_SEED="$seed" cargo test -q --release --test repair
            MEMFS_SHAPE_SEED="$seed" cargo test -q --release --test store_stress
        done
        ;;
    *)
        echo "unknown option: $arg" >&2
        exit 2
        ;;
    esac
done

echo "verify: OK"
