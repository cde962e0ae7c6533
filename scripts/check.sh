#!/usr/bin/env bash
# famg CI gate: formatting, lints, the test suites (the reference AMG
# pins among them), and the release-mode regression and bench stages.
#
# Everything here must pass before a change merges. Runs offline — the
# workspace vendors its dependency shims, so no registry access is needed.
#
# Usage: check.sh [--fast]
#   --fast   formatting, clippy, famg-analyze, the test suites at both pool
#            sizes, and the benchmark package's own tests only, then prints
#            the kernel crates' line counts (information only); skips the
#            model checker and the release-mode regression/bench stages.
#            For inner-loop edits — a merge still requires the full run.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
    --fast) FAST=1 ;;
    *)
        echo "usage: $0 [--fast]" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

# One auditor, both rule families: the site rules (unsafe, orderings,
# hash containers, wall clock, narrowing) and the solve-path flow rules
# (no-alloc, no-panic, blessed reductions). The famg-diag-v1 JSON document
# of the same run lands in target/bench for CI log collection.
echo "==> famg-analyze (site rules + solve-path invariants; famg-diag-v1 -> target/bench)"
mkdir -p target/bench
cargo run -q -p famg-analyze --bin famg-analyze -- --format json >target/bench/DIAG_famg-analyze.json ||
    {
        cat target/bench/DIAG_famg-analyze.json
        exit 1
    }

# The shipped setup is the only one tested: tests/reference_amg.rs pins
# every level of the serial, refreshed and 1/2/4-rank builds to the
# reference AMG written from the definitions (tests/common/reference.rs),
# and the two runs below run it at both pool sizes. The distributed
# suites cover both halo modes themselves (famg-dist's solve tests and
# tests/halo_overlap.rs compare them bitwise).
echo "==> cargo test (serial pool: RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test --workspace -q

echo "==> cargo test (parallel pool: RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test --workspace -q

# e2e/ is the repo's benchmark (BENCHMARK.json) and its own workspace —
# own lock file and target dir — so nothing above compiles it. Building
# and testing it here means a break in a public name it calls (cg,
# cg_batch, dist_vcycle, dist_spmv, dist_fgmres_amg,
# BatchCycleWorkspace::for_hierarchy, ...) fails the gate instead of the
# next benchmark run.
echo "==> e2e benchmark package (builds what BENCHMARK.json runs)"
cargo test -q --offline --manifest-path e2e/Cargo.toml

if [[ "$FAST" == "1" ]]; then
    echo "==> fast mode: skipping famg-model and release stages"
    echo "==> all fast checks passed"
    # Information, not a gate: the kernel crates' size, as ROADMAP's line
    # bars count it.
    echo "==> kernel crate lines (scripts/count_lines.py)"
    python3 scripts/count_lines.py . || echo "(line count unavailable)"
    exit 0
fi

# No second build of the solver is tested here: the reference AMG suite
# (tests/reference_amg.rs) ran in both workspace test runs above, at pool
# sizes 1 and 4, against the setup that ships.

# Exhaustive interleaving exploration of the pool shim's lock-free latch,
# help-while-waiting, wakeup, and panic protocols, plus the model crate's
# own self-tests. Bounds (<= 3 modeled threads, preemption bound 2; see
# shims/rayon/src/model_tests.rs) keep the whole stage well under a minute.
echo "==> famg-model (pool shim interleaving model checks)"
RUSTFLAGS="--cfg famg_model" cargo test -q -p famg-rayon-shim --lib -- --test-threads=1
cargo test -q -p famg-model

echo "==> comm-volume regression test (release)"
cargo test -q --release --test comm_volume

echo "==> halo overlap regression test (release, bitwise on-vs-off)"
cargo test -q --release --test halo_overlap

echo "==> comm-volume bench smoke (asserts overlap exposed-wait fraction < synchronous)"
cargo run -q --release -p famg-bench --bin comm_volume -- --smoke

echo "==> numeric-refresh regression test (release)"
cargo test -q --release --test setup_refresh

# A counting allocator around Hierarchy::build / build_frozen (high-water
# <= 2.5x the operator) and around a second refresh (the refresh pin: its
# high-water <= 0.25x the operator, as it rewrites the hierarchy in place);
# the release-mode test that P's coarse rows are unit rows where P_F is
# taken (a release assert, not a debug_assert!); the numeric triple
# products, whose frozen-pattern range test (`FrozenRow::add`) is a release
# assert too and the refresh writes every coarse operator through it; and
# the refresh unit tests — transactional errors across the commit point, a
# composed scheme re-run below level 0, a panic mid-refresh, a frozen setup
# of another hierarchy — where the in-place path runs in production.
echo "==> setup + refresh memory high-water, P = [I; P_F] guard, refresh contract (release)"
cargo test -q --release --test setup_peak_bytes
cargo test -q --release -p famg-core --lib hierarchy::tests::coarse_
cargo test -q --release -p famg-sparse --lib triple::
cargo test -q --release -p famg-core --lib refresh::

echo "==> numeric-refresh bench smoke (asserts refresh >= 2x full setup)"
cargo run -q --release -p famg-bench --bin setup_refresh -- --smoke

echo "==> multi-RHS regression test (release, batch-vs-solo bitwise)"
cargo test -q --release --test multi_rhs

echo "==> multi-RHS bench smoke (asserts k=8 per-RHS >= 1.3x solo and"
echo "    k-independent message counts)"
cargo run -q --release -p famg-bench --bin multi_rhs -- --smoke

# The §5.1 table at the size of results/bandwidth.txt: every kernel row
# is read against a pool triad over its own bytes, and the bin exits
# non-zero when one exceeds 105 % of it (a reference that a kernel beats
# is the wrong reference — how bandwidth.txt once read "154 % of STREAM").
echo "==> bandwidth analysis smoke (asserts every kernel <= 105% of its STREAM reference)"
cargo run -q --release -p famg-bench --bin text_bandwidth -- --scale 0.25

# Profiler off: every probe must compile to a unit type; the solve paths
# still build and pass their suites with zero timing reads.
echo "==> famg-prof disabled build (--no-default-features)"
cargo build -q -p famg-core -p famg-dist --no-default-features
RAYON_NUM_THREADS=4 cargo test -q -p famg-core --no-default-features

# The smoke benches' iterations, complexities and flop/comm counters are
# pinned exactly by the root test suites above (DESIGN.md §8); this run
# keeps the bin itself building and running.
echo "==> thread-scaling bench smoke"
cargo run -q --release -p famg-bench --bin thread_scaling -- --smoke

echo "==> all checks passed"
