# Task runner for the eclectic workspace (https://github.com/casey/just).

# The full offline gate: release build, tests, lints with warnings denied,
# the parallel-determinism suite in release mode (now covering confluence,
# completeness, PDL-batch, budget-exhaustion and sparse-backend sweeps),
# the benchmark package's own known-answer tests (perfbench/ is a separate
# cargo package, so `--workspace` does not reach it), and the
# parallel/crossover benches. The tier-1 steps run under a hard timeout so a
# hung sweep fails the gate instead of wedging it.
verify:
    timeout 900 cargo build --release --workspace
    timeout 1200 cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    timeout 600 cargo test -q -p eclectic-spec --release --test parallel_determinism
    timeout 900 cargo test --release --manifest-path perfbench/Cargo.toml
    cargo run -p eclectic-bench --bin bench_reach_parallel --release
    cargo run -p eclectic-bench --bin bench_verify_parallel --release
    timeout 900 cargo run -p eclectic-bench --bin bench_pdl_parallel --release
    timeout 900 cargo run -p eclectic-bench --bin bench_rel_crossover --release
    timeout 900 env ECLECTIC_MAX_REL_BYTES=67108864 cargo run -p eclectic-bench --bin bench_rel_crossover --release -- large
    timeout 900 cargo run -p eclectic-bench --bin bench_sched --release
    timeout 900 cargo run -p eclectic-bench --bin bench_scenarios --release -- --smoke

# Lints alone, warnings denied — the clippy slice of `just verify`.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Timing benches, one target per experiment in EXPERIMENTS.md.
bench:
    cargo bench --workspace

# Regenerate the EXPERIMENTS.md artifact table and BENCH_rewrite.json.
harness:
    cargo run -p eclectic-bench --bin harness --release

# Serial-vs-parallel reachability bench; writes BENCH_reach.json.
bench-reach:
    cargo run -p eclectic-bench --bin bench_reach_parallel --release

# Serial-vs-parallel verification sweep (confluence + completeness + dynamic
# PDL obligations); writes BENCH_verify.json.
bench-verify:
    cargo run -p eclectic-bench --bin bench_verify_parallel --release

# Old-vs-new relation-kernel comparison on the batched PDL/dynamic-logic
# workload (bit-identity asserted in-bench); writes BENCH_pdl.json.
bench-pdl:
    timeout 900 cargo run -p eclectic-bench --bin bench_pdl_parallel --release

# Dense-vs-sparse-vs-compressed-vs-auto relation-kernel crossover on
# star-closure workloads plus the 2^17-state generated-domain capstone and
# the 2^20-state compressed-closure capstone (bit-identity asserted
# in-bench); writes BENCH_rel.json.
bench-rel:
    timeout 900 cargo run -p eclectic-bench --bin bench_rel_crossover --release

# Million-state compressed-closure capstone alone, under an explicit
# relation-memory byte budget (64 MiB) that the uncompressed sparse
# backend must trip — the focused `perf` slice of bench-rel.
bench-rel-large:
    timeout 900 env ECLECTIC_MAX_REL_BYTES=67108864 cargo run -p eclectic-bench --bin bench_rel_crossover --release -- large

# Chain-shaped vs obligation-shaped verify battery (plus the scoped-thread
# baseline) at 1/2/4/8 real workers (bit-identity, including node-capped
# partials, asserted in-bench across every mode × shape × worker-count
# combination); regenerates BENCH_sched.json — part of `just verify`, so
# the artifact never drifts from the code.
bench-sched:
    timeout 900 cargo run -p eclectic-bench --bin bench_sched --release

# Differential fuzzing smoke: a fixed 32-seed corpus through the full
# engine grid; fails on any divergence or generator panic.
fuzz-smoke:
    timeout 900 cargo run -p eclectic-bench --bin bench_scenarios --release -- --smoke

# Full differential-fuzzing sweep (ECLECTIC_FUZZ_SEEDS seeds, default 500)
# through the full engine grid; writes BENCH_scenarios.json with the
# domains/second rate. Divergences auto-shrink into tests/corpus/ fixtures.
fuzz:
    timeout 900 cargo run -p eclectic-bench --bin bench_scenarios --release

# Every benchmark artifact in one shot: harness + all parallel benches,
# closing with the starved-host warning status recorded in the artifacts.
bench-all: harness bench-reach bench-verify bench-pdl bench-rel bench-rel-large bench-sched fuzz
    @grep -o '"warning": [^,]*' BENCH_rel.json
