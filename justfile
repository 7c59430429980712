# Task runner for the eclectic workspace (https://github.com/casey/just).

# Reads the last line of a `perfbench/run.py` run from stdin and fails
# unless every verdict matched its known answer.
perf_ok := "import json, sys; r = json.loads(sys.stdin.read().splitlines()[-1]); sys.exit(0 if r['correct'] is True and r['failed'] == 0 else 'perfbench smoke run failed: ' + json.dumps(r))"

# Fails if a library file other than the top-level entry points
# (`spec::verify`, `fuzz::run_corpus`) and the variable's own parser calls
# `env_threads(`: every sweep below the top takes its worker count from its
# caller, so `ECLECTIC_THREADS` can never override an explicit count.
env_threads_ok := "files=$(grep -rl --include='*.rs' 'env_threads(' crates/*/src | grep -vxF -e crates/kernel/src/envcfg.rs -e crates/core/src/verify.rs -e crates/core/src/fuzz.rs); if [ -n \"$files\" ]; then echo \"env_threads( called outside the top-level entry points: $files\"; exit 1; fi"

# Fails if a library file other than the scheduler and the three parallel
# grains (the obligation chains in `verify`, the completeness strips, the
# fuzz corpus) submits work to the pool: parallelism lives at the
# obligation level, and every sweep inside an obligation stays serial.
grain_ok := "files=$(grep -rlF --include='*.rs' -e 'run_tasks(' -e 'run_workers(' crates/*/src | grep -vxF -e crates/kernel/src/sched.rs -e crates/core/src/verify.rs -e crates/core/src/fuzz.rs -e crates/algebraic/src/completeness.rs); if [ -n \"$files\" ]; then echo \"scheduler called outside the three parallel grains: $files\"; exit 1; fi"

# The full offline gate: release build, tests, lints and rustdoc with
# warnings denied (so a doc link to a deleted item fails the gate), the
# `ECLECTIC_THREADS` read-site and parallel-grain checks, the
# parallel-determinism suite in release mode (covering the obligation
# battery and the completeness strips, with and without budget
# exhaustion),
# the benchmark package's own known-answer tests (perfbench/ is a separate
# cargo package, so `--workspace` does not reach it), a one-second untraced
# and traced smoke run of the benchmark driver on paper-1w and on
# dynamic-bank (built into the same target directory as those tests; the
# second is the only gate that runs the dynamic stage on the 4,096-state
# bank universe, which is over paper-1w's PDL cap, against its known
# answer), and the crossover and fuzz benches.
# The tier-1 steps run under a hard timeout so a hung sweep fails the gate
# instead of wedging it.
verify:
    timeout 900 cargo build --release --workspace
    timeout 1200 cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    {{env_threads_ok}}
    {{grain_ok}}
    timeout 600 cargo test -q -p eclectic-spec --release --test parallel_determinism
    timeout 900 cargo test --release --manifest-path perfbench/Cargo.toml
    CARGO_TARGET_DIR=perfbench/target timeout 600 python3 perfbench/run.py --workload paper-1w --seed 0 --seconds 1 --trace 0 | python3 -c "{{perf_ok}}"
    CARGO_TARGET_DIR=perfbench/target timeout 600 python3 perfbench/run.py --workload paper-1w --seed 0 --seconds 1 --trace 1 | python3 -c "{{perf_ok}}"
    CARGO_TARGET_DIR=perfbench/target timeout 600 python3 perfbench/run.py --workload dynamic-bank --seed 0 --seconds 1 --trace 0 | python3 -c "{{perf_ok}}"
    CARGO_TARGET_DIR=perfbench/target timeout 600 python3 perfbench/run.py --workload dynamic-bank --seed 0 --seconds 1 --trace 1 | python3 -c "{{perf_ok}}"
    timeout 900 cargo run -p eclectic-bench --bin bench_rel_crossover --release
    timeout 900 cargo run -p eclectic-bench --bin bench_scenarios --release -- --smoke

# Lints alone, warnings denied — the clippy, rustdoc, `ECLECTIC_THREADS`
# read-site and parallel-grain slice of `just verify`.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    {{env_threads_ok}}
    {{grain_ok}}

# Timing benches, one target per experiment in EXPERIMENTS.md.
bench:
    cargo bench --workspace

# Regenerate the EXPERIMENTS.md artifact table.
harness:
    cargo run -p eclectic-bench --bin harness --release

# Dense-vs-sparse-vs-compressed relation-kernel crossover on star-closure
# workloads (asserting the automatic policy picks the fastest arm and
# sparse beats dense by 1.5x at 4096) plus the 2^17-state generated-domain
# capstone and the 2^20-state compressed-closure capstone, which must fit
# a 64 MiB relation-memory budget the sparse closure trips; writes
# BENCH_rel.json.
bench-rel:
    timeout 900 cargo run -p eclectic-bench --bin bench_rel_crossover --release

# Differential fuzzing smoke: a fixed 32-seed corpus through the full
# engine grid; fails on any divergence or generator panic.
fuzz-smoke:
    timeout 900 cargo run -p eclectic-bench --bin bench_scenarios --release -- --smoke

# Full differential-fuzzing sweep (ECLECTIC_FUZZ_SEEDS seeds, default 500)
# through the full engine grid; writes BENCH_scenarios.json with the
# domains/second rate. Divergences auto-shrink into tests/corpus/ fixtures.
fuzz:
    timeout 900 cargo run -p eclectic-bench --bin bench_scenarios --release

# Every benchmark artifact in one shot: harness + the crossover and fuzz
# benches, closing with the starved-host warning status recorded in the
# artifacts.
bench-all: harness bench-rel fuzz
    @grep -o '"warning": [^,]*' BENCH_rel.json
