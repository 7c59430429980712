//! Scenario-factory differential fuzzing: derives hundreds of random
//! tri-level domains from seeds and verifies each under every engine
//! combination (backends × schedulers × worker counts × budget caps ×
//! legacy rewriter), requiring zero divergence; writes
//! `BENCH_scenarios.json` with the domains/second rate.
//!
//! Modes:
//! - `bench_scenarios --smoke`: fixed 32-seed corpus, no JSON; exits
//!   nonzero on any divergence or generator error (the `just fuzz-smoke`
//!   gate).
//! - `bench_scenarios`: `ECLECTIC_FUZZ_SEEDS` seeds (default 500) plus the
//!   JSON artefact.
//!
//! Any divergence is auto-shrunk to a minimal seed/config and written to
//! `tests/corpus/` as a replayable fixture, so the regression is pinned
//! before anyone starts debugging.

#![forbid(unsafe_code)]

use std::time::Instant;

use eclectic_bench::{host_cores, warning_json};
use eclectic_spec::fuzz::{env_fuzz_seeds, fixture_toml, run_corpus, FuzzConfig};

const SMOKE_SEEDS: usize = 32;
const FULL_SEEDS: usize = 500;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = FuzzConfig::default();
    let count = if smoke {
        SMOKE_SEEDS
    } else {
        env_fuzz_seeds(FULL_SEEDS)
    };

    println!(
        "scenario factory: {count} seeds, full engine grid per domain{}",
        if smoke { " (smoke mode)" } else { "" }
    );
    let start = Instant::now();
    let out = run_corpus(0, count, &cfg);
    let secs = start.elapsed().as_secs_f64();
    let rate = out.domains as f64 / secs.max(1e-9);

    for (seed, msg) in &out.generator_errors {
        eprintln!("GENERATOR ERROR: seed {seed}: {msg}");
    }
    for (seed, shrunk, divs) in &out.failures {
        eprintln!("DIVERGENCE: seed {seed} (shrunk to {shrunk:?})");
        for d in divs {
            eprintln!("  {} :: {}", d.axis, d.detail);
        }
        let fixture = fixture_toml(*seed, shrunk);
        let path = format!("tests/corpus/divergence-seed-{seed}.toml");
        match std::fs::write(&path, &fixture) {
            Ok(()) => eprintln!("  fixture written to {path}"),
            Err(e) => eprintln!("  could not write {path} ({e}); fixture:\n{fixture}"),
        }
    }

    let pass = out.failures.is_empty() && out.generator_errors.is_empty();
    println!(
        "{} domains in {secs:.1}s ({rate:.2} domains/s), {} divergence(s), \
         {} generator error(s)",
        out.domains,
        out.failures.len(),
        out.generator_errors.len()
    );

    if !smoke {
        let json = format!(
            "{{\n  \"bench\": \"scenarios\",\n  \"workload\": \"W-grammar scenario factory, \
             full differential engine grid per domain\",\n  \"available_cores\": {},\n  \
             \"seeds\": {count},\n  \"domains\": {},\n  \"elapsed_s\": {secs:.2},\n  \
             \"domains_per_s\": {rate:.3},\n  \"divergences\": {},\n  \
             \"generator_errors\": {},\n  {},\n  \"pass\": {pass}\n}}\n",
            host_cores(),
            out.domains,
            out.failures.len(),
            out.generator_errors.len(),
            warning_json(),
        );
        std::fs::write("BENCH_scenarios.json", &json).expect("write BENCH_scenarios.json");
        println!("BENCH_scenarios.json written");
    }

    assert!(
        pass,
        "differential fuzzing found {} divergence(s) and {} generator error(s)",
        out.failures.len(),
        out.generator_errors.len()
    );
}
