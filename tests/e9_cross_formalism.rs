//! E9 (§6): the one-to-one correspondence db-predicate ↔ query function ↔
//! relation yields agreement across levels — the same trace replayed by
//! term rewriting (level 2) and by procedure execution (level 3) answers
//! every query identically.

use eclectic::refine::{cross_check_budget, random_ops, InducedAlgebra};
use eclectic::spec::domains::{bank, courses, library};
use eclectic::spec::TriLevelSpec;
use eclectic_kernel::Budget;

fn xorshift(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed;
    move |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    }
}

fn agree(spec: &TriLevelSpec, initial: &str, traces: usize, len: usize, seed: u64) {
    let mut ind = InducedAlgebra::new(
        &spec.functions,
        &spec.representation,
        &spec.interp_k,
        spec.empty_state(),
    )
    .unwrap();
    let mut rng = xorshift(seed);
    let mut total = 0usize;
    for _ in 0..traces {
        let ops = random_ops(&spec.functions, &ind, initial, len, &mut rng).unwrap();
        let (mismatch, stats, _) =
            cross_check_budget(&spec.functions, &mut ind, &ops, &Budget::unlimited(), 1).unwrap();
        assert!(mismatch.is_none(), "{mismatch:?}");
        total += stats.comparisons;
    }
    assert!(total > 500, "compared {total} query instances");
}

#[test]
fn courses_levels_agree_on_random_traces() {
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    agree(&spec, "initiate", 10, 25, 0xc0ffee);
}

#[test]
fn courses_synthesized_levels_agree() {
    let spec = courses::courses(&courses::CoursesConfig {
        style: courses::EquationStyle::Synthesized,
        ..courses::CoursesConfig::default()
    })
    .unwrap();
    agree(&spec, "initiate", 10, 25, 0xdeadbeef);
}

#[test]
fn library_levels_agree_on_random_traces() {
    let spec = library::library(&library::LibraryConfig::default()).unwrap();
    agree(&spec, "initiate", 8, 25, 0xfeed);
}

#[test]
fn bank_levels_agree_on_random_traces() {
    let spec = bank::bank(&bank::BankConfig::default()).unwrap();
    agree(&spec, "initiate", 8, 25, 0xbead);
}

/// The full one-call verification passes for every domain (grammar check,
/// all four §4.4 obligations, the 2→3 equation check, and cross-level
/// testing together).
#[test]
fn full_verification_of_all_domains() {
    use eclectic::spec::{verify, VerifyConfig};

    let mut config = VerifyConfig::quick();
    config.refine12.limits.max_depth = 8;

    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let outcome = verify(&spec, &config).unwrap();
    assert!(outcome.is_correct(), "courses:\n{}", outcome.report);

    let spec = library::library(&library::LibraryConfig::default()).unwrap();
    let outcome = verify(&spec, &config).unwrap();
    assert!(outcome.is_correct(), "library:\n{}", outcome.report);

    config.refine12.limits.max_depth = 10;
    let spec = bank::bank(&bank::BankConfig::default()).unwrap();
    let outcome = verify(&spec, &config).unwrap();
    assert!(outcome.is_correct(), "bank:\n{}", outcome.report);
}
