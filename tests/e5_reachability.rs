//! E5 (§4.4c): every valid state is reachable. All candidate states over
//! the db-predicates are enumerated; the valid ones (models of the static
//! axioms) must all appear in the explored universe.

use eclectic::refine::{
    check_refinement_1_2_budget, check_valid_reachable, AlgExploreLimits, Refine12Config,
};
use eclectic::spec::domains::{bank, courses, library};
use eclectic_kernel::Budget;

#[test]
fn courses_valid_states_are_reachable() {
    let full = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        Refine12Config::quick(),
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    let vr = check_valid_reachable(&full.information, &report.exploration, 1_000_000).unwrap();
    assert!(vr.holds(), "{:?}", vr.unreachable);
    // Valid states: offered ⊆ courses (4 choices) × takes ⊆ students ×
    // offered. For each offered set O: 2^(2·|O|) takes sets → 1+4+4+16 = 25.
    assert_eq!(vr.valid, 25);
    assert_eq!(vr.reachable_valid, 25);
    // And the exploration reached nothing *but* valid states (E4 dual).
    assert_eq!(report.exploration.universe.state_count(), 25);
}

#[test]
fn library_valid_states_are_reachable() {
    let full = library::library(&library::LibraryConfig::default()).unwrap();
    let mut cfg = Refine12Config::quick();
    cfg.limits = AlgExploreLimits {
        max_depth: 8,
        max_states: 10_000,
    };
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        cfg,
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    let vr = check_valid_reachable(&full.information, &report.exploration, 1_000_000).unwrap();
    assert!(vr.holds(), "{:?}", vr.unreachable);
    assert!(vr.valid > 20);
    assert_eq!(report.exploration.universe.state_count(), vr.valid);
}

#[test]
fn bank_valid_states_are_reachable() {
    let full = bank::bank(&bank::BankConfig::default()).unwrap();
    let mut cfg = Refine12Config::quick();
    cfg.limits = AlgExploreLimits {
        max_depth: 10,
        max_states: 10_000,
    };
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        cfg,
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    let vr = check_valid_reachable(&full.information, &report.exploration, 1_000_000).unwrap();
    assert!(vr.holds(), "{:?}", vr.unreachable);
    // Per account: unopened | closed | open with one of 4 balances = 6;
    // two accounts → 36 valid states.
    assert_eq!(vr.valid, 36);
}

/// With the depth bound too small the check is inconclusive, and says so.
#[test]
fn truncated_exploration_is_flagged() {
    let full = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let mut cfg = Refine12Config::quick();
    cfg.limits = AlgExploreLimits {
        max_depth: 1,
        max_states: 10_000,
    };
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        cfg,
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    let vr = check_valid_reachable(&full.information, &report.exploration, 1_000_000).unwrap();
    assert!(!vr.holds());
    assert!(vr.exploration_truncated);
}
