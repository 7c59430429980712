//! E5 (§4.4c): every valid state is reachable. All candidate states over
//! the db-predicates are enumerated; the valid ones (models of the static
//! axioms) must all appear in the explored universe.

use eclectic::refine::{
    check_refinement_1_2_budget, check_valid_reachable, explore_algebraic_budget,
    AlgExploreLimits, Refine12Config,
};
use eclectic::spec::domains::{bank, courses, library};
use eclectic_kernel::{Budget, BudgetExceeded};

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

/// A node cap stops the search at a BFS level boundary: the partial
/// exploration is flagged, reports the node axis, and holds a prefix of
/// the uncapped exploration's states, in the same order and at the same
/// depths.
#[test]
fn node_capped_exploration_returns_a_prefix_of_the_witness_order() {
    let domains = [
        ("courses", courses::courses(&courses::CoursesConfig::default()).unwrap(), 6),
        ("library", library::library(&library::LibraryConfig::default()).unwrap(), 6),
        ("bank", bank::bank(&bank::BankConfig::default()).unwrap(), 8),
    ];
    for (name, full, depth) in domains {
        let limits = AlgExploreLimits {
            max_depth: depth,
            max_states: 10_000,
        };
        let explore = |budget: &Budget| {
            explore_algebraic_budget(
                &full.functions,
                &full.interp_i,
                full.info_signature(),
                &full.info_domains,
                limits,
                budget,
            )
            .unwrap()
        };
        let whole = explore(&Budget::unlimited());
        let capped = explore(&Budget::unlimited().with_max_nodes(200));
        assert!(capped.truncated, "{name}: cap 200 must truncate");
        let e = capped.exhausted.as_ref().expect(name);
        assert_eq!((e.stage, e.reason), ("explore", BudgetExceeded::Nodes), "{name}");
        let k = capped.witnesses.len();
        assert!(k < whole.witnesses.len(), "{name}: cap 200 must stop early");
        assert_eq!(capped.witnesses[..], whole.witnesses[..k], "{name}: witness prefix");
        assert_eq!(capped.depth[..], whole.depth[..k], "{name}: depth prefix");
    }
}
