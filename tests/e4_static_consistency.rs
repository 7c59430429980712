//! E4 (§4.4b): every reachable state is valid — static consistency of the
//! update repertoire, by exhaustive BFS over the induced universe `M(T2)`,
//! plus failure injection (a broken `enroll` reaches an invalid state).

use eclectic::algebraic::AlgSpec;
use eclectic::refine::{check_refinement_1_2_budget, InterpretationI, Refine12Config};
use eclectic::spec::domains::{bank, courses, library};
use eclectic_kernel::Budget;

#[test]
fn courses_reachable_states_are_valid() {
    let theory = courses::information_level().unwrap();
    let config = courses::CoursesConfig::default();
    let spec = courses::functions_level(&config).unwrap();
    let full = courses::courses(&config).unwrap();
    let report = check_refinement_1_2_budget(
        &theory,
        &spec,
        &full.interp_i,
        &theory.signature,
        &full.info_domains,
        Refine12Config::quick(),
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    assert!(report.static_violations.is_empty(), "{:?}", report.static_violations);
    assert!(report.termination.is_terminating());
    assert!(report.completeness.is_sufficiently_complete());
    // 2 students × 2 courses: all valid configurations are reachable within
    // depth 6; the explored universe is exactly the valid-state space.
    assert!(report.exploration.universe.state_count() > 10);
    assert!(!report.exploration.abstraction_collision);
}

#[test]
fn library_reachable_states_are_valid() {
    let full = library::library(&library::LibraryConfig::default()).unwrap();
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
    assert!(report.static_violations.is_empty(), "{:?}", report.static_violations);
}

#[test]
fn bank_reachable_states_are_valid() {
    let full = bank::bank(&bank::BankConfig::default()).unwrap();
    let mut config = Refine12Config::quick();
    config.limits.max_depth = 8;
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        config,
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    assert!(report.static_violations.is_empty(), "{:?}", report.static_violations);
}

/// Failure injection: an `enroll` without its precondition lets a student
/// take an unoffered course — obligation (b) fails with a witness trace.
#[test]
fn unguarded_enroll_reaches_invalid_states() {
    let config = courses::CoursesConfig::default();
    let theory = courses::information_level().unwrap();
    let full = courses::courses(&config).unwrap();

    let spec = courses::functions_level(&config).unwrap();
    let mut sig = (**spec.signature()).clone();
    let mut eqs = spec.equations().to_vec();
    eqs.retain(|e| e.name != "eq10" && e.name != "eq11");
    // enroll unconditionally: takes(s, c, enroll(s, c, U)) = True.
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut sig,
            "bad10",
            "takes(s, c, enroll(s, c, U)) = True",
        )
        .unwrap(),
    );
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut sig,
            "bad11",
            "~(s = s' & c = c') ==> takes(s, c, enroll(s', c', U)) = takes(s, c, U)",
        )
        .unwrap(),
    );
    let broken = AlgSpec::new(sig, eqs).unwrap();
    let interp = InterpretationI::new(
        &theory.signature,
        broken.signature(),
        &[("offered", "offered"), ("takes", "takes")],
    )
    .unwrap();

    let report = check_refinement_1_2_budget(
        &theory,
        &broken,
        &interp,
        &theory.signature,
        &full.info_domains,
        Refine12Config::quick(),
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    assert!(!report.static_violations.is_empty());
    let v = &report.static_violations[0];
    assert_eq!(v.axiom, "static-1");
    assert!(v.witness.contains("enroll"), "witness: {}", v.witness);
}
