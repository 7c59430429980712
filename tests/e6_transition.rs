//! E6 (§4.4d): transition consistency — every modal axiom holds at every
//! reachable state of `M(T2)`, under both accessibility policies, plus
//! failure injection (a `drop` update that removes a student's last course).

use eclectic::algebraic::{AlgSpec, ConditionalEquation};
use eclectic::refine::{check_refinement_1_2_budget, InterpretationI, Refine12Config};
use eclectic::spec::domains::{bank, courses, library};
use eclectic::temporal::AccessibilityPolicy;
use eclectic_kernel::Budget;

fn config_with(policy: AccessibilityPolicy, depth: usize) -> Refine12Config {
    let mut c = Refine12Config::quick();
    c.policy = policy;
    c.limits.max_depth = depth;
    c
}

#[test]
fn courses_transitions_are_consistent_under_both_policies() {
    let full = courses::courses(&courses::CoursesConfig::default()).unwrap();
    for policy in [AccessibilityPolicy::AsIs, AccessibilityPolicy::TransitiveClosure] {
        let report = check_refinement_1_2_budget(
            &full.information,
            &full.functions,
            &full.interp_i,
            full.info_signature(),
            &full.info_domains,
            config_with(policy, 6),
            &Budget::unlimited(),
            1,
        )
        .unwrap();
        assert!(
            report.transition_violations.is_empty(),
            "{policy:?}: {:?}",
            report.transition_violations
        );
    }
}

#[test]
fn library_transitions_are_consistent() {
    let full = library::library(&library::LibraryConfig::default()).unwrap();
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        config_with(AccessibilityPolicy::AsIs, 8),
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    assert!(report.transition_violations.is_empty(), "{:?}", report.transition_violations);
}

#[test]
fn bank_closed_accounts_stay_closed() {
    let full = bank::bank(&bank::BankConfig::default()).unwrap();
    let report = check_refinement_1_2_budget(
        &full.information,
        &full.functions,
        &full.interp_i,
        full.info_signature(),
        &full.info_domains,
        config_with(AccessibilityPolicy::AsIs, 8),
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    assert!(report.transition_violations.is_empty(), "{:?}", report.transition_violations);
}

/// Failure injection: add a `drop_course` update that deletes an enrolment
/// unconditionally. A student's course count can then fall to zero, and the
/// §3.2 transition constraint catches it with a witness trace.
#[test]
fn unguarded_drop_violates_the_transition_axiom() {
    let config = courses::CoursesConfig::default();
    let theory = courses::information_level().unwrap();
    let full = courses::courses(&config).unwrap();

    let mut a = courses::functions_signature(&config).unwrap();
    let student = a.logic().sort_id("student").unwrap();
    let course = a.logic().sort_id("course").unwrap();
    a.add_update("drop_course", &[student, course], true).unwrap();
    let mut eqs: Vec<ConditionalEquation> =
        eclectic::algebraic::parse_equations(&mut a, courses::PAPER_EQUATIONS).unwrap();
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut a,
            "drop1",
            "takes(s, c, drop_course(s, c, U)) = False",
        )
        .unwrap(),
    );
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut a,
            "drop2",
            "~(s = s' & c = c') ==> takes(s, c, drop_course(s', c', U)) = takes(s, c, U)",
        )
        .unwrap(),
    );
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut a,
            "drop3",
            "offered(c, drop_course(s, c', U)) = offered(c, U)",
        )
        .unwrap(),
    );
    let broken = AlgSpec::new(a, eqs).unwrap();
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
        config_with(AccessibilityPolicy::AsIs, 5),
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    // Static consistency still holds (dropping preserves takes ⟹ offered)…
    assert!(report.static_violations.is_empty());
    // …but the temporal axiom fails.
    assert!(!report.transition_violations.is_empty());
    assert!(report
        .transition_violations
        .iter()
        .all(|v| v.axiom == "transition-2"));
}
