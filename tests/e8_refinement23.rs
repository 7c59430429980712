//! E8 (§5.4): the representation level correctly refines the functions
//! level — every equation of `A2` is valid in the induced algebra `N(U)`,
//! checked by bounded induction on trace length; includes the paper's
//! equation-6 case analysis and failure injection (a procedure that skips
//! its precondition).

use std::sync::Arc;

use eclectic::logic::{Elem, Formula, Term};
use eclectic::refine::{check_equations_budget, InducedAlgebra, InterpretationK, QueryImpl};
use eclectic::rpr::{exec, parse_schema, QueryDef, Schema};
use eclectic::spec::domains::{bank, courses, library};
use eclectic_kernel::Budget;

#[test]
fn courses_schema_satisfies_all_16_equations() {
    let full = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let mut ind = InducedAlgebra::new(
        &full.functions,
        &full.representation,
        &full.interp_k,
        full.empty_state(),
    )
    .unwrap();
    // Depth 7 exhausts the reachable state space (25 states, deepest at 6,
    // re-expanded once), making the §5.4 induction conclusive.
    let report = check_equations_budget(&mut ind, 7, 2_000, 20, &Budget::unlimited()).unwrap();
    assert!(report.is_correct(), "{:?}", report.failures);
    assert!(report.instances > 1_000, "exercised {} instances", report.instances);
    assert!(!report.truncated);
    assert_eq!(report.states, 25);
}

#[test]
fn library_derived_schema_satisfies_its_synthesized_equations() {
    let full = library::library(&library::LibraryConfig::default()).unwrap();
    let mut ind = InducedAlgebra::new(
        &full.functions,
        &full.representation,
        &full.interp_k,
        full.empty_state(),
    )
    .unwrap();
    let report = check_equations_budget(&mut ind, 3, 2_000, 20, &Budget::unlimited()).unwrap();
    assert!(report.is_correct(), "{:?}", report.failures);
}

#[test]
fn bank_schema_satisfies_its_equations() {
    let full = bank::bank(&bank::BankConfig::default()).unwrap();
    let mut ind = InducedAlgebra::new(
        &full.functions,
        &full.representation,
        &full.interp_k,
        full.empty_state(),
    )
    .unwrap();
    let report = check_equations_budget(&mut ind, 3, 2_000, 20, &Budget::unlimited()).unwrap();
    assert!(report.is_correct(), "{:?}", report.failures);
}

/// The paper's §5.4 worked case: equation 6 for `cancel`. We single it out
/// and check it across every reachable database state directly.
#[test]
fn equation_6_case_analysis() {
    let full = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let schema = &full.representation;
    let sig = schema.signature().clone();
    let offered = sig.pred_id("OFFERED").unwrap();
    let takes = sig.pred_id("TAKES").unwrap();

    // Enumerate reachable states by replaying all length-≤3 call sequences.
    let s0 = exec::call_deterministic(schema, &full.empty_state(), "initiate", &[]).unwrap();
    let mut states = vec![s0];
    let calls: Vec<(&str, Vec<Elem>)> = vec![
        ("offer", vec![Elem(0)]),
        ("offer", vec![Elem(1)]),
        ("cancel", vec![Elem(0)]),
        ("enroll", vec![Elem(0), Elem(0)]),
        ("enroll", vec![Elem(1), Elem(1)]),
        ("transfer", vec![Elem(0), Elem(0), Elem(1)]),
    ];
    for _ in 0..3 {
        let mut next = Vec::new();
        for st in &states {
            for (p, args) in &calls {
                next.push(exec::call_deterministic(schema, st, p, args).unwrap());
            }
        }
        states.extend(next);
        states.sort();
        states.dedup();
    }

    // Equation 6: offered(c, cancel(c, σ)) = True ⟺ ∃s takes(s, c, σ).
    let mut cases_with_taker = 0;
    let mut cases_without = 0;
    for st in &states {
        for c in [Elem(0), Elem(1)] {
            let after = exec::call_deterministic(schema, st, "cancel", &[c]).unwrap();
            let lhs = after.contains(offered, &[c]);
            let someone = (0..2).any(|s| st.contains(takes, &[Elem(s), c]));
            // Case 2 of the paper needs the static constraint: a taker
            // implies the course was offered, so cancel leaves it offered.
            assert_eq!(lhs, someone && st.contains(offered, &[c]));
            if someone {
                cases_with_taker += 1;
            } else {
                cases_without += 1;
            }
        }
    }
    assert!(cases_with_taker > 0 && cases_without > 0);
}

/// Failure injection: a cancel that ignores its precondition. The equation
/// check localises the failure to equation 6a with a concrete state and
/// assignment.
#[test]
fn unguarded_cancel_fails_equation_6a() {
    let config = courses::CoursesConfig::default();
    let full = courses::courses(&config).unwrap();

    // Broken schema: cancel deletes unconditionally.
    let mut sig = eclectic::logic::Signature::new();
    sig.add_sort("student").unwrap();
    sig.add_sort("course").unwrap();
    let (rels, mut procs) = parse_schema(&mut sig, eclectic::rpr::PAPER_COURSES_SCHEMA).unwrap();
    let offered_rel = sig.pred_id("OFFERED").unwrap();
    let c = sig.var_id("c").unwrap();
    let cancel = procs.iter_mut().find(|p| p.name == "cancel").unwrap();
    cancel.body = eclectic::rpr::Stmt::Delete(offered_rel, vec![Term::Var(c)]);
    let sig = Arc::new(sig);
    let broken = Schema::new(sig.clone(), rels, procs).unwrap();

    let s = sig.var_id("s").unwrap();
    let takes_rel = sig.pred_id("TAKES").unwrap();
    let q_offered = QueryDef::new(
        &sig,
        "offered",
        vec![c],
        Formula::Pred(offered_rel, vec![Term::Var(c)]),
    )
    .unwrap();
    let q_takes = QueryDef::new(
        &sig,
        "takes",
        vec![s, c],
        Formula::Pred(takes_rel, vec![Term::Var(s), Term::Var(c)]),
    )
    .unwrap();
    let k = InterpretationK::new(
        &full.functions,
        &broken,
        vec![
            ("offered", QueryImpl::Bool(q_offered)),
            ("takes", QueryImpl::Bool(q_takes)),
        ],
        &[
            ("initiate", "initiate"),
            ("offer", "offer"),
            ("cancel", "cancel"),
            ("enroll", "enroll"),
            ("transfer", "transfer"),
        ],
    )
    .unwrap();

    let template = eclectic::rpr::DbState::new(sig, full.repr_domains.clone());
    let mut ind = InducedAlgebra::new(&full.functions, &broken, &k, template).unwrap();
    let report = check_equations_budget(&mut ind, 3, 2_000, 50, &Budget::unlimited()).unwrap();
    assert!(!report.is_correct());
    assert!(
        report.failures.iter().any(|f| f.equation == "eq6a"),
        "{:?}",
        report.failures.iter().map(|f| &f.equation).collect::<Vec<_>>()
    );
}

/// A node cap of 4 stops the RPR reachability BFS at a level boundary: the
/// states it returns are a prefix of the uncapped state order, flagged as
/// truncated, with the exhaustion recorded against the `reach` stage.
#[test]
fn node_capped_reachability_returns_a_prefix_of_the_state_order() {
    let domains = [
        (
            "courses",
            courses::courses(&courses::CoursesConfig::default()).unwrap(),
            6,
        ),
        (
            "library",
            library::library(&library::LibraryConfig::default()).unwrap(),
            6,
        ),
        ("bank", bank::bank(&bank::BankConfig::default()).unwrap(), 8),
    ];
    for (name, full, depth) in &domains {
        let mut ind = InducedAlgebra::new(
            &full.functions,
            &full.representation,
            &full.interp_k,
            full.empty_state(),
        )
        .unwrap();
        let (all, _, none) = ind
            .reachable_states_budget(*depth, 10_000, &Budget::unlimited())
            .unwrap();
        assert!(none.is_none(), "{name}: the uncapped run must complete");
        let capped = Budget::unlimited().with_max_nodes(4);
        let (prefix, truncated, exhausted) = ind
            .reachable_states_budget(*depth, 10_000, &capped)
            .unwrap();
        assert!(truncated, "{name}: cap 4 must truncate");
        assert_eq!(exhausted.expect(name).stage, "reach", "{name}");
        assert!(
            prefix.len() < all.len(),
            "{name}: cap 4 must cut the search"
        );
        assert_eq!(prefix[..], all[..prefix.len()], "{name}: not a prefix");
    }
}
