//! E3 (§4.4a): sufficient completeness — termination (absence of
//! circularity) plus exhaustive ground-query evaluation — for every domain,
//! with failure injection showing the analyses catch broken specs.

use eclectic::algebraic::completeness::{CompletenessReport, StuckTerm};
use eclectic::algebraic::{
    completeness, induction, parse_equations, term_str, termination, AlgError, AlgSignature,
    AlgSpec, ConditionalEquation, Rewriter,
};
use eclectic::logic::Term;
use eclectic::spec::domains::{bank, courses, library};
use eclectic_kernel::{force_worker_cap, Budget};

fn check_spec(spec: &AlgSpec, depth: usize) {
    let t = termination::check_termination(spec).unwrap();
    assert!(t.is_terminating(), "{t:?}");
    let c = completeness::exhaustive_budget(spec, depth, 10, &Budget::unlimited(), 1).unwrap();
    assert!(c.is_sufficiently_complete(), "{c:?}");
    assert!(c.evaluated > 0);
}

#[test]
fn courses_paper_equations_are_sufficiently_complete() {
    let spec = courses::functions_level(&courses::CoursesConfig::default()).unwrap();
    check_spec(&spec, 3);
}

#[test]
fn courses_synthesized_equations_are_sufficiently_complete() {
    let spec = courses::functions_level(&courses::CoursesConfig {
        style: courses::EquationStyle::Synthesized,
        ..courses::CoursesConfig::default()
    })
    .unwrap();
    check_spec(&spec, 3);
}

#[test]
fn library_equations_are_sufficiently_complete() {
    let spec = library::functions_level(&library::LibraryConfig::default()).unwrap();
    check_spec(&spec, 2);
}

#[test]
fn bank_equations_are_sufficiently_complete() {
    let spec = bank::functions_level(&bank::BankConfig::default()).unwrap();
    check_spec(&spec, 2);
}

/// The paper's courses equations without the one named `name`. Without eq7
/// (offered under cancel of another course), those ground queries are stuck.
fn courses_without(name: &str) -> AlgSpec {
    let full = courses::functions_level(&courses::CoursesConfig::default()).unwrap();
    let eqs: Vec<ConditionalEquation> = full
        .equations()
        .iter()
        .filter(|e| e.name != name)
        .cloned()
        .collect();
    AlgSpec::new((**full.signature()).clone(), eqs).unwrap()
}

/// Failure injection: removing an equation breaks completeness, and the
/// exhaustive pass pinpoints the stuck terms.
#[test]
fn dropping_an_equation_is_detected() {
    let broken = courses_without("eq7");
    let report = completeness::exhaustive_budget(&broken, 2, 50, &Budget::unlimited(), 1).unwrap();
    assert!(!report.is_sufficiently_complete());
    assert!(
        report.stuck.iter().any(|s| s.term.contains("cancel")),
        "{report:?}"
    );
    // The coverage pass alone cannot see it (cancel still has eq6a/eq6b).
    assert!(completeness::coverage(&broken).unwrap().is_empty());
}

/// Failure injection: the paper's circularity warning, made concrete.
#[test]
fn circular_equations_are_detected() {
    let full = courses::functions_level(&courses::CoursesConfig::default()).unwrap();
    let mut sig = (**full.signature()).clone();
    let mut eqs: Vec<ConditionalEquation> = full.equations().to_vec();
    // "some other equation might reduce the problem of determining
    //  takes(s,c,σ) to that of determining offered(c,σ), thereby creating a
    //  circularity" — make offered-at-cancel depend on takes at the SAME
    //  state and takes-at-cancel depend back on offered at the SAME state.
    eqs.retain(|e| e.name != "eq6a" && e.name != "eq6b" && e.name != "eq8");
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut sig,
            "bad6",
            "exists s:student. takes(s, c, cancel(c, U)) = True ==> offered(c, cancel(c, U)) = True",
        )
        .unwrap(),
    );
    eqs.push(
        eclectic::algebraic::parse_equation(
            &mut sig,
            "bad8",
            "offered(c', cancel(c', U)) = True ==> takes(s, c, cancel(c', U)) = takes(s, c, U)",
        )
        .unwrap(),
    );
    let broken = AlgSpec::new(sig, eqs).unwrap();
    let report = termination::check_termination(&broken).unwrap();
    assert!(!report.is_terminating());
    let cycle = report.cycle.expect("cycle found");
    assert!(cycle.contains(&"offered".to_string()) && cycle.contains(&"takes".to_string()));
}

/// The exhaustive pass's contract, read independently at the tree level:
/// every query applied to each of its parameter tuples over every state term
/// in depth order, normalised with [`Rewriter::normalize`] and rendered with
/// [`term_str`], stopping once `max_failures` (≥ 1) instances are stuck or
/// at the first rewriting error other than fuel exhaustion and an undecided
/// condition (both count as stuck instances).
fn reference(
    spec: &AlgSpec,
    depth: usize,
    max_failures: usize,
) -> Result<CompletenessReport, String> {
    let sig = spec.signature();
    let mut rw = Rewriter::new(spec);
    let mut report = CompletenessReport {
        missing: completeness::coverage(spec).unwrap(),
        ..CompletenessReport::default()
    };
    for st in induction::state_terms(sig, depth).unwrap() {
        for q in sig.queries() {
            let sorts = sig.query_params(q).unwrap();
            for mut args in induction::param_tuples(sig, &sorts).unwrap() {
                args.push(st.clone());
                let t = Term::App(q, args);
                let normal_form = match rw.normalize(&t) {
                    Ok(n) if sig.is_param_name(&n) => None,
                    Ok(n) => Some(term_str(sig, &n)),
                    Err(AlgError::RewriteLimit { at, .. }) => {
                        Some(format!("<fuel exhausted at {at}>"))
                    }
                    Err(AlgError::ConditionUndecided { term }) => {
                        Some(format!("<condition undecided: {term}>"))
                    }
                    Err(e) => return Err(e.to_string()),
                };
                report.evaluated += 1;
                if let Some(normal_form) = normal_form {
                    let term = term_str(sig, &t);
                    report.stuck.push(StuckTerm { term, normal_form });
                    if report.stuck.len() >= max_failures {
                        return Ok(report);
                    }
                }
            }
        }
    }
    Ok(report)
}

/// The sweep agrees with the tree-level reference on a spec with stuck
/// terms, at every worker count and failure cap: the same stuck terms in the
/// same order, the same `evaluated` and the same coverage gaps — at depth 3
/// too, where some instances are stuck on a condition that cannot be
/// decided.
#[test]
fn exhaustive_pass_matches_a_tree_level_reference() {
    // Lift the host-core cap so 2 and 4 workers run the parallel strips
    // even on a single-core host.
    let _cap = force_worker_cap(usize::MAX);
    let broken = courses_without("eq7");
    for depth in [2, 3] {
        for max_failures in [1, 5, 1000] {
            let want = reference(&broken, depth, max_failures);
            if depth == 2 {
                assert!(!want.as_ref().unwrap().stuck.is_empty());
            }
            for threads in [1, 2, 4] {
                let got = completeness::exhaustive_budget(
                    &broken,
                    depth,
                    max_failures,
                    &Budget::unlimited(),
                    threads,
                )
                .map_err(|e| e.to_string());
                assert_eq!(
                    got, want,
                    "depth {depth}, max_failures {max_failures}, {threads} workers"
                );
            }
        }
    }
}

/// A guard whose side is stuck is a stuck instance of the sweep, not an
/// error that drops the stuck instances found before it: without eq2
/// (`takes` at `initiate`) or eq5 (`takes` at `offer`), eq6a's guard cannot
/// be decided on some `cancel` states.
#[test]
fn an_undecidable_guard_is_a_stuck_instance() {
    for (dropped, term, guard) in [
        (
            "eq2",
            "offered(db, cancel(db, initiate))",
            "takes(ana, db, initiate)",
        ),
        (
            "eq5",
            "offered(db, cancel(db, offer(db, initiate)))",
            "takes(ana, db, offer(db, initiate))",
        ),
    ] {
        let broken = courses_without(dropped);
        let undecided = StuckTerm {
            term: term.to_string(),
            normal_form: format!("<condition undecided: {guard}>"),
        };
        for depth in [2, 3] {
            let report =
                completeness::exhaustive_budget(&broken, depth, 20, &Budget::unlimited(), 1)
                    .unwrap_or_else(|e| panic!("without {dropped}, depth {depth}: {e}"));
            assert_eq!(report.stuck.len(), 20, "without {dropped}, depth {depth}");
            assert!(
                report.stuck.contains(&undecided),
                "without {dropped}, depth {depth}: {report:?}"
            );
            assert_eq!(report, reference(&broken, depth, 20).unwrap());
        }
    }
}

/// A signature with `initiate`/`offer(course)` updates and one Boolean query
/// per entry of `queries`, `(name, over_empty_sort)`: over `course`, or over
/// the sort `nobody`, which has no parameter names. Every query gets a
/// catch-all `False` equation.
fn spec_with_queries(queries: &[(&str, bool)]) -> AlgSpec {
    let mut a = AlgSignature::new().unwrap();
    let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
    let nobody = a.add_param_sort("nobody", &[]).unwrap();
    a.add_update("initiate", &[], false).unwrap();
    a.add_update("offer", &[course], true).unwrap();
    a.add_param_var("c", course).unwrap();
    a.add_param_var("n", nobody).unwrap();
    let mut texts = Vec::new();
    for &(name, over_empty) in queries {
        a.add_query(name, &[if over_empty { nobody } else { course }], None)
            .unwrap();
        let var = if over_empty { "n" } else { "c" };
        texts.push((name, format!("{name}({var}, U) = False")));
    }
    let texts: Vec<(&str, &str)> = texts.iter().map(|(n, t)| (*n, t.as_str())).collect();
    let eqs = parse_equations(&mut a, &texts).unwrap();
    AlgSpec::new(a, eqs).unwrap()
}

/// Ground spaces with no instances for some or all queries, and depth 0:
/// the sweep returns the reference report at 1 and 2 workers.
#[test]
fn degenerate_ground_spaces_match_the_reference() {
    let _cap = force_worker_cap(usize::MAX);
    let cases = [
        ("no queries", spec_with_queries(&[])),
        (
            "only an empty carrier",
            spec_with_queries(&[("ghost", true)]),
        ),
        (
            "an empty carrier first",
            spec_with_queries(&[("ghost", true), ("offered", false)]),
        ),
        ("courses without eq7", courses_without("eq7")),
    ];
    for (name, spec) in &cases {
        for depth in [0, 2] {
            let want = reference(spec, depth, 5).unwrap();
            for threads in [1, 2] {
                let got =
                    completeness::exhaustive_budget(spec, depth, 5, &Budget::unlimited(), threads)
                        .unwrap();
                assert_eq!(got, want, "{name}, depth {depth}, {threads} workers");
            }
        }
    }
}
