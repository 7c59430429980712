//! E11 (§5.3 note): the paper defers extending `K` to arbitrary wffs to "a
//! full programming logic, such as Dynamic Logic (a separate paper will
//! explore this possibility)". This implementation provides that extension:
//! PDL over RPR programs, model-checked over finite universes — here used
//! to state and verify contracts of the courses procedures.

use std::sync::Arc;

use eclectic::logic::{Elem, Formula, Signature, Term, Valuation};
use eclectic::refine::check_dynamic_budget;
use eclectic::rpr::pdl::{holds_at, satisfying_states, valid, Pdl};
use eclectic::rpr::{
    check_batch_budget_with, parse_schema, DbState, DenoteCache, FiniteUniverse, Schema, Stmt,
    PAPER_COURSES_SCHEMA,
};
use eclectic::spec::domains::{bank, BankConfig};
use eclectic_kernel::{force_rel_backend, Budget, BudgetExceeded, RelChoice};

fn setup() -> (Schema, FiniteUniverse) {
    let mut sig = Signature::new();
    sig.add_sort("student").unwrap();
    sig.add_sort("course").unwrap();
    let (rels, procs) = parse_schema(&mut sig, PAPER_COURSES_SCHEMA).unwrap();
    let dom = eclectic::logic::Domains::from_names(
        &sig,
        &[("student", &["ana"]), ("course", &["db", "logic"])],
    )
    .unwrap();
    let sig = Arc::new(sig);
    let schema = Schema::new(sig.clone(), rels, procs).unwrap();
    let template = DbState::new(sig, Arc::new(dom));
    let offered = schema.signature().pred_id("OFFERED").unwrap();
    let takes = schema.signature().pred_id("TAKES").unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered, takes], &[], 1 << 12).unwrap();
    (schema, u)
}

/// The §3.2 static constraint as a closed wff of L3.
fn static_constraint(sig: &Signature) -> Formula {
    let offered = sig.pred_id("OFFERED").unwrap();
    let takes = sig.pred_id("TAKES").unwrap();
    let sv = sig.var_id("s").unwrap();
    let cv = sig.var_id("c").unwrap();
    Formula::forall(
        sv,
        Formula::forall(
            cv,
            Formula::Pred(takes, vec![Term::Var(sv), Term::Var(cv)])
                .implies(Formula::Pred(offered, vec![Term::Var(cv)])),
        ),
    )
}

#[test]
fn initiate_contracts_hold() {
    let (schema, u) = setup();
    let sig = schema.signature().clone();
    let offered = sig.pred_id("OFFERED").unwrap();
    let cv = sig.var_id("c").unwrap();
    let initiate = schema.proc("initiate").unwrap().body.clone();

    // [initiate] ∀c ¬OFFERED(c): after initialisation nothing is offered.
    let none_offered = Formula::forall(cv, Formula::Pred(offered, vec![Term::Var(cv)]).not());
    assert!(valid(&u, &Pdl::after_all(initiate.clone(), Pdl::Atom(none_offered))).unwrap());

    // ⟨initiate⟩ true: initiate never gets stuck.
    assert!(valid(&u, &Pdl::after_some(initiate.clone(), Pdl::Atom(Formula::True))).unwrap());

    // [initiate] static-constraint: the empty state is consistent.
    assert!(valid(&u, &Pdl::after_all(initiate, Pdl::Atom(static_constraint(&sig)))).unwrap());

    // The constraint itself is satisfiable but not valid in the raw
    // universe (which contains inconsistent states by construction).
    let sat = satisfying_states(&u, &Pdl::Atom(static_constraint(&sig))).unwrap();
    assert!(sat.iter().any(|b| *b));
    assert!(!sat.iter().all(|b| *b));
}

#[test]
fn diamond_star_expresses_reachability() {
    let (schema, u) = setup();
    let sig = schema.signature().clone();
    let offered = sig.pred_id("OFFERED").unwrap();
    let cv = sig.var_id("c").unwrap();

    // ⟨OFFERED := full⟩ ∀c OFFERED(c) is valid.
    let mut sig2 = (*sig).clone();
    let fill = eclectic::rpr::parse_stmt(&mut sig2, "OFFERED := {(c: course) | true}").unwrap();
    let all_offered = Formula::forall(cv, Formula::Pred(offered, vec![Term::Var(cv)]));
    assert!(valid(&u, &Pdl::after_some(fill, Pdl::Atom(all_offered.clone()))).unwrap());

    // ⟨skip*⟩ φ ≡ φ (star of identity adds nothing).
    let phi = Pdl::after_some(Stmt::Skip.star(), Pdl::Atom(all_offered.clone()));
    let direct = Pdl::Atom(all_offered);
    assert_eq!(
        satisfying_states(&u, &phi).unwrap(),
        satisfying_states(&u, &direct).unwrap()
    );
}

#[test]
fn box_distributes_over_composition() {
    // [p; q]φ ≡ [p][q]φ — a PDL law, checked semantically.
    let (_schema, u) = setup();
    let sig = u.signature().clone();
    let offered = sig.pred_id("OFFERED").unwrap();
    let cv = sig.var_id("c").unwrap();
    let mut sig2 = (*sig).clone();
    let p = eclectic::rpr::parse_stmt(&mut sig2, "OFFERED := {(c: course) | true}").unwrap();
    let q = eclectic::rpr::parse_stmt(&mut sig2, "OFFERED := {(c: course) | false}").unwrap();
    let phi = Formula::exists(cv, Formula::Pred(offered, vec![Term::Var(cv)])).not();

    let seq_form = Pdl::after_all(p.clone().seq(q.clone()), Pdl::Atom(phi.clone()));
    let nested = Pdl::after_all(p, Pdl::after_all(q, Pdl::Atom(phi)));
    assert_eq!(
        satisfying_states(&u, &seq_form).unwrap(),
        satisfying_states(&u, &nested).unwrap()
    );
    assert!(valid(&u, &seq_form).unwrap());
    assert!(holds_at(&u, 0, &seq_form).unwrap());
}

#[test]
fn diamond_and_box_are_dual() {
    // ⟨p⟩φ ≡ ¬[p]¬φ over the whole universe.
    let (schema, u) = setup();
    let sig = schema.signature().clone();
    let offered = sig.pred_id("OFFERED").unwrap();
    let cv = sig.var_id("c").unwrap();
    let body = schema.proc("initiate").unwrap().body.clone();
    let phi = Formula::exists(cv, Formula::Pred(offered, vec![Term::Var(cv)]));

    let dia = Pdl::after_some(body.clone(), Pdl::Atom(phi.clone()));
    let dual = Pdl::after_all(body, Pdl::Atom(phi).not()).not();
    assert_eq!(
        satisfying_states(&u, &dia).unwrap(),
        satisfying_states(&u, &dual).unwrap()
    );
}

/// The bank at 2 accounts × 3 amounts, with `deposit`'s body passed through
/// `edit`.
fn bank_2x3(edit: impl Fn(Stmt) -> Stmt) -> (Schema, DbState) {
    let (schema, _, template) = bank::representation_level(&BankConfig::sized(2, 3)).unwrap();
    let mut procs = schema.procs().to_vec();
    let deposit = procs.iter_mut().find(|p| p.name == "deposit").unwrap();
    deposit.body = edit(deposit.body.clone());
    let schema = Schema::new(
        schema.signature().clone(),
        schema.relations().to_vec(),
        procs,
    );
    (schema.unwrap(), template)
}

#[test]
fn a_bare_guard_test_fails_dynamic_totality() {
    // `if c then p fi` skips when `c` fails; `c? ; p` is stuck there, so the
    // dynamic stage must report `deposit` as not total at both accounts.
    let (schema, template) = bank_2x3(|body| match body {
        Stmt::IfThen(c, p) => Stmt::Test(c).seq(*p),
        other => panic!("deposit is no longer `if c then p fi`: {other:?}"),
    });
    let report =
        check_dynamic_budget(&schema, &template, 1 << 12, &Budget::unlimited(), 1).unwrap();
    assert_eq!(report.universe_states, 1 << 10);
    assert_eq!(report.checked, 9);
    assert!(
        report.unchecked_procs.is_empty(),
        "{:?}",
        report.unchecked_procs
    );
    let failures: Vec<_> = report
        .failures
        .iter()
        .map(|f| (f.proc.as_str(), f.args.clone(), f.reason.as_str()))
        .collect();
    let not_total = "not total: some state has no successor";
    assert_eq!(
        failures,
        [
            ("deposit", vec![Elem(0)], not_total),
            ("deposit", vec![Elem(1)], not_total)
        ]
    );

    let (schema, template) = bank_2x3(|body| body);
    let report =
        check_dynamic_budget(&schema, &template, 1 << 12, &Budget::unlimited(), 1).unwrap();
    assert_eq!(report.checked, 9);
    assert!(report.is_correct(), "{:?}", report.failures);
}

/// A one-course universe and a batch with three distinct programs to
/// denote (`insert`, `skip`, `insert ; skip`) and four formulas to judge.
fn pdl_fixture() -> (FiniteUniverse, Vec<Pdl>) {
    let mut sig = Signature::new();
    let course = sig.add_sort("course").unwrap();
    let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
    let x = sig.add_constant("x", course).unwrap();
    let dom = eclectic::logic::Domains::from_names(&sig, &[("course", &["db"])]).unwrap();
    let sig = Arc::new(sig);
    let mut template = DbState::new(sig, Arc::new(dom));
    template.set_scalar(x, Elem(0)).unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered], &[x], 100).unwrap();
    let insert = Stmt::Insert(offered, vec![Term::constant(x)]);
    let atom = Pdl::Atom(Formula::Pred(offered, vec![Term::constant(x)]));
    let formulas = vec![
        Pdl::after_all(insert.clone(), atom.clone()),
        Pdl::after_some(insert.clone(), atom.clone()),
        Pdl::after_all(Stmt::Skip, atom.clone()),
        Pdl::after_all(insert.seq(Stmt::Skip), atom),
    ];
    (u, formulas)
}

/// The batch checker counts units (programs denoted, then formulas judged)
/// against the node cap on every relation backend: cap 2 trips during the
/// denotation phase and leaves no verdict; cap 5 trips after two formulas
/// (units 3 + j) and keeps their verdicts.
#[test]
fn unit_capped_pdl_batch_keeps_the_verdict_prefix_on_every_backend() {
    let (u, formulas) = pdl_fixture();
    for backend in [RelChoice::Dense, RelChoice::Sparse, RelChoice::Compressed] {
        let _g = force_rel_backend(backend);
        for (cap, verdicts) in [(2, 0), (5, 2)] {
            let mut cache = DenoteCache::new();
            let budget = Budget::unlimited().with_max_nodes(cap);
            let report =
                check_batch_budget_with(&formulas, &u, &Valuation::new(), &mut cache, &budget)
                    .unwrap();
            let e = report.exhausted.expect("cap must trip");
            assert_eq!((e.stage, e.completed_units), ("pdl", cap), "{backend:?}");
            assert_eq!(report.valid.len(), verdicts, "{backend:?}, cap {cap}");
            assert_eq!(report.satisfying.len(), verdicts, "{backend:?}, cap {cap}");
            for (k, phi) in formulas.iter().take(verdicts).enumerate() {
                assert_eq!(report.valid[k], valid(&u, phi).unwrap(), "{backend:?}, formula {k}");
            }
        }
    }
}

/// A star modality denotes `m(p*)` like any other program, so its closure
/// is charged to the relation-memory axis: on a 128-state universe (one
/// predicate over 7 courses, `x` pinned) a one-byte cap trips while the
/// batch denotes `insert(x)*`, before any verdict, on every backend.
#[test]
fn a_star_modality_trips_the_relation_memory_cap_on_every_backend() {
    let mut sig = Signature::new();
    let course = sig.add_sort("course").unwrap();
    let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
    let x = sig.add_constant("x", course).unwrap();
    let courses = ["c0", "c1", "c2", "c3", "c4", "c5", "c6"];
    let dom = eclectic::logic::Domains::from_names(&sig, &[("course", &courses)]).unwrap();
    let mut template = DbState::new(Arc::new(sig), Arc::new(dom));
    template.set_scalar(x, Elem(0)).unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered], &[], 1 << 7).unwrap();
    assert_eq!(u.len(), 128);
    let insert = Stmt::Insert(offered, vec![Term::constant(x)]);
    let atom = Pdl::Atom(Formula::Pred(offered, vec![Term::constant(x)]));
    let batch = [Pdl::after_some(insert.star(), atom)];
    for backend in [RelChoice::Dense, RelChoice::Sparse, RelChoice::Compressed] {
        let _g = force_rel_backend(backend);
        let mut cache = DenoteCache::new();
        let budget = Budget::unlimited().with_max_rel_entries(1);
        let report =
            check_batch_budget_with(&batch, &u, &Valuation::new(), &mut cache, &budget).unwrap();
        let e = report
            .exhausted
            .expect("the closure must trip the relation-memory cap");
        assert_eq!(e.reason, BudgetExceeded::RelMemory, "{backend:?}");
        assert!(report.valid.is_empty(), "{backend:?}");
        assert!(report.satisfying.is_empty(), "{backend:?}");
    }
}
