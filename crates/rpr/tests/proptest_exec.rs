//! Property tests on the representation level: execution determinism,
//! operational/denotational agreement on random programs, desugaring
//! preserves meaning, and the paper schema's procedures preserve the static
//! constraint from consistent states.
//!
//! Requires the `proptest` feature (and the `proptest` dev-dependency to be
//! restored); the suite is gated so fully-offline builds resolve.
#![cfg(feature = "proptest")]

use std::sync::Arc;

use eclectic_logic::{Domains, Elem, Formula, Signature, Term, Valuation};
use eclectic_rpr::{denote, exec, parse_schema, DbState, FiniteUniverse, Schema, Stmt,
    PAPER_COURSES_SCHEMA};
use proptest::prelude::*;

fn paper_schema() -> (Schema, DbState) {
    let mut sig = Signature::new();
    sig.add_sort("student").unwrap();
    sig.add_sort("course").unwrap();
    let (rels, procs) = parse_schema(&mut sig, PAPER_COURSES_SCHEMA).unwrap();
    let dom = Domains::from_names(
        &sig,
        &[("student", &["ana", "bob"]), ("course", &["db", "ai"])],
    )
    .unwrap();
    let sig = Arc::new(sig);
    let schema = Schema::new(sig.clone(), rels, procs).unwrap();
    (schema, DbState::new(sig, Arc::new(dom)))
}

/// Decode a byte into a procedure call on the paper schema.
fn decode_call(b: u8) -> (&'static str, Vec<Elem>) {
    let s = Elem(u32::from(b >> 2) & 1);
    let c = Elem(u32::from(b >> 1) & 1);
    let c2 = Elem(u32::from(b) & 1);
    match b % 5 {
        0 => ("offer", vec![c]),
        1 => ("cancel", vec![c]),
        2 => ("enroll", vec![s, c]),
        3 => ("transfer", vec![s, c, c2]),
        _ => ("offer", vec![c2]),
    }
}

/// Random small statements over a one-relation signature (for exec/denote
/// agreement).
fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    // Signature: R(course), courses {db, ai}; variable c is the tuple var.
    let mut sig = Signature::new();
    let course = sig.add_sort("course").unwrap();
    let r = sig.add_db_predicate("R", &[course]).unwrap();
    let cv = sig.add_var("c", course).unwrap();
    let db = sig.add_constant("k0", course).unwrap();
    let ai = sig.add_constant("k1", course).unwrap();
    let _ = ai;

    let some = Formula::exists(cv, Formula::Pred(r, vec![Term::Var(cv)]));
    let none = some.clone().not();
    let atom_tests = prop_oneof![
        Just(Stmt::Skip),
        Just(Stmt::Test(some.clone())),
        Just(Stmt::Test(none)),
        Just(Stmt::Insert(r, vec![Term::constant(db)])),
        Just(Stmt::Delete(r, vec![Term::constant(db)])),
        Just(Stmt::RelAssign(
            r,
            eclectic_rpr::RelTerm {
                vars: vec![cv],
                wff: Formula::False,
            }
        )),
        Just(Stmt::RelAssign(
            r,
            eclectic_rpr::RelTerm {
                vars: vec![cv],
                wff: Formula::Pred(r, vec![Term::Var(cv)]).not(),
            }
        )),
    ];
    atom_tests.prop_recursive(3, 24, 2, move |inner| {
        let some = some.clone();
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.seq(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            inner.clone().prop_map(Stmt::star),
            (inner.clone(), inner.clone())
                .prop_map(move |(a, b)| Stmt::IfThenElse(some.clone(), Box::new(a), Box::new(b))),
        ]
    })
}

fn tiny_universe() -> FiniteUniverse {
    let mut sig = Signature::new();
    let course = sig.add_sort("course").unwrap();
    let r = sig.add_db_predicate("R", &[course]).unwrap();
    sig.add_var("c", course).unwrap();
    sig.add_constant("k0", course).unwrap();
    sig.add_constant("k1", course).unwrap();
    let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
    let sig = Arc::new(sig);
    let mut template = DbState::new(sig.clone(), Arc::new(dom));
    template
        .set_scalar(sig.func_id("k0").unwrap(), Elem(0))
        .unwrap();
    template
        .set_scalar(sig.func_id("k1").unwrap(), Elem(1))
        .unwrap();
    FiniteUniverse::enumerate(&template, &[r], &[], 64).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Deterministic procedures have exactly one outcome from any state.
    #[test]
    fn paper_procedures_are_deterministic(codes in proptest::collection::vec(any::<u8>(), 0..30)) {
        let (schema, s0) = paper_schema();
        let mut st = exec::call_deterministic(&schema, &s0, "initiate", &[]).unwrap();
        for b in codes {
            let (name, args) = decode_call(b);
            let outcomes = exec::call(&schema, &st, name, &args).unwrap();
            prop_assert_eq!(outcomes.len(), 1);
            st = outcomes.into_iter().next().unwrap();
        }
    }

    /// The §3.2 static constraint is preserved by every random call
    /// sequence starting from `initiate`.
    #[test]
    fn static_constraint_is_invariant(codes in proptest::collection::vec(any::<u8>(), 0..40)) {
        let (schema, s0) = paper_schema();
        let sig = schema.signature().clone();
        let takes = sig.pred_id("TAKES").unwrap();
        let offered = sig.pred_id("OFFERED").unwrap();
        let mut st = exec::call_deterministic(&schema, &s0, "initiate", &[]).unwrap();
        for b in codes {
            let (name, args) = decode_call(b);
            st = exec::call_deterministic(&schema, &st, name, &args).unwrap();
            for s in 0..2u32 {
                for c in 0..2u32 {
                    if st.contains(takes, &[Elem(s), Elem(c)]) {
                        prop_assert!(st.contains(offered, &[Elem(c)]));
                    }
                }
            }
        }
    }

    /// m(p) computed denotationally agrees pointwise with `run` on random
    /// programs, and with the desugared core form.
    #[test]
    fn denotation_exec_and_desugar_agree(p in stmt_strategy()) {
        // Rebuild the strategy's signature (identical construction, so ids
        // align), desugar against it — desugaring mints fresh variables that
        // must exist in the signature the universe's states carry.
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let r = sig.add_db_predicate("R", &[course]).unwrap();
        sig.add_var("c", course).unwrap();
        sig.add_constant("k0", course).unwrap();
        sig.add_constant("k1", course).unwrap();
        let core = p.desugar(&mut sig);

        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        let sig = Arc::new(sig);
        let mut template = DbState::new(sig.clone(), Arc::new(dom));
        template.set_scalar(sig.func_id("k0").unwrap(), Elem(0)).unwrap();
        template.set_scalar(sig.func_id("k1").unwrap(), Elem(1)).unwrap();
        let u = FiniteUniverse::enumerate(&template, &[r], &[], 64).unwrap();

        let env = Valuation::new();
        let m = denote::meaning(&u, &p, &env).unwrap();
        for i in 0..u.len() {
            let direct: std::collections::BTreeSet<usize> = exec::run(&u.state(i), &p, &env)
                .unwrap()
                .into_iter()
                .map(|s| u.index_or_err(&s).unwrap())
                .collect();
            prop_assert_eq!(m.image(i), direct, "program {:?} at state {}", p, i);
        }
        // Desugared form has the same meaning (fresh vars only).
        let m2 = denote::meaning(&u, &core, &env).unwrap();
        prop_assert_eq!(m, m2);
    }

    /// Kleene laws on meanings: m(p* ) = m(p)* is a closure — idempotent,
    /// reflexive, and absorbing p.
    #[test]
    fn star_is_a_closure(p in stmt_strategy()) {
        let u = tiny_universe();
        let env = Valuation::new();
        let n = u.len();
        let m = denote::meaning(&u, &p, &env).unwrap();
        let star = m.star(n);
        // reflexive
        for i in 0..n {
            prop_assert!(star.contains(i, i));
        }
        // absorbs m
        prop_assert_eq!(star.union(&m), star.clone());
        // idempotent
        prop_assert_eq!(star.star(n), star.clone());
        // compose with itself stays inside
        prop_assert_eq!(star.compose(&star), star);
    }

    /// Query evaluation through wffs agrees with direct table lookup.
    #[test]
    fn wff_queries_agree_with_tables(codes in proptest::collection::vec(any::<u8>(), 0..20)) {
        let (schema, s0) = paper_schema();
        let sig = schema.signature().clone();
        let takes = sig.pred_id("TAKES").unwrap();
        let sv = sig.var_id("s").unwrap();
        let cv = sig.var_id("c").unwrap();
        let q = eclectic_rpr::QueryDef::new(
            &sig,
            "takes",
            vec![sv, cv],
            Formula::Pred(takes, vec![Term::Var(sv), Term::Var(cv)]),
        )
        .unwrap();
        let mut st = exec::call_deterministic(&schema, &s0, "initiate", &[]).unwrap();
        for b in codes {
            let (name, args) = decode_call(b);
            st = exec::call_deterministic(&schema, &st, name, &args).unwrap();
        }
        for s in 0..2u32 {
            for c in 0..2u32 {
                let via_wff = q.eval(&st, &[Elem(s), Elem(c)]).unwrap();
                let via_table = st.contains(takes, &[Elem(s), Elem(c)]);
                prop_assert_eq!(via_wff, via_table);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The schema parser never panics on arbitrary input.
    #[test]
    fn schema_parser_never_panics(input in ".{0,80}") {
        let mut sig = Signature::new();
        sig.add_sort("course").unwrap();
        let _ = parse_schema(&mut sig, &input);
    }

    /// Statement-language soup is handled gracefully too.
    #[test]
    fn stmt_parser_never_panics(input in "[a-zA-Z();:=\\[\\]{}|?*,. -]{0,60}") {
        let mut sig = Signature::new();
        sig.add_sort("course").unwrap();
        sig.add_db_predicate("R", &[sig.sort_id("course").unwrap()]).unwrap();
        let _ = eclectic_rpr::parse_stmt(&mut sig, &input);
    }
}
