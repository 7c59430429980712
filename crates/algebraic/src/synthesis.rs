//! Mechanised derivation of Q-equations from structured descriptions —
//! the paper's §4.2 methodology, "correct by construction".
//!
//! For every query `q` and update `u` with description `D` we produce
//! equations of the shape `q(p̄, u(p̄', U)) = simpler expression`:
//!
//! - **matched cases**: for each effect of `D` on `q` (later effects win on
//!   overlap), one equation per precondition outcome — if the precondition
//!   holds the query observes the effect's value, otherwise the old value;
//! - **frame case** (the *not-affected* part): with fresh query arguments
//!   guarded by disequalities against every effect's arguments, the query is
//!   unchanged;
//! - queries with no effect under `u` get an unconditional frame equation;
//! - the initial state constant gets `q(x̄, initiate) = default`.

use eclectic_logic::{Formula, FuncId, Term, VarId};

use crate::equation::ConditionalEquation;
use crate::error::{AlgError, Result};
use crate::signature::AlgSignature;
use crate::structured::{Effect, InitialState, StructuredDescription};

/// Synthesises the complete Q-equation set for the given initial state and
/// update descriptions.
///
/// Every state-taking update of the signature must have exactly one
/// description, so that the resulting system is sufficiently complete by
/// construction (each query/update pair is covered). The equations are
/// checked against the paper's restrictions by
/// [`AlgSpec::new`](crate::AlgSpec::new), like every other equation.
///
/// # Errors
/// Returns validation errors from the descriptions, or
/// [`AlgError::BadDescription`] for missing/duplicate descriptions.
pub fn synthesize(
    sig: &mut AlgSignature,
    initial: &InitialState,
    descriptions: &[StructuredDescription],
) -> Result<Vec<ConditionalEquation>> {
    initial.validate(sig)?;
    for d in descriptions {
        d.validate(sig)?;
    }
    let updates: Vec<FuncId> = sig.updates().collect();
    for u in &updates {
        if *u == initial.update {
            continue;
        }
        let n = descriptions.iter().filter(|d| d.update == *u).count();
        if n != 1 {
            return Err(AlgError::BadDescription(format!(
                "update `{}` needs exactly one structured description, found {n}",
                sig.logic().func(*u).name
            )));
        }
    }

    let queries: Vec<FuncId> = sig.queries().collect();
    let mut out = Vec::new();

    // Initial-state equations: q(x̄, initiate) = default.
    for &q in &queries {
        let qname = sig.logic().func(q).name.clone();
        let uname = sig.logic().func(initial.update).name.clone();
        let vars = fresh_query_vars(sig, q)?;
        let lhs_args: Vec<Term> = vars
            .iter()
            .map(|v| Term::Var(*v))
            .chain(std::iter::once(Term::constant(initial.update)))
            .collect();
        let default = initial
            .default_for(q)
            .expect("validated: default exists")
            .clone();
        out.push(ConditionalEquation::unconditional(
            format!("{qname}_{uname}"),
            Term::App(q, lhs_args),
            default,
        ));
    }

    for d in descriptions {
        for &q in &queries {
            out.extend(equations_for_pair(sig, d, q)?);
        }
    }
    Ok(out)
}

/// Fresh variables matching a query's parameter sorts.
fn fresh_query_vars(sig: &mut AlgSignature, q: FuncId) -> Result<Vec<VarId>> {
    let sorts = sig.query_params(q)?;
    let mut vars = Vec::with_capacity(sorts.len());
    for s in sorts {
        let hint = sig
            .logic()
            .sort_name(s)
            .chars()
            .next()
            .unwrap_or('x')
            .to_string();
        vars.push(sig.logic_mut().fresh_var(&hint, s));
    }
    Ok(vars)
}

/// `⋀_k a_k = b_k` as a formula ([`Formula::True`] for empty tuples).
fn tuple_eq(a: &[Term], b: &[Term]) -> Formula {
    Formula::conj(
        a.iter()
            .zip(b)
            .map(|(x, y)| Formula::Eq(x.clone(), y.clone())),
    )
}

/// Conjoins, dropping `True` conjuncts.
fn conj2(a: Formula, b: Formula) -> Formula {
    match (a, b) {
        (Formula::True, x) | (x, Formula::True) => x,
        (x, y) => x.and(y),
    }
}

/// The update application term `u(p̄, U)`.
fn update_term(sig: &AlgSignature, d: &StructuredDescription) -> Term {
    let mut args: Vec<Term> = d.params.iter().map(|v| Term::Var(*v)).collect();
    args.push(Term::Var(sig.state_var()));
    Term::App(d.update, args)
}

/// Equations for one (query, update-description) pair.
fn equations_for_pair(
    sig: &mut AlgSignature,
    d: &StructuredDescription,
    q: FuncId,
) -> Result<Vec<ConditionalEquation>> {
    let qname = sig.logic().func(q).name.clone();
    let uname = sig.logic().func(d.update).name.clone();
    let effects: Vec<&Effect> = d
        .all_effects()
        .into_iter()
        .filter(|e| e.query == q)
        .collect();
    let upd = update_term(sig, d);
    let mut out = Vec::new();

    // Matched cases, later effects winning on overlap.
    for (i, e) in effects.iter().enumerate() {
        let mut guard = Formula::True;
        for later in &effects[i + 1..] {
            guard = conj2(guard, tuple_eq(&e.args, &later.args).not());
        }
        let lhs_args: Vec<Term> = e
            .args
            .iter()
            .cloned()
            .chain(std::iter::once(upd.clone()))
            .collect();
        let lhs = Term::App(q, lhs_args);
        if d.precondition == Formula::True {
            out.push(ConditionalEquation::new(
                format!("{qname}_{uname}_eff{i}"),
                guard,
                lhs,
                e.value.clone(),
            ));
        } else {
            out.push(ConditionalEquation::new(
                format!("{qname}_{uname}_eff{i}_pre"),
                conj2(guard.clone(), d.precondition.clone()),
                lhs.clone(),
                e.value.clone(),
            ));
            let old_args: Vec<Term> = e
                .args
                .iter()
                .cloned()
                .chain(std::iter::once(Term::Var(sig.state_var())))
                .collect();
            out.push(ConditionalEquation::new(
                format!("{qname}_{uname}_eff{i}_npre"),
                conj2(guard, d.precondition.clone().not()),
                lhs,
                Term::App(q, old_args),
            ));
        }
    }

    // Frame case ("not-affected: all other queries, including q(c', ·) with
    // c' ≠ c").
    let vars = fresh_query_vars(sig, q)?;
    let var_terms: Vec<Term> = vars.iter().map(|v| Term::Var(*v)).collect();
    let mut guard = Formula::True;
    for e in &effects {
        guard = conj2(guard, tuple_eq(&var_terms, &e.args).not());
    }
    let lhs_args: Vec<Term> = var_terms
        .iter()
        .cloned()
        .chain(std::iter::once(upd))
        .collect();
    let rhs_args: Vec<Term> = var_terms
        .into_iter()
        .chain(std::iter::once(Term::Var(sig.state_var())))
        .collect();
    out.push(ConditionalEquation::new(
        format!("{qname}_{uname}_frame"),
        guard,
        Term::App(q, lhs_args),
        Term::App(q, rhs_args),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::Rewriter;
    use crate::spec::AlgSpec;
    use eclectic_logic::parse_formula;

    /// Builds the courses signature and the paper's four structured
    /// descriptions, then synthesises the equation set.
    fn courses() -> AlgSpec {
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana", "bob"]).unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        let offered = a.add_query("offered", &[course], None).unwrap();
        let takes = a.add_query("takes", &[student, course], None).unwrap();
        let initiate = a.add_update("initiate", &[], false).unwrap();
        let offer = a.add_update("offer", &[course], true).unwrap();
        let cancel = a.add_update("cancel", &[course], true).unwrap();
        let enroll = a.add_update("enroll", &[student, course], true).unwrap();
        let transfer = a
            .add_update("transfer", &[student, course, course], true)
            .unwrap();
        let c = a.add_param_var("c", course).unwrap();
        let c1 = a.add_param_var("c1", course).unwrap();
        let c2 = a.add_param_var("c2", course).unwrap();
        let s = a.add_param_var("s", student).unwrap();

        let initial = InitialState {
            update: initiate,
            defaults: vec![(offered, a.false_term()), (takes, a.false_term())],
        };

        let d_offer = StructuredDescription {
            update: offer,
            params: vec![c],
            comment: "course c is added as a new course".into(),
            precondition: Formula::True,
            effects: vec![Effect {
                query: offered,
                args: vec![Term::Var(c)],
                value: a.true_term(),
            }],
            side_effects: vec![],
        };
        let pre_cancel =
            parse_formula(a.logic_mut(), "forall s:student. takes(s, c, U) = False").unwrap();
        let d_cancel = StructuredDescription {
            update: cancel,
            params: vec![c],
            comment: "course c is cancelled, providing no student takes it".into(),
            precondition: pre_cancel,
            effects: vec![Effect {
                query: offered,
                args: vec![Term::Var(c)],
                value: a.false_term(),
            }],
            side_effects: vec![],
        };
        let pre_enroll = parse_formula(a.logic_mut(), "offered(c, U) = True").unwrap();
        let d_enroll = StructuredDescription {
            update: enroll,
            params: vec![s, c],
            comment: "student s enrolls in course c".into(),
            precondition: pre_enroll,
            effects: vec![Effect {
                query: takes,
                args: vec![Term::Var(s), Term::Var(c)],
                value: a.true_term(),
            }],
            side_effects: vec![],
        };
        let pre_transfer = parse_formula(
            a.logic_mut(),
            "takes(s, c1, U) = True & takes(s, c2, U) = False & offered(c2, U) = True",
        )
        .unwrap();
        let d_transfer = StructuredDescription {
            update: transfer,
            params: vec![s, c1, c2],
            comment: "student s transfers from c1 to c2".into(),
            precondition: pre_transfer,
            effects: vec![
                Effect {
                    query: takes,
                    args: vec![Term::Var(s), Term::Var(c1)],
                    value: a.false_term(),
                },
                Effect {
                    query: takes,
                    args: vec![Term::Var(s), Term::Var(c2)],
                    value: a.true_term(),
                },
            ],
            side_effects: vec![],
        };

        let eqs = synthesize(&mut a, &initial, &[d_offer, d_cancel, d_enroll, d_transfer]).unwrap();
        AlgSpec::new(a, eqs).unwrap()
    }

    fn term(spec: &AlgSpec, s: &str) -> Term {
        let mut sig = spec.signature().logic().clone();
        eclectic_logic::parse_term(&mut sig, s).unwrap()
    }

    #[test]
    fn synthesized_set_covers_all_pairs() {
        let spec = courses();
        let report = crate::completeness::coverage(&spec).unwrap();
        assert!(report.is_empty(), "{report:?}");
    }

    #[test]
    fn synthesized_set_terminates() {
        let spec = courses();
        let report = crate::termination::check_termination(&spec).unwrap();
        assert!(report.is_terminating(), "{report:?}");
    }

    #[test]
    fn synthesized_set_is_sufficiently_complete() {
        let spec = courses();
        let report = crate::completeness::exhaustive_budget(
            &spec,
            2,
            5,
            &eclectic_kernel::Budget::unlimited(),
            1,
        )
        .unwrap();
        assert!(report.is_sufficiently_complete(), "{report:?}");
    }

    #[test]
    fn evaluates_the_paper_scenarios() {
        let spec = courses();
        let mut rw = Rewriter::new(&spec);
        // cancel with a student enrolled leaves the course offered.
        let t = term(
            &spec,
            "offered(db, cancel(db, enroll(ana, db, offer(db, initiate))))",
        );
        assert!(rw.eval_bool(&t).unwrap());
        // cancel with nobody enrolled removes it.
        let t = term(&spec, "offered(db, cancel(db, offer(db, initiate)))");
        assert!(!rw.eval_bool(&t).unwrap());
        // enroll in an unoffered course has no effect.
        let t = term(&spec, "takes(ana, db, enroll(ana, db, initiate))");
        assert!(!rw.eval_bool(&t).unwrap());
        // transfer moves the student when the target is offered.
        let t = term(
            &spec,
            "takes(ana, ai, transfer(ana, db, ai, enroll(ana, db, offer(ai, offer(db, initiate)))))",
        );
        assert!(rw.eval_bool(&t).unwrap());
        let t = term(
            &spec,
            "takes(ana, db, transfer(ana, db, ai, enroll(ana, db, offer(ai, offer(db, initiate)))))",
        );
        assert!(!rw.eval_bool(&t).unwrap());
        // transfer to an unoffered course fails: the student stays.
        let t = term(
            &spec,
            "takes(ana, db, transfer(ana, db, ai, enroll(ana, db, offer(db, initiate))))",
        );
        assert!(rw.eval_bool(&t).unwrap());
    }

    #[test]
    fn missing_description_rejected() {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        let offered = a.add_query("offered", &[course], None).unwrap();
        let initiate = a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        let initial = InitialState {
            update: initiate,
            defaults: vec![(offered, a.false_term())],
        };
        assert!(matches!(
            synthesize(&mut a, &initial, &[]),
            Err(AlgError::BadDescription(_))
        ));
    }

    #[test]
    fn a_synthesized_equation_is_validated_by_the_spec() {
        // An effect value over a variable the update does not bind passes
        // the description check, but its equation's rhs has a variable the
        // lhs lacks: `AlgSpec::new` rejects it.
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        let offered = a.add_query("offered", &[course], None).unwrap();
        let initiate = a.add_update("initiate", &[], false).unwrap();
        let offer = a.add_update("offer", &[course], true).unwrap();
        let c = a.add_param_var("c", course).unwrap();
        let stray = a.add_param_var("c1", course).unwrap();
        let initial = InitialState {
            update: initiate,
            defaults: vec![(offered, a.false_term())],
        };
        let d_offer = StructuredDescription {
            update: offer,
            params: vec![c],
            comment: String::new(),
            precondition: Formula::True,
            effects: vec![Effect {
                query: offered,
                args: vec![Term::Var(c)],
                value: Term::App(offered, vec![Term::Var(stray), Term::Var(a.state_var())]),
            }],
            side_effects: vec![],
        };
        let eqs = synthesize(&mut a, &initial, &[d_offer]).unwrap();
        assert!(matches!(
            AlgSpec::new(a, eqs),
            Err(AlgError::BadEquation { name, .. }) if name == "offered_offer_eff0"
        ));
    }
}
