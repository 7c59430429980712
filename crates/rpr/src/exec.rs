//! Operational execution of RPR statements and procedures.
//!
//! `run` computes the *image* of a state under a statement's meaning — the
//! set `{B | (A, B) ∈ m(p)}` — directly, without enumerating a universe.
//! Statements inside procedure bodies may mention the procedure's parameter
//! variables; their values are supplied by an environment [`Valuation`]
//! (the call-time binding `A[c1/Y1, …, cm/Ym]`). For deterministic programs
//! (the paper's procedures) the image is a singleton and
//! [`call_deterministic`] extracts it.

use std::collections::BTreeSet;

use eclectic_logic::{eval, Elem, Valuation};

use crate::ast::Stmt;
use crate::error::{Result, RprError};
use crate::schema::Schema;
use crate::state::DbState;

/// Default bound on `*`/`while` closure iterations.
pub const DEFAULT_ITERATION_LIMIT: usize = 100_000;

/// Computes the set of result states of `stmt` from `start` under the
/// parameter environment `env`.
///
/// # Errors
/// Returns evaluation errors and [`RprError::IterationLimit`] if a closure
/// fails to converge within [`DEFAULT_ITERATION_LIMIT`] rounds.
pub fn run(start: &DbState, stmt: &Stmt, env: &Valuation) -> Result<BTreeSet<DbState>> {
    run_limited(start, stmt, env, DEFAULT_ITERATION_LIMIT)
}

/// As [`run`], with an explicit iteration limit.
///
/// # Errors
/// See [`run`].
pub fn run_limited(
    start: &DbState,
    stmt: &Stmt,
    env: &Valuation,
    limit: usize,
) -> Result<BTreeSet<DbState>> {
    let mut out = BTreeSet::new();
    match stmt {
        Stmt::Skip => {
            out.insert(start.clone());
        }
        Stmt::Assign(x, t) => {
            let v = eval::eval_term(start.structure(), env, t)?;
            let mut next = start.clone();
            next.set_scalar(*x, v)?;
            out.insert(next);
        }
        Stmt::RelAssign(r, f) => {
            let rows =
                eval::satisfying_assignments_with(start.structure(), env, &f.wff, &f.vars)?;
            let mut next = start.clone();
            next.structure_mut()
                .set_pred_relation(*r, rows.into_iter().collect())?;
            out.insert(next);
        }
        Stmt::Test(p) => {
            if eval::satisfies(start.structure(), env, p)? {
                out.insert(start.clone());
            }
        }
        Stmt::Union(p, q) => {
            out.extend(run_limited(start, p, env, limit)?);
            out.extend(run_limited(start, q, env, limit)?);
        }
        Stmt::Seq(p, q) => {
            for mid in run_limited(start, p, env, limit)? {
                out.extend(run_limited(&mid, q, env, limit)?);
            }
        }
        Stmt::Star(p) => {
            out.insert(start.clone());
            let mut frontier: Vec<DbState> = vec![start.clone()];
            let mut rounds = 0;
            while !frontier.is_empty() {
                rounds += 1;
                if rounds > limit {
                    return Err(RprError::IterationLimit(limit));
                }
                let mut next_frontier = Vec::new();
                for st in frontier {
                    for nxt in run_limited(&st, p, env, limit)? {
                        if out.insert(nxt.clone()) {
                            next_frontier.push(nxt);
                        }
                    }
                }
                frontier = next_frontier;
            }
        }
        Stmt::IfThen(c, p) => {
            if eval::satisfies(start.structure(), env, c)? {
                out.extend(run_limited(start, p, env, limit)?);
            } else {
                out.insert(start.clone());
            }
        }
        Stmt::IfThenElse(c, p, q) => {
            if eval::satisfies(start.structure(), env, c)? {
                out.extend(run_limited(start, p, env, limit)?);
            } else {
                out.extend(run_limited(start, q, env, limit)?);
            }
        }
        Stmt::While(c, p) => {
            // (c?; p)* ; ¬c? — computed as a worklist over the closure.
            let mut done = BTreeSet::new();
            let mut seen = BTreeSet::new();
            let mut frontier = vec![start.clone()];
            seen.insert(start.clone());
            let mut rounds = 0;
            while !frontier.is_empty() {
                rounds += 1;
                if rounds > limit {
                    return Err(RprError::IterationLimit(limit));
                }
                let mut next_frontier = Vec::new();
                for st in frontier {
                    if eval::satisfies(st.structure(), env, c)? {
                        for nxt in run_limited(&st, p, env, limit)? {
                            if seen.insert(nxt.clone()) {
                                next_frontier.push(nxt);
                            }
                        }
                    } else {
                        done.insert(st);
                    }
                }
                frontier = next_frontier;
            }
            out = done;
        }
        Stmt::Insert(r, args) => {
            let tuple = eval_tuple(start, env, args)?;
            let mut next = start.clone();
            next.insert(*r, tuple)?;
            out.insert(next);
        }
        Stmt::Delete(r, args) => {
            let tuple = eval_tuple(start, env, args)?;
            let mut next = start.clone();
            next.delete(*r, &tuple);
            out.insert(next);
        }
    }
    Ok(out)
}

fn eval_tuple(
    start: &DbState,
    env: &Valuation,
    args: &[eclectic_logic::Term],
) -> Result<Vec<Elem>> {
    args.iter()
        .map(|t| eval::eval_term(start.structure(), env, t).map_err(RprError::Logic))
        .collect()
}

/// Calls a procedure: binds the argument values to the parameter variables,
/// then runs the body.
///
/// # Errors
/// Returns arity and execution errors.
pub fn call(
    schema: &Schema,
    start: &DbState,
    proc_name: &str,
    args: &[Elem],
) -> Result<BTreeSet<DbState>> {
    let proc = schema.proc_or_err(proc_name)?;
    if proc.params.len() != args.len() {
        return Err(RprError::ArityMismatch {
            proc: proc_name.to_string(),
            expected: proc.params.len(),
            found: args.len(),
        });
    }
    let mut env = Valuation::new();
    for (&param, &value) in proc.params.iter().zip(args) {
        env.set(param, value);
    }
    run(start, &proc.body, &env)
}

/// Deterministic procedure call (the common case for the paper's updates),
/// returning the call's unique outcome.
///
/// # Errors
/// See [`call`]; also returns [`RprError::Stuck`] for zero outcomes and
/// [`RprError::Nondeterministic`] for more than one.
pub fn call_deterministic(
    schema: &Schema,
    start: &DbState,
    proc_name: &str,
    args: &[Elem],
) -> Result<DbState> {
    let mut results = call(schema, start, proc_name, args)?;
    match results.len() {
        1 => Ok(results.pop_first().expect("len checked")),
        0 => Err(RprError::Stuck),
        n => Err(RprError::Nondeterministic { outcomes: n }),
    }
}

/// Replays a sequence of `(procedure, arguments)` calls from `start`,
/// deterministically.
///
/// # Errors
/// See [`call_deterministic`].
pub fn replay(
    schema: &Schema,
    start: &DbState,
    calls: &[(&str, Vec<Elem>)],
) -> Result<DbState> {
    let mut st = start.clone();
    for (name, args) in calls {
        st = call_deterministic(schema, &st, name, args)?;
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_schema, PAPER_COURSES_SCHEMA};
    use eclectic_logic::{Domains, Formula, Signature, Term};
    use std::sync::Arc;

    /// The paper's §5.2 schema, parsed from the canonical text.
    pub(crate) fn courses_schema() -> (Schema, DbState) {
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
        let state = DbState::new(sig, Arc::new(dom));
        (schema, state)
    }

    #[test]
    fn paper_scenario_executes() {
        let (schema, s0) = courses_schema();
        let sig = schema.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let takes = sig.pred_id("TAKES").unwrap();
        let ana = Elem(0);
        let db = Elem(0);
        let ai = Elem(1);

        let st = replay(
            &schema,
            &s0,
            &[
                ("initiate", vec![]),
                ("offer", vec![db]),
                ("enroll", vec![ana, db]),
            ],
        )
        .unwrap();
        assert!(st.contains(offered, &[db]));
        assert!(st.contains(takes, &[ana, db]));

        // cancel db fails silently (ana takes it): state unchanged.
        let s4 = call_deterministic(&schema, &st, "cancel", &[db]).unwrap();
        assert_eq!(s4, st);

        // transfer ana from db to ai fails (ai not offered).
        let s5 = call_deterministic(&schema, &s4, "transfer", &[ana, db, ai]).unwrap();
        assert!(s5.contains(takes, &[ana, db]));
        assert!(!s5.contains(takes, &[ana, ai]));

        // offer ai, then transfer succeeds.
        let s7 = replay(
            &schema,
            &s5,
            &[("offer", vec![ai]), ("transfer", vec![ana, db, ai])],
        )
        .unwrap();
        assert!(!s7.contains(takes, &[ana, db]));
        assert!(s7.contains(takes, &[ana, ai]));

        // now cancel db succeeds.
        let s8 = call_deterministic(&schema, &s7, "cancel", &[db]).unwrap();
        assert!(!s8.contains(offered, &[db]));
    }

    #[test]
    fn enroll_requires_offered() {
        let (schema, s0) = courses_schema();
        let sig = schema.signature().clone();
        let takes = sig.pred_id("TAKES").unwrap();
        let st = replay(
            &schema,
            &s0,
            &[("initiate", vec![]), ("enroll", vec![Elem(0), Elem(0)])],
        )
        .unwrap();
        assert!(!st.contains(takes, &[Elem(0), Elem(0)]));
    }

    #[test]
    fn arity_errors() {
        let (schema, s0) = courses_schema();
        assert!(matches!(
            call(&schema, &s0, "offer", &[]),
            Err(RprError::ArityMismatch { .. })
        ));
        assert!(matches!(
            call(&schema, &s0, "nope", &[]),
            Err(RprError::UnknownProc(_))
        ));
    }

    #[test]
    fn union_is_nondeterministic() {
        let (schema, s0) = courses_schema();
        let sig = schema.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let c = sig.var_id("c").unwrap();
        let ins = Stmt::Insert(offered, vec![Term::Var(c)]);
        let stmt = ins.union(Stmt::Skip);
        let mut env = Valuation::new();
        env.set(c, Elem(0));
        let results = run(&s0, &stmt, &env).unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn failed_test_is_stuck() {
        let (_, s0) = courses_schema();
        let stmt = Stmt::Test(Formula::False);
        let env = Valuation::new();
        assert!(run(&s0, &stmt, &env).unwrap().is_empty());
    }

    #[test]
    fn star_computes_closure() {
        let (schema, s0) = courses_schema();
        let sig = schema.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let c = sig.var_id("c").unwrap();
        let mut env = Valuation::new();
        env.set(c, Elem(0));
        let stmt = Stmt::Insert(offered, vec![Term::Var(c)]).star();
        let results = run(&s0, &stmt, &env).unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn while_collects_exits() {
        let (schema, s0) = courses_schema();
        let sig = schema.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let cv = sig.var_id("c").unwrap();
        // while ∃c ¬OFFERED(c) do insert OFFERED(db): once db is offered the
        // body keeps re-inserting it, ai stays missing — no exit states, and
        // the worklist converges.
        let some_missing = Formula::exists(
            cv,
            Formula::Pred(offered, vec![Term::Var(cv)]).not(),
        );
        let body = Stmt::Insert(offered, vec![Term::Var(cv)]);
        let stmt = Stmt::While(some_missing, Box::new(body));
        let mut env = Valuation::new();
        env.set(cv, Elem(0));
        let results = run(&s0, &stmt, &env).unwrap();
        assert!(results.is_empty());
    }
}
