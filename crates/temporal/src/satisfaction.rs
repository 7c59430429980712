//! Modal satisfaction for the temporal extension `L_T`.
//!
//! Implements the paper's additional rule (§3.1):
//!
//! > `A ⊨_U (◇P)[v]` iff there is `B` in `S` such that `R(A, B)` and
//! > `B ⊨_U P[v]`.
//!
//! All other clauses are identical to first-order satisfaction; quantifier
//! valuations carry across states because all states share the same domain.

use eclectic_logic::{eval, Formula, LogicError, Result, Term, Valuation};

use crate::universe::{StateIdx, Universe};

/// Decides `A ⊨_U P[v]` at state `at` of the universe.
///
/// # Errors
/// Propagates term-evaluation errors (unbound variables, partial function
/// tables).
pub fn satisfies(u: &Universe, at: StateIdx, v: &Valuation, f: &Formula) -> Result<bool> {
    let mut v = v.clone();
    satisfies_mut(u, at, &mut v, f)
}

/// As [`satisfies`], with a reusable valuation.
///
/// # Errors
/// See [`satisfies`].
pub fn satisfies_mut(u: &Universe, at: StateIdx, v: &mut Valuation, f: &Formula) -> Result<bool> {
    let st = u.state(at);
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Pred(p, args) => {
            let vals = eval_args(u, at, v, args)?;
            Ok(st.pred_holds(*p, &vals))
        }
        Formula::Eq(a, b) => Ok(eval::eval_term(st, v, a)? == eval::eval_term(st, v, b)?),
        Formula::Not(p) => Ok(!satisfies_mut(u, at, v, p)?),
        Formula::And(p, q) => Ok(satisfies_mut(u, at, v, p)? && satisfies_mut(u, at, v, q)?),
        Formula::Or(p, q) => Ok(satisfies_mut(u, at, v, p)? || satisfies_mut(u, at, v, q)?),
        Formula::Implies(p, q) => {
            Ok(!satisfies_mut(u, at, v, p)? || satisfies_mut(u, at, v, q)?)
        }
        Formula::Iff(p, q) => Ok(satisfies_mut(u, at, v, p)? == satisfies_mut(u, at, v, q)?),
        Formula::Forall(x, p) => {
            let sort = u.signature().var(*x).sort;
            for e in u.domains().elems(sort) {
                let holds = v.with(*x, e, |v| satisfies_mut(u, at, v, p))?;
                if !holds {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Exists(x, p) => {
            let sort = u.signature().var(*x).sort;
            for e in u.domains().elems(sort) {
                let holds = v.with(*x, e, |v| satisfies_mut(u, at, v, p))?;
                if holds {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Possibly(p) => {
            for &b in u.successors(at) {
                if satisfies_mut(u, b, v, p)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Necessarily(p) => {
            for &b in u.successors(at) {
                if !satisfies_mut(u, b, v, p)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
    }
}

fn eval_args(
    u: &Universe,
    at: StateIdx,
    v: &Valuation,
    args: &[Term],
) -> Result<Vec<eclectic_logic::Elem>> {
    let st = u.state(at);
    let mut out = Vec::with_capacity(args.len());
    for a in args {
        out.push(eval::eval_term(st, v, a)?);
    }
    Ok(out)
}

/// Decides satisfaction of a closed formula at a state.
///
/// # Errors
/// Returns [`LogicError::UnboundVariable`] if the formula is not closed,
/// plus evaluation errors.
pub fn models_at(u: &Universe, at: StateIdx, f: &Formula) -> Result<bool> {
    if !f.is_closed() {
        let v = f
            .free_vars()
            .into_iter()
            .next()
            .expect("non-closed formula has a free variable");
        return Err(LogicError::UnboundVariable(
            u.signature().var(v).name.clone(),
        ));
    }
    satisfies(u, at, &Valuation::new(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_logic::{parse_formula, Domains, Elem, Signature, Structure};
    use std::sync::Arc;

    /// Universe with three states over one course sort:
    /// s0: {} → s1: {db offered} → s2: {} (db cancelled again)
    fn chain() -> (Universe, Vec<StateIdx>) {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        sig.add_var("c", course).unwrap();
        let dom = Arc::new(Domains::from_names(&sig, &[("course", &["db"])]).unwrap());
        let sig = Arc::new(sig);
        let offered = sig.pred_id("offered").unwrap();

        let mut u = Universe::new(sig.clone(), dom.clone());
        let s0 = Structure::new(sig.clone(), dom.clone());
        let mut s1 = Structure::new(sig.clone(), dom.clone());
        s1.insert_pred(offered, vec![Elem(0)]).unwrap();
        let (i0, _) = u.add_state(s0).unwrap();
        let (i1, _) = u.add_state(s1).unwrap();
        // Two-state cycle: {} → {db offered} → {} …
        u.add_edge(i0, i1);
        u.add_edge(i1, i0);
        (u, vec![i0, i1])
    }

    #[test]
    fn possibility_looks_one_step_ahead() {
        let (u, states) = chain();
        let mut sig = (**u.signature()).clone();
        let dia_offered = parse_formula(&mut sig, "dia exists c:course. offered(c)").unwrap();
        let offered_now = parse_formula(&mut sig, "exists c:course. offered(c)").unwrap();

        // At s0: not offered now, but possibly offered (s1 accessible).
        assert!(!models_at(&u, states[0], &offered_now).unwrap());
        assert!(models_at(&u, states[0], &dia_offered).unwrap());
        // At s1: offered now; successor is s0, where it is not offered.
        assert!(models_at(&u, states[1], &offered_now).unwrap());
        assert!(!models_at(&u, states[1], &dia_offered).unwrap());
    }

    #[test]
    fn necessity_is_dual() {
        let (u, states) = chain();
        let mut sig = (**u.signature()).clone();
        let box_not = parse_formula(&mut sig, "box ~exists c:course. offered(c)").unwrap();
        let dual = parse_formula(&mut sig, "~dia ~~exists c:course. offered(c)").unwrap();
        for &s in &states {
            let direct = models_at(&u, s, &box_not).unwrap();
            // □¬P ≡ ¬◇P
            let dia_p =
                parse_formula(&mut sig, "dia exists c:course. offered(c)").unwrap();
            assert_eq!(direct, !models_at(&u, s, &dia_p).unwrap());
            let _ = &dual;
        }
    }

    #[test]
    fn necessity_vacuous_at_terminal_states() {
        let (u, states) = chain();
        let mut sig = (**u.signature()).clone();
        // s1's only successor is s0; s0's only successor is s1. Add an
        // isolated check: a formula under box at a state with successors.
        let f = parse_formula(&mut sig, "box true").unwrap();
        assert!(models_at(&u, states[0], &f).unwrap());
        let g = parse_formula(&mut sig, "box false").unwrap();
        // s0 has a successor, so box false fails there.
        assert!(!models_at(&u, states[0], &g).unwrap());
    }

    #[test]
    fn valuation_carries_across_modalities() {
        let (u, states) = chain();
        let sig = u.signature().clone();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        // ◇offered(c) with c free, evaluated under [c ↦ db].
        let f = Formula::Pred(offered, vec![Term::Var(c)]).possibly();
        let mut v = Valuation::new();
        v.set(c, Elem(0));
        assert!(satisfies(&u, states[0], &v, &f).unwrap());
        assert!(!satisfies(&u, states[1], &v, &f).unwrap());
    }

    #[test]
    fn open_formula_rejected_by_models_at() {
        let (u, states) = chain();
        let sig = u.signature().clone();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let f = Formula::Pred(offered, vec![Term::Var(c)]);
        assert!(matches!(
            models_at(&u, states[0], &f),
            Err(LogicError::UnboundVariable(_))
        ));
    }

    #[test]
    fn validity_and_failing_states() {
        let (u, _) = chain();
        let mut sig = (**u.signature()).clone();
        let failing = |f: &Formula| {
            u.state_indices()
                .filter(|&s| !models_at(&u, s, f).unwrap())
                .count()
        };
        let f = parse_formula(&mut sig, "dia true").unwrap();
        assert_eq!(failing(&f), 0);
        let g = parse_formula(&mut sig, "exists c:course. offered(c)").unwrap();
        assert_eq!(failing(&g), 1);
    }
}
