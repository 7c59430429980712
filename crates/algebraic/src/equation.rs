//! Conditional equations — the axioms of algebraic specifications.
//!
//! Paper §4.1: axioms are conditional equations `P ⟹ t = t'` where `P` is a
//! wff and `t`, `t'` are terms of the same sort. If the sort is `state` the
//! axiom is a *U-equation*, otherwise a *Q-equation*. Antecedents quantify
//! only over parameters, never over states.

use std::collections::BTreeSet;

use eclectic_kernel::TermStore;
use eclectic_logic::{Formula, Term, VarId};

use crate::error::{AlgError, Result};
use crate::signature::{AlgSignature, OpKind};

/// Q-equation or U-equation (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EquationKind {
    /// Both sides of sort other than `state`.
    Q,
    /// Both sides of sort `state`.
    U,
}

/// A conditional equation `condition ⟹ lhs = rhs`, usable as a conditional
/// term-rewriting rule (left to right).
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalEquation {
    /// Name for diagnostics and reports (e.g. `"eq6"`).
    pub name: String,
    /// Antecedent; [`Formula::True`] for unconditional equations.
    pub condition: Formula,
    /// Left-hand side (the redex pattern).
    pub lhs: Term,
    /// Right-hand side (the "simpler expression").
    pub rhs: Term,
}

impl ConditionalEquation {
    /// Creates an unconditional equation.
    #[must_use]
    pub fn unconditional(name: impl Into<String>, lhs: Term, rhs: Term) -> Self {
        ConditionalEquation {
            name: name.into(),
            condition: Formula::True,
            lhs,
            rhs,
        }
    }

    /// Creates a conditional equation.
    #[must_use]
    pub fn new(name: impl Into<String>, condition: Formula, lhs: Term, rhs: Term) -> Self {
        ConditionalEquation {
            name: name.into(),
            condition,
            lhs,
            rhs,
        }
    }

    /// Q or U, by the sort of the left-hand side.
    ///
    /// # Errors
    /// Propagates sorting errors.
    pub fn kind(&self, sig: &AlgSignature) -> Result<EquationKind> {
        let s = self.lhs.sort(sig.logic())?;
        Ok(if s == sig.state_sort() {
            EquationKind::U
        } else {
            EquationKind::Q
        })
    }

    /// The root query/update symbol of the left-hand side, if any.
    #[must_use]
    pub fn lhs_root(&self) -> Option<eclectic_logic::FuncId> {
        match &self.lhs {
            Term::App(f, _) => Some(*f),
            Term::Var(_) => None,
        }
    }

    /// For a Q-equation whose lhs is `q(…, u(…))` or `q(…, initiate)`,
    /// the inner update symbol.
    #[must_use]
    pub fn lhs_inner_update(&self, sig: &AlgSignature) -> Option<eclectic_logic::FuncId> {
        if let Term::App(_, args) = &self.lhs {
            if let Some(Term::App(u, _)) = args.last() {
                if sig.kind(*u) == OpKind::Update {
                    return Some(*u);
                }
            }
        }
        None
    }

    /// Validates the equation against the paper's restrictions:
    ///
    /// 1. well-sorted, both sides of the same sort;
    /// 2. every variable of the rhs and condition occurs in the lhs (free),
    ///    so the equation is usable as a rewrite rule;
    /// 3. the condition lies in the allowed fragment: equalities and
    ///    connectives, quantified only over *parameter* sorts — "the
    ///    antecedent does not involve quantification over states";
    /// 4. the condition mentions no state term other than subterms of the
    ///    lhs state argument (checked weakly: its free state variables are
    ///    lhs variables).
    ///
    /// Both sides are interned into `store` and sorted through the kernel's
    /// per-node sort cache, so subterms shared across the equations of a
    /// specification are sorted once instead of re-walked per equation.
    /// Returns the equation's kind (computed from the already-cached lhs
    /// sort). [`AlgSpec::new`](crate::AlgSpec::new) validates every
    /// equation this way, over one store.
    ///
    /// # Errors
    /// Returns [`AlgError::BadEquation`] describing the first violation.
    pub fn validate_with(&self, sig: &AlgSignature, store: &mut TermStore) -> Result<EquationKind> {
        let bad = |reason: String| AlgError::BadEquation {
            name: self.name.clone(),
            reason,
        };
        // On sort errors, re-sort the owned tree for the diagnostic: the
        // kernel reports ids, `Term::sort` reports names. Cold path only.
        let pretty = |t: &Term| match t.sort(sig.logic()) {
            Err(e) => format!("{e}"),
            Ok(_) => unreachable!("kernel and tree sorting agree"),
        };
        let lhs_id = self.lhs.intern(store);
        let rhs_id = self.rhs.intern(store);
        let ls = store
            .sort_of(lhs_id, sig.logic())
            .map_err(|_| bad(format!("ill-sorted lhs: {}", pretty(&self.lhs))))?;
        let rs = store
            .sort_of(rhs_id, sig.logic())
            .map_err(|_| bad(format!("ill-sorted rhs: {}", pretty(&self.rhs))))?;
        if ls != rs {
            return Err(bad(format!(
                "sides have different sorts `{}` and `{}`",
                sig.logic().sort_name(ls),
                sig.logic().sort_name(rs)
            )));
        }
        self.condition
            .check(sig.logic())
            .map_err(|e| bad(format!("ill-sorted condition: {e}")))?;

        let lhs_vars = self.lhs.vars();
        let mut needed: BTreeSet<VarId> = self.rhs.vars();
        needed.extend(self.condition.free_vars());
        for v in &needed {
            if !lhs_vars.contains(v) {
                return Err(bad(format!(
                    "variable `{}` occurs in rhs/condition but not in lhs",
                    sig.logic().var(*v).name
                )));
            }
        }

        check_condition_fragment(sig, &self.condition).map_err(|e| bad(format!("{e}")))?;
        Ok(if ls == sig.state_sort() {
            EquationKind::U
        } else {
            EquationKind::Q
        })
    }
}

/// Checks the condition fragment: no predicates (other than equality, which
/// is the [`Formula::Eq`] constructor), no modalities, quantification only
/// over parameter sorts.
///
/// # Errors
/// Returns [`AlgError::BadCondition`].
pub fn check_condition_fragment(sig: &AlgSignature, f: &Formula) -> Result<()> {
    match f {
        Formula::True | Formula::False | Formula::Eq(..) => Ok(()),
        Formula::Pred(p, _) => Err(AlgError::BadCondition(format!(
            "predicate `{}` not allowed in equation conditions",
            sig.logic().pred(*p).name
        ))),
        Formula::Not(p) => check_condition_fragment(sig, p),
        Formula::And(p, q) | Formula::Or(p, q) | Formula::Implies(p, q) | Formula::Iff(p, q) => {
            check_condition_fragment(sig, p)?;
            check_condition_fragment(sig, q)
        }
        Formula::Forall(x, p) | Formula::Exists(x, p) => {
            let sort = sig.logic().var(*x).sort;
            if sort == sig.state_sort() {
                return Err(AlgError::BadCondition(
                    "quantification over states is not allowed in antecedents".into(),
                ));
            }
            check_condition_fragment(sig, p)
        }
        Formula::Possibly(_) | Formula::Necessarily(_) => Err(AlgError::BadCondition(
            "modal operators are not allowed in equation conditions".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_logic::parse_formula;

    fn sig() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a
    }

    fn validate(eq: &ConditionalEquation, sig: &AlgSignature) -> Result<EquationKind> {
        eq.validate_with(sig, &mut TermStore::new())
    }

    fn t(sig: &mut AlgSignature, s: &str) -> Term {
        eclectic_logic::parse_term(sig.logic_mut(), s).unwrap()
    }

    #[test]
    fn paper_equation_3_validates() {
        let mut a = sig();
        // offered(c, offer(c, U)) = True
        let lhs = t(&mut a, "offered(c, offer(c, U))");
        let rhs = a.true_term();
        let eq = ConditionalEquation::unconditional("eq3", lhs, rhs);
        validate(&eq, &a).unwrap();
        assert_eq!(eq.kind(&a).unwrap(), EquationKind::Q);
        let offer = a.logic().func_id("offer").unwrap();
        assert_eq!(eq.lhs_inner_update(&a), Some(offer));
        let offered = a.logic().func_id("offered").unwrap();
        assert_eq!(eq.lhs_root(), Some(offered));
    }

    #[test]
    fn paper_equation_4_with_condition_validates() {
        let mut a = sig();
        // c ≠ c' ⟹ offered(c, offer(c', U)) = offered(c, U)
        let cond = parse_formula(a.logic_mut(), "c != c'").unwrap();
        let lhs = t(&mut a, "offered(c, offer(c', U))");
        let rhs = t(&mut a, "offered(c, U)");
        let eq = ConditionalEquation::new("eq4", cond, lhs, rhs);
        validate(&eq, &a).unwrap();
    }

    #[test]
    fn extra_variables_rejected() {
        let mut a = sig();
        let lhs = t(&mut a, "offered(c, initiate)");
        let rhs = t(&mut a, "offered(c', initiate)");
        let eq = ConditionalEquation::unconditional("bad", lhs, rhs);
        assert!(matches!(
            validate(&eq, &a),
            Err(AlgError::BadEquation { .. })
        ));
    }

    #[test]
    fn sort_mismatch_rejected() {
        let mut a = sig();
        let lhs = t(&mut a, "offered(c, initiate)");
        let rhs = t(&mut a, "initiate");
        let eq = ConditionalEquation::unconditional("bad", lhs, rhs);
        assert!(matches!(
            validate(&eq, &a),
            Err(AlgError::BadEquation { .. })
        ));
    }

    #[test]
    fn state_quantified_condition_rejected() {
        let mut a = sig();
        let state = a.state_sort();
        let u2 = a.logic_mut().add_var("V", state).unwrap();
        let cond = Formula::exists(u2, Formula::Eq(Term::Var(u2), Term::Var(a.state_var())));
        let lhs = t(&mut a, "offered(c, offer(c, U))");
        let eq = ConditionalEquation::new("bad", cond, lhs, a.true_term());
        assert!(matches!(
            validate(&eq, &a),
            Err(AlgError::BadEquation { .. })
        ));
    }

    #[test]
    fn u_equation_kind() {
        let mut a = sig();
        // offer(c, offer(c, U)) = offer(c, U): idempotence as a U-equation.
        let lhs = t(&mut a, "offer(c, offer(c, U))");
        let rhs = t(&mut a, "offer(c, U)");
        let eq = ConditionalEquation::unconditional("idem", lhs, rhs);
        validate(&eq, &a).unwrap();
        assert_eq!(eq.kind(&a).unwrap(), EquationKind::U);
    }
}
