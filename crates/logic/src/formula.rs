//! Well-formed formulas of a many-sorted first-order language `L` and of its
//! temporal extension `L_T` (paper §3.1).
//!
//! The temporal extension adds one modal operator, the *possibility* operator
//! `◇` ([`Formula::Possibly`]); the *necessity* operator `□` is its dual and
//! is represented explicitly ([`Formula::Necessarily`]) for readability, with
//! [`Formula::eliminate_necessity`] rewriting `□P` to `¬◇¬P` when the primitive
//! form is wanted.

use std::collections::BTreeSet;

use crate::error::{LogicError, Result};
use crate::signature::Signature;
use crate::symbols::{PredId, VarId};
use crate::term::Term;

/// A well-formed formula.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// The true constant.
    True,
    /// The false constant.
    False,
    /// `p(t1, …, tn)`.
    Pred(PredId, Vec<Term>),
    /// `t1 = t2` (both sides must have the same sort).
    Eq(Term, Term),
    /// `¬P`.
    Not(Box<Formula>),
    /// `P ∧ Q`.
    And(Box<Formula>, Box<Formula>),
    /// `P ∨ Q`.
    Or(Box<Formula>, Box<Formula>),
    /// `P ⟹ Q`.
    Implies(Box<Formula>, Box<Formula>),
    /// `P ⟺ Q`.
    Iff(Box<Formula>, Box<Formula>),
    /// `∀x P`.
    Forall(VarId, Box<Formula>),
    /// `∃x P`.
    Exists(VarId, Box<Formula>),
    /// `◇P` — "possibly P": P holds in some accessible state.
    Possibly(Box<Formula>),
    /// `□P` — "necessarily P": P holds in every accessible state.
    Necessarily(Box<Formula>),
}

impl Formula {
    /// `¬P`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `P ∧ Q`.
    #[must_use]
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// `P ∨ Q`.
    #[must_use]
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// `P ⟹ Q`.
    #[must_use]
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// `P ⟺ Q`.
    #[must_use]
    pub fn iff(self, other: Formula) -> Formula {
        Formula::Iff(Box::new(self), Box::new(other))
    }

    /// `∀x P`.
    #[must_use]
    pub fn forall(x: VarId, body: Formula) -> Formula {
        Formula::Forall(x, Box::new(body))
    }

    /// `∃x P`.
    #[must_use]
    pub fn exists(x: VarId, body: Formula) -> Formula {
        Formula::Exists(x, Box::new(body))
    }

    /// `◇P`.
    #[must_use]
    pub fn possibly(self) -> Formula {
        Formula::Possibly(Box::new(self))
    }

    /// `□P`.
    #[must_use]
    pub fn necessarily(self) -> Formula {
        Formula::Necessarily(Box::new(self))
    }

    /// Conjunction of an iterator of formulas (`True` if empty).
    #[must_use]
    pub fn conj<I: IntoIterator<Item = Formula>>(parts: I) -> Formula {
        let mut it = parts.into_iter();
        match it.next() {
            None => Formula::True,
            Some(first) => it.fold(first, Formula::and),
        }
    }

    /// Universal closure over the given variables, innermost-last.
    #[must_use]
    pub fn forall_all(vars: &[VarId], body: Formula) -> Formula {
        vars.iter()
            .rev()
            .fold(body, |acc, &v| Formula::forall(v, acc))
    }

    /// Existential closure over the given variables, innermost-last.
    #[must_use]
    pub fn exists_all(vars: &[VarId], body: Formula) -> Formula {
        vars.iter()
            .rev()
            .fold(body, |acc, &v| Formula::exists(v, acc))
    }

    /// Whether the formula is first-order (contains no modal operator) —
    /// i.e. a wff of `L` rather than properly of `L_T`. Axioms of this shape
    /// are *static constraints* in the paper's classification (§3.1).
    #[must_use]
    pub fn is_first_order(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Pred(..) | Formula::Eq(..) => true,
            Formula::Not(p) | Formula::Forall(_, p) | Formula::Exists(_, p) => p.is_first_order(),
            Formula::And(p, q)
            | Formula::Or(p, q)
            | Formula::Implies(p, q)
            | Formula::Iff(p, q) => p.is_first_order() && q.is_first_order(),
            Formula::Possibly(_) | Formula::Necessarily(_) => false,
        }
    }

    /// Free variables of the formula.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut BTreeSet::new(), &mut out);
        out
    }

    fn collect_free_vars(&self, bound: &mut BTreeSet<VarId>, out: &mut BTreeSet<VarId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Pred(_, args) => {
                for t in args {
                    for v in t.vars() {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                }
            }
            Formula::Eq(a, b) => {
                for t in [a, b] {
                    for v in t.vars() {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                }
            }
            Formula::Not(p) | Formula::Possibly(p) | Formula::Necessarily(p) => {
                p.collect_free_vars(bound, out);
            }
            Formula::And(p, q)
            | Formula::Or(p, q)
            | Formula::Implies(p, q)
            | Formula::Iff(p, q) => {
                p.collect_free_vars(bound, out);
                q.collect_free_vars(bound, out);
            }
            Formula::Forall(x, p) | Formula::Exists(x, p) => {
                let fresh = bound.insert(*x);
                p.collect_free_vars(bound, out);
                if fresh {
                    bound.remove(x);
                }
            }
        }
    }

    /// Whether the formula has no free variables.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Applies `visit` to every subformula, outermost first.
    pub fn walk<F: FnMut(&Formula)>(&self, visit: &mut F) {
        visit(self);
        match self {
            Formula::True | Formula::False | Formula::Pred(..) | Formula::Eq(..) => {}
            Formula::Not(p)
            | Formula::Possibly(p)
            | Formula::Necessarily(p)
            | Formula::Forall(_, p)
            | Formula::Exists(_, p) => p.walk(visit),
            Formula::And(p, q)
            | Formula::Or(p, q)
            | Formula::Implies(p, q)
            | Formula::Iff(p, q) => {
                p.walk(visit);
                q.walk(visit);
            }
        }
    }

    /// Checks well-sortedness: predicate arities/argument sorts and that both
    /// sides of every equality share a sort.
    ///
    /// # Errors
    /// Returns the first sorting error found.
    pub fn check(&self, sig: &Signature) -> Result<()> {
        match self {
            Formula::True | Formula::False => Ok(()),
            Formula::Pred(p, args) => {
                let decl = sig.pred(*p);
                if decl.arity() != args.len() {
                    return Err(LogicError::ArityMismatch {
                        name: decl.name.clone(),
                        expected: decl.arity(),
                        found: args.len(),
                    });
                }
                for (arg, &expected) in args.iter().zip(&decl.domain) {
                    let found = arg.sort(sig)?;
                    if found != expected {
                        return Err(LogicError::SortMismatch {
                            context: format!("argument of `{}`", decl.name),
                            expected: sig.sort_name(expected).to_string(),
                            found: sig.sort_name(found).to_string(),
                        });
                    }
                }
                Ok(())
            }
            Formula::Eq(a, b) => {
                let sa = a.sort(sig)?;
                let sb = b.sort(sig)?;
                if sa != sb {
                    return Err(LogicError::SortMismatch {
                        context: "equality".to_string(),
                        expected: sig.sort_name(sa).to_string(),
                        found: sig.sort_name(sb).to_string(),
                    });
                }
                Ok(())
            }
            Formula::Not(p)
            | Formula::Possibly(p)
            | Formula::Necessarily(p)
            | Formula::Forall(_, p)
            | Formula::Exists(_, p) => p.check(sig),
            Formula::And(p, q)
            | Formula::Or(p, q)
            | Formula::Implies(p, q)
            | Formula::Iff(p, q) => {
                p.check(sig)?;
                q.check(sig)
            }
        }
    }

    /// Rewrites every `□P` into `¬◇¬P`, the definition given in the paper
    /// ("the modal operator of necessity is the dual of ◇").
    #[must_use]
    pub fn eliminate_necessity(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Pred(..) | Formula::Eq(..) => self.clone(),
            Formula::Not(p) => p.eliminate_necessity().not(),
            Formula::And(p, q) => p.eliminate_necessity().and(q.eliminate_necessity()),
            Formula::Or(p, q) => p.eliminate_necessity().or(q.eliminate_necessity()),
            Formula::Implies(p, q) => p.eliminate_necessity().implies(q.eliminate_necessity()),
            Formula::Iff(p, q) => p.eliminate_necessity().iff(q.eliminate_necessity()),
            Formula::Forall(x, p) => Formula::forall(*x, p.eliminate_necessity()),
            Formula::Exists(x, p) => Formula::exists(*x, p.eliminate_necessity()),
            Formula::Possibly(p) => p.eliminate_necessity().possibly(),
            Formula::Necessarily(p) => p.eliminate_necessity().not().possibly().not(),
        }
    }


    /// Simplifies by sound Boolean laws: constant folding, double negation,
    /// and idempotence. Quantifiers are *not* dropped even over unused
    /// variables (with possibly-empty finite carriers, `∀x P` and `P` can
    /// differ), and `◇True`/`□False` are kept (they depend on successor
    /// existence); only `◇False → False` and `□True → True` fold.
    #[must_use]
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Pred(..) | Formula::Eq(..) => self.clone(),
            Formula::Not(p) => match p.simplify() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Not(inner) => *inner,
                q => q.not(),
            },
            Formula::And(p, q) => match (p.simplify(), q.simplify()) {
                (Formula::False, _) | (_, Formula::False) => Formula::False,
                (Formula::True, x) | (x, Formula::True) => x,
                (x, y) if x == y => x,
                (x, y) => x.and(y),
            },
            Formula::Or(p, q) => match (p.simplify(), q.simplify()) {
                (Formula::True, _) | (_, Formula::True) => Formula::True,
                (Formula::False, x) | (x, Formula::False) => x,
                (x, y) if x == y => x,
                (x, y) => x.or(y),
            },
            Formula::Implies(p, q) => match (p.simplify(), q.simplify()) {
                (Formula::False, _) | (_, Formula::True) => Formula::True,
                (Formula::True, x) => x,
                (x, Formula::False) => x.not().simplify(),
                (x, y) if x == y => Formula::True,
                (x, y) => x.implies(y),
            },
            Formula::Iff(p, q) => match (p.simplify(), q.simplify()) {
                (Formula::True, x) | (x, Formula::True) => x,
                (Formula::False, x) | (x, Formula::False) => x.not().simplify(),
                (x, y) if x == y => Formula::True,
                (x, y) => x.iff(y),
            },
            Formula::Forall(x, p) => Formula::forall(*x, p.simplify()),
            Formula::Exists(x, p) => Formula::exists(*x, p.simplify()),
            Formula::Possibly(p) => match p.simplify() {
                Formula::False => Formula::False,
                q => q.possibly(),
            },
            Formula::Necessarily(p) => match p.simplify() {
                Formula::True => Formula::True,
                q => q.necessarily(),
            },
        }
    }

    /// Number of connectives, quantifiers, modalities and atoms.
    #[must_use]
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Maximum nesting depth of modal operators.
    #[must_use]
    pub fn modal_depth(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Pred(..) | Formula::Eq(..) => 0,
            Formula::Not(p) | Formula::Forall(_, p) | Formula::Exists(_, p) => p.modal_depth(),
            Formula::And(p, q)
            | Formula::Or(p, q)
            | Formula::Implies(p, q)
            | Formula::Iff(p, q) => p.modal_depth().max(q.modal_depth()),
            Formula::Possibly(p) | Formula::Necessarily(p) => 1 + p.modal_depth(),
        }
    }

    /// All predicate symbols occurring in the formula.
    #[must_use]
    pub fn predicates(&self) -> BTreeSet<PredId> {
        let mut out = BTreeSet::new();
        self.walk(&mut |f| {
            if let Formula::Pred(p, _) = f {
                out.insert(*p);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn courses_sig() -> Signature {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        sig.add_db_predicate("takes", &[student, course]).unwrap();
        sig.add_var("s", student).unwrap();
        sig.add_var("c", course).unwrap();
        sig
    }

    fn static_axiom(sig: &Signature) -> Formula {
        // ¬∃s∃c (takes(s,c) ∧ ¬offered(c))
        let s = sig.var_id("s").unwrap();
        let c = sig.var_id("c").unwrap();
        let takes = sig.pred_id("takes").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        Formula::exists(
            s,
            Formula::exists(
                c,
                Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)])
                    .and(Formula::Pred(offered, vec![Term::Var(c)]).not()),
            ),
        )
        .not()
    }

    #[test]
    fn static_axiom_is_first_order_and_closed() {
        let sig = courses_sig();
        let ax = static_axiom(&sig);
        assert!(ax.is_first_order());
        assert!(ax.is_closed());
        assert!(ax.check(&sig).is_ok());
        assert_eq!(ax.modal_depth(), 0);
    }

    #[test]
    fn transition_axiom_detected_as_modal() {
        let sig = courses_sig();
        let s = sig.var_id("s").unwrap();
        let c = sig.var_id("c").unwrap();
        let takes = sig.pred_id("takes").unwrap();
        // ¬∃s∃c ◇(takes(s,c) ∧ ◇(¬∃c' takes(s,c'))) — use c for c' for brevity.
        let inner = Formula::exists(c, Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)]))
            .not()
            .possibly();
        let ax = Formula::exists(
            s,
            Formula::exists(
                c,
                Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)])
                    .and(inner)
                    .possibly(),
            ),
        )
        .not();
        assert!(!ax.is_first_order());
        assert_eq!(ax.modal_depth(), 2);
        assert!(ax.check(&sig).is_ok());
    }

    #[test]
    fn free_and_bound_vars() {
        let sig = courses_sig();
        let s = sig.var_id("s").unwrap();
        let c = sig.var_id("c").unwrap();
        let takes = sig.pred_id("takes").unwrap();
        let f = Formula::exists(c, Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)]));
        assert_eq!(f.free_vars().into_iter().collect::<Vec<_>>(), vec![s]);
        assert!(!f.is_closed());
    }

    #[test]
    fn necessity_elimination_matches_dual() {
        let sig = courses_sig();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let p = Formula::Pred(offered, vec![Term::Var(c)]);
        let boxed = p.clone().necessarily();
        let eliminated = boxed.eliminate_necessity();
        assert_eq!(eliminated, p.not().possibly().not());
    }


    #[test]
    fn simplification_laws() {
        let sig = courses_sig();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let p = Formula::Pred(offered, vec![Term::Var(c)]);

        assert_eq!(p.clone().and(Formula::True).simplify(), p);
        assert_eq!(p.clone().and(Formula::False).simplify(), Formula::False);
        assert_eq!(p.clone().or(Formula::False).simplify(), p);
        assert_eq!(p.clone().not().not().simplify(), p);
        assert_eq!(p.clone().implies(Formula::False).simplify(), p.clone().not());
        assert_eq!(p.clone().iff(p.clone()).simplify(), Formula::True);
        assert_eq!(Formula::False.possibly().simplify(), Formula::False);
        assert_eq!(Formula::True.necessarily().simplify(), Formula::True);
        // ◇True is NOT folded (depends on successor existence).
        assert_eq!(Formula::True.possibly().simplify(), Formula::True.possibly());
        // Quantifiers are preserved.
        let q = Formula::forall(c, Formula::True);
        assert_eq!(q.simplify(), q);
    }

    #[test]
    fn conj_disj_closures() {
        assert_eq!(Formula::conj(Vec::new()), Formula::True);
        let sig = courses_sig();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let p = Formula::Pred(offered, vec![Term::Var(c)]);
        let closed = Formula::forall_all(&[c], p.clone());
        assert!(closed.is_closed());
        let opened = Formula::exists_all(&[c], p);
        assert!(opened.is_closed());
    }

    #[test]
    fn ill_sorted_equality_rejected() {
        let mut sig = courses_sig();
        let student = sig.sort_id("student").unwrap();
        let course = sig.sort_id("course").unwrap();
        let a = sig.add_constant("a", student).unwrap();
        let b = sig.add_constant("b", course).unwrap();
        let f = Formula::Eq(Term::constant(a), Term::constant(b));
        assert!(matches!(
            f.check(&sig),
            Err(LogicError::SortMismatch { .. })
        ));
    }
}
