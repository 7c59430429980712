//! Theories: a language together with a set of named axioms.
//!
//! An information-level specification is a theory `T1 = (L1, A1)` where `L1`
//! is the temporal extension of a many-sorted first-order language and the
//! axioms of `A1` are *static constraints* (no modalities) or *transition
//! constraints* (with modalities) — paper §3.1.

use std::sync::Arc;

use crate::error::Result;
use crate::eval::models;
use crate::formula::Formula;
use crate::signature::Signature;
use crate::structure::Structure;

/// Classification of an axiom per the paper's §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// No modal operators: restricts individual states.
    Static,
    /// Contains modal operators: restricts transitions between states.
    Transition,
}

/// A named axiom.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedFormula {
    /// Axiom name, for diagnostics and reports.
    pub name: String,
    /// The formula itself (must be closed).
    pub formula: Formula,
}

impl NamedFormula {
    /// Creates a named axiom.
    #[must_use]
    pub fn new(name: impl Into<String>, formula: Formula) -> Self {
        NamedFormula {
            name: name.into(),
            formula,
        }
    }

    /// The paper's classification of this axiom.
    #[must_use]
    pub fn kind(&self) -> ConstraintKind {
        if self.formula.is_first_order() {
            ConstraintKind::Static
        } else {
            ConstraintKind::Transition
        }
    }
}

/// A theory `T = (L, A)`: a signature and a set of named axioms.
#[derive(Debug, Clone)]
pub struct Theory {
    /// The underlying language.
    pub signature: Arc<Signature>,
    /// The axioms.
    pub axioms: Vec<NamedFormula>,
}

impl Theory {
    /// Creates a theory with no axioms.
    #[must_use]
    pub fn new(signature: Arc<Signature>) -> Self {
        Theory {
            signature,
            axioms: Vec::new(),
        }
    }

    /// Adds an axiom after checking well-sortedness and closedness.
    ///
    /// # Errors
    /// Returns a sorting error for ill-sorted axioms.
    pub fn add_axiom(&mut self, name: impl Into<String>, formula: Formula) -> Result<()> {
        formula.check(&self.signature)?;
        self.axioms.push(NamedFormula::new(name, formula));
        Ok(())
    }

    /// The static axioms (no modalities).
    pub fn static_axioms(&self) -> impl Iterator<Item = &NamedFormula> {
        self.axioms
            .iter()
            .filter(|a| a.kind() == ConstraintKind::Static)
    }

    /// The transition axioms (with modalities).
    pub fn transition_axioms(&self) -> impl Iterator<Item = &NamedFormula> {
        self.axioms
            .iter()
            .filter(|a| a.kind() == ConstraintKind::Transition)
    }

    /// Whether the structure is a model of every *static* axiom — the
    /// paper's "a structure A corresponds to a consistent state iff it is a
    /// model of A1" restricted to the first-order fragment (transition
    /// axioms need a universe; see `eclectic-temporal`).
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn models_static(&self, st: &Structure) -> Result<bool> {
        for ax in self.static_axioms() {
            if !models(st, &ax.formula)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{Domains, Elem};
    use crate::symbols::VarId;
    use crate::term::Term;

    fn courses_theory() -> (Theory, Arc<Domains>) {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        let offered = sig.add_db_predicate("offered", &[course]).unwrap();
        let takes = sig.add_db_predicate("takes", &[student, course]).unwrap();
        let s = sig.add_var("s", student).unwrap();
        let c = sig.add_var("c", course).unwrap();
        let dom = Arc::new(
            Domains::from_names(&sig, &[("student", &["ana"]), ("course", &["db"])]).unwrap(),
        );
        let sig = Arc::new(sig);
        let mut th = Theory::new(sig);
        let static_ax = Formula::exists(
            s,
            Formula::exists(
                c,
                Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)])
                    .and(Formula::Pred(offered, vec![Term::Var(c)]).not()),
            ),
        )
        .not();
        th.add_axiom("static", static_ax).unwrap();
        let trans_ax = Formula::exists(
            s,
            Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)])
                .possibly(),
        );
        // Close over c to keep the axiom closed.
        let trans_ax = Formula::forall(c, trans_ax).not();
        th.add_axiom("transition", trans_ax).unwrap();
        (th, dom)
    }

    #[test]
    fn classification() {
        let (th, _) = courses_theory();
        assert_eq!(th.static_axioms().count(), 1);
        assert_eq!(th.transition_axioms().count(), 1);
        assert_eq!(th.axioms[0].kind(), ConstraintKind::Static);
        assert_eq!(th.axioms[1].kind(), ConstraintKind::Transition);
    }

    #[test]
    fn static_model_checking() {
        let (th, dom) = courses_theory();
        let sig = th.signature.clone();
        let takes = sig.pred_id("takes").unwrap();
        let offered = sig.pred_id("offered").unwrap();

        let empty = Structure::new(sig.clone(), dom.clone());
        assert!(th.models_static(&empty).unwrap());

        let mut bad = Structure::new(sig.clone(), dom.clone());
        bad.insert_pred(takes, vec![Elem(0), Elem(0)]).unwrap();
        assert!(!th.models_static(&bad).unwrap());

        let mut good = bad.clone();
        good.insert_pred(offered, vec![Elem(0)]).unwrap();
        assert!(th.models_static(&good).unwrap());
    }

    #[test]
    fn ill_sorted_axiom_rejected() {
        let (mut th, _) = courses_theory();
        let sig = th.signature.clone();
        let offered = sig.pred_id("offered").unwrap();
        let s = sig.var_id("s").unwrap();
        // offered applied to a student variable: ill-sorted.
        let bad = Formula::forall(s, Formula::Pred(offered, vec![Term::Var(s)]));
        assert!(th.add_axiom("bad", bad).is_err());
        let _ = VarId(0);
    }
}
