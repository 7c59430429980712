//! Checking information-level theories over Kripke universes.
//!
//! A structure corresponds to a *consistent* state iff it models the static
//! axioms; transition axioms are modal wffs that must hold at every state of
//! the universe (paper §3.1–3.2).

use eclectic_logic::{ConstraintKind, Result, Theory};

use crate::satisfaction::models_at;
use crate::universe::{StateIdx, Universe};

/// How accessibility should be interpreted when checking transition
/// constraints (the DESIGN.md ablation: single-step successor relation vs
/// its reflexive-transitive closure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessibilityPolicy {
    /// Use the relation as stored in the universe.
    #[default]
    AsIs,
    /// Check over the reflexive-transitive closure (computed on a copy).
    TransitiveClosure,
}

/// Outcome of checking one axiom at one state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated axiom.
    pub axiom: String,
    /// Classification of the axiom.
    pub kind: ConstraintKind,
    /// State at which it failed.
    pub state: StateIdx,
}

/// Summary of checking a theory over a universe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// States failing some static axiom (inconsistent states), one entry per
    /// (axiom, state) pair.
    pub static_violations: Vec<Violation>,
    /// States failing some transition axiom.
    pub transition_violations: Vec<Violation>,
    /// Number of states checked.
    pub states_checked: usize,
    /// Number of axioms checked.
    pub axioms_checked: usize,
}

impl CheckReport {
    /// Whether every axiom holds at every state.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.static_violations.is_empty() && self.transition_violations.is_empty()
    }
}

/// Checks every axiom of the theory at every state of the universe.
///
/// # Errors
/// Propagates evaluation errors (e.g. open axioms).
pub fn check_theory(
    theory: &Theory,
    universe: &Universe,
    policy: AccessibilityPolicy,
) -> Result<CheckReport> {
    let closed;
    let u = match policy {
        AccessibilityPolicy::AsIs => universe,
        AccessibilityPolicy::TransitiveClosure => {
            let mut c = universe.clone();
            c.close_reflexive_transitive();
            closed = c;
            &closed
        }
    };

    let mut report = CheckReport {
        states_checked: u.state_count(),
        axioms_checked: theory.axioms.len(),
        ..CheckReport::default()
    };

    for ax in &theory.axioms {
        for s in u.state_indices() {
            if !models_at(u, s, &ax.formula)? {
                let v = Violation {
                    axiom: ax.name.clone(),
                    kind: ax.kind(),
                    state: s,
                };
                match ax.kind() {
                    ConstraintKind::Static => report.static_violations.push(v),
                    ConstraintKind::Transition => report.transition_violations.push(v),
                }
            }
        }
    }
    Ok(report)
}

/// The consistent states of the universe: those modelling all static axioms.
///
/// # Errors
/// Propagates evaluation errors.
pub fn consistent_states(theory: &Theory, universe: &Universe) -> Result<Vec<StateIdx>> {
    let mut out = Vec::new();
    for s in universe.state_indices() {
        if theory.models_static(universe.state(s))? {
            out.push(s);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_logic::{parse_formula, Domains, Elem, Signature, Structure};
    use std::sync::Arc;

    /// The paper's courses example over tiny carriers, with a universe that
    /// violates the transition constraint: ana takes db, then drops to
    /// nothing.
    fn setup(violating: bool) -> (Theory, Universe) {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        sig.add_db_predicate("takes", &[student, course]).unwrap();
        sig.add_var("s", student).unwrap();
        sig.add_var("c", course).unwrap();

        let static_ax = parse_formula(
            &mut sig,
            "~exists s:student. exists c:course. takes(s, c) & ~offered(c)",
        )
        .unwrap();
        let trans_ax = parse_formula(
            &mut sig,
            "~exists s:student. exists c:course. dia (takes(s, c) & dia ~exists c':course. takes(s, c'))",
        )
        .unwrap();

        let dom = Arc::new(
            Domains::from_names(&sig, &[("student", &["ana"]), ("course", &["db"])]).unwrap(),
        );
        let sig = Arc::new(sig);
        let mut theory = Theory::new(sig.clone());
        theory
            .add_axiom("static-1", static_ax)
            .unwrap();
        theory.add_axiom("transition-2", trans_ax).unwrap();

        let offered = sig.pred_id("offered").unwrap();
        let takes = sig.pred_id("takes").unwrap();

        // States: empty; offered-only; offered+taking.
        let empty = Structure::new(sig.clone(), dom.clone());
        let mut off = Structure::new(sig.clone(), dom.clone());
        off.insert_pred(offered, vec![Elem(0)]).unwrap();
        let mut taking = off.clone();
        taking.insert_pred(takes, vec![Elem(0), Elem(0)]).unwrap();

        let mut u = Universe::new(sig, dom);
        let (e, _) = u.add_state(empty).unwrap();
        let (o, _) = u.add_state(off).unwrap();
        let (t, _) = u.add_state(taking).unwrap();
        u.add_edge(e, o);
        u.add_edge(o, t);
        if violating {
            // From "taking" the student can drop back to the empty state:
            // takes(ana, db) now, no course in a future state.
            u.add_edge(t, e);
        }
        (theory, u)
    }

    #[test]
    fn clean_universe_passes() {
        let (theory, u) = setup(false);
        let report = check_theory(&theory, &u, AccessibilityPolicy::AsIs).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.states_checked, 3);
        assert_eq!(report.axioms_checked, 2);
    }

    #[test]
    fn dropping_to_zero_courses_violates_transition_axiom() {
        let (theory, u) = setup(true);
        let report = check_theory(&theory, &u, AccessibilityPolicy::AsIs).unwrap();
        assert!(report.static_violations.is_empty());
        assert!(!report.transition_violations.is_empty());
        assert_eq!(report.transition_violations[0].axiom, "transition-2");
    }

    #[test]
    fn closure_policy_finds_distant_violations() {
        // Build a chain where the violation is two steps away; single-step
        // ◇◇ still catches it, but with closure the outer ◇ alone suffices
        // for reachability-style constraints. Here we just confirm the
        // closure policy agrees on the violating chain.
        let (theory, u) = setup(true);
        let report = check_theory(&theory, &u, AccessibilityPolicy::TransitiveClosure).unwrap();
        assert!(!report.transition_violations.is_empty());
    }

    #[test]
    fn consistent_states_filter_static_axioms() {
        let (theory, mut u) = setup(false);
        // Add an inconsistent state: taking a course that is not offered.
        let sig = u.signature().clone();
        let takes = sig.pred_id("takes").unwrap();
        let mut bad = Structure::new(sig.clone(), u.domains().clone());
        bad.insert_pred(takes, vec![Elem(0), Elem(0)]).unwrap();
        let (b, _) = u.add_state(bad).unwrap();
        let consistent = consistent_states(&theory, &u).unwrap();
        assert_eq!(consistent.len(), 3);
        assert!(!consistent.contains(&b));
    }
}
