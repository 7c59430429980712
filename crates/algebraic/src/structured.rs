//! Structured descriptions of update functions.
//!
//! Paper §4.2: "we employ structured descriptions giving, for each update
//! function, its intended effects, preconditions for state change, possible
//! side-effects, and simple observations that are not affected." Equations
//! derived from these descriptions are "guaranteed, by construction, to be
//! correct with respect to the description" — see [`crate::synthesis`].

use eclectic_logic::{Formula, FuncId, Term, VarId};

use crate::equation::check_condition_fragment;
use crate::error::{AlgError, Result};
use crate::signature::{AlgSignature, OpKind};

/// One intended effect (or side-effect): after the update, the query applied
/// to `args` observes `value`, where `args` are terms over the update's
/// parameter variables and `value` is a term evaluated *in the old state*
/// (typically `True`/`False`, but any term mentioning the state variable `U`
/// is allowed).
#[derive(Debug, Clone, PartialEq)]
pub struct Effect {
    /// The affected query.
    pub query: FuncId,
    /// Query arguments, as terms over the update's parameter variables.
    pub args: Vec<Term>,
    /// New observed value (a term over the parameters and `U`).
    pub value: Term,
}

/// A structured description of one update function.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuredDescription {
    /// The update being described.
    pub update: FuncId,
    /// The update's parameter variables, in declaration order.
    pub params: Vec<VarId>,
    /// Documentation string (the paper's `/* … */` comment).
    pub comment: String,
    /// Precondition for state change; [`Formula::True`] if unconditional.
    /// When it fails the update leaves the state unchanged.
    pub precondition: Formula,
    /// Intended effects, applied in order (later effects win on overlap).
    pub effects: Vec<Effect>,
    /// Possible side-effects, applied after the intended effects.
    pub side_effects: Vec<Effect>,
}

impl StructuredDescription {
    /// All effects in application order (intended first, then side-effects).
    #[must_use]
    pub fn all_effects(&self) -> Vec<&Effect> {
        self.effects.iter().chain(&self.side_effects).collect()
    }

    /// Validates the description against the signature.
    ///
    /// # Errors
    /// Returns [`AlgError::BadDescription`] on the first problem.
    pub fn validate(&self, sig: &AlgSignature) -> Result<()> {
        let bad = |m: String| AlgError::BadDescription(m);
        if sig.kind(self.update) != OpKind::Update {
            return Err(bad(format!(
                "`{}` is not an update function",
                sig.logic().func(self.update).name
            )));
        }
        let expected = sig.update_params(self.update)?;
        if self.params.len() != expected.len() {
            return Err(bad(format!(
                "`{}` has {} parameter(s), description declares {}",
                sig.logic().func(self.update).name,
                expected.len(),
                self.params.len()
            )));
        }
        for (v, &s) in self.params.iter().zip(&expected) {
            if sig.logic().var(*v).sort != s {
                return Err(bad(format!(
                    "parameter variable `{}` has the wrong sort",
                    sig.logic().var(*v).name
                )));
            }
        }
        check_condition_fragment(sig, &self.precondition)
            .map_err(|e| bad(format!("precondition: {e}")))?;
        for eff in self.all_effects() {
            if sig.kind(eff.query) != OpKind::Query {
                return Err(bad(format!(
                    "effect on `{}`, which is not a query",
                    sig.logic().func(eff.query).name
                )));
            }
            let qp = sig.query_params(eff.query)?;
            if eff.args.len() != qp.len() {
                return Err(bad(format!(
                    "effect on `{}` has wrong arity",
                    sig.logic().func(eff.query).name
                )));
            }
            for (a, &s) in eff.args.iter().zip(&qp) {
                let found = a.sort(sig.logic())?;
                if found != s {
                    return Err(bad(format!(
                        "effect argument of `{}` has sort `{}`, expected `{}`",
                        sig.logic().func(eff.query).name,
                        sig.logic().sort_name(found),
                        sig.logic().sort_name(s)
                    )));
                }
            }
            let target = sig.logic().func(eff.query).range;
            let vsort = eff.value.sort(sig.logic())?;
            if vsort != target {
                return Err(bad(format!(
                    "effect value for `{}` has sort `{}`, expected `{}`",
                    sig.logic().func(eff.query).name,
                    sig.logic().sort_name(vsort),
                    sig.logic().sort_name(target)
                )));
            }
        }
        Ok(())
    }
}

/// Default observations of the initial state (e.g. everything `False` after
/// `initiate`): query → ground default value.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialState {
    /// The initial-state constant (an update taking no state).
    pub update: FuncId,
    /// Per-query default value (a ground term of the query's target sort).
    pub defaults: Vec<(FuncId, Term)>,
}

impl InitialState {
    /// Validates against the signature: every query must have exactly one
    /// ground default of the right sort.
    ///
    /// # Errors
    /// Returns [`AlgError::BadDescription`] on the first problem.
    pub fn validate(&self, sig: &AlgSignature) -> Result<()> {
        let bad = |m: String| AlgError::BadDescription(m);
        if sig.kind(self.update) != OpKind::Update || sig.update_takes_state(self.update)? {
            return Err(bad("initial state must be a state constant".into()));
        }
        for q in sig.queries() {
            let count = self.defaults.iter().filter(|(f, _)| *f == q).count();
            if count != 1 {
                return Err(bad(format!(
                    "query `{}` needs exactly one initial default, found {count}",
                    sig.logic().func(q).name
                )));
            }
        }
        for (q, v) in &self.defaults {
            if sig.kind(*q) != OpKind::Query {
                return Err(bad(format!(
                    "`{}` is not a query",
                    sig.logic().func(*q).name
                )));
            }
            if !v.is_ground() {
                return Err(bad("initial defaults must be ground".into()));
            }
            let target = sig.logic().func(*q).range;
            if v.sort(sig.logic())? != target {
                return Err(bad(format!(
                    "default for `{}` has the wrong sort",
                    sig.logic().func(*q).name
                )));
            }
        }
        Ok(())
    }

    /// The default for a query, if present.
    #[must_use]
    pub fn default_for(&self, q: FuncId) -> Option<&Term> {
        self.defaults.iter().find(|(f, _)| *f == q).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_logic::parse_formula;

    fn sig() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana"]).unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_query("takes", &[student, course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("s", student).unwrap();
        a
    }

    /// The paper's §4.2 structured description of `cancel`.
    fn cancel_description(a: &mut AlgSignature) -> StructuredDescription {
        let cancel = a.logic().func_id("cancel").unwrap();
        let offered = a.logic().func_id("offered").unwrap();
        let c = a.logic().var_id("c").unwrap();
        let pre = parse_formula(a.logic_mut(), "forall s:student. takes(s, c, U) = False").unwrap();
        StructuredDescription {
            update: cancel,
            params: vec![c],
            comment: "course c is cancelled, providing no student takes it".into(),
            precondition: pre,
            effects: vec![Effect {
                query: offered,
                args: vec![Term::Var(c)],
                value: a.false_term(),
            }],
            side_effects: vec![],
        }
    }

    #[test]
    fn paper_cancel_description_validates() {
        let mut a = sig();
        let d = cancel_description(&mut a);
        d.validate(&a).unwrap();
        assert_eq!(d.all_effects().len(), 1);
    }

    #[test]
    fn wrong_sort_effect_rejected() {
        let mut a = sig();
        let mut d = cancel_description(&mut a);
        let s = a.logic().var_id("s").unwrap();
        d.effects[0].args = vec![Term::Var(s)]; // student where course expected
        assert!(matches!(d.validate(&a), Err(AlgError::BadDescription(_))));
    }

    #[test]
    fn wrong_value_sort_rejected() {
        let mut a = sig();
        let mut d = cancel_description(&mut a);
        let c = a.logic().var_id("c").unwrap();
        d.effects[0].value = Term::Var(c); // course where Bool expected
        assert!(matches!(d.validate(&a), Err(AlgError::BadDescription(_))));
    }

    #[test]
    fn initial_state_validation() {
        let a = sig();
        let initiate = a.logic().func_id("initiate").unwrap();
        let offered = a.logic().func_id("offered").unwrap();
        let takes = a.logic().func_id("takes").unwrap();
        let good = InitialState {
            update: initiate,
            defaults: vec![(offered, a.false_term()), (takes, a.false_term())],
        };
        good.validate(&a).unwrap();
        assert_eq!(good.default_for(offered), Some(&a.false_term()));

        let missing = InitialState {
            update: initiate,
            defaults: vec![(offered, a.false_term())],
        };
        assert!(matches!(
            missing.validate(&a),
            Err(AlgError::BadDescription(_))
        ));

        let cancel = a.logic().func_id("cancel").unwrap();
        let wrong_ctor = InitialState {
            update: cancel,
            defaults: vec![(offered, a.false_term()), (takes, a.false_term())],
        };
        assert!(matches!(
            wrong_ctor.validate(&a),
            Err(AlgError::BadDescription(_))
        ));
    }
}
