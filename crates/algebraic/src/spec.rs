//! Algebraic specifications `T2 = (L2, A2)`.

use std::sync::Arc;

use eclectic_kernel::TermStore;
use eclectic_logic::FuncId;

use crate::equation::{ConditionalEquation, EquationKind};
use crate::error::{AlgError, Result};
use crate::signature::AlgSignature;

/// An algebraic specification: an [`AlgSignature`] plus validated
/// conditional equations, restricted — as in the paper — to finitely
/// generated algebras, so that ground `state` terms (traces of updates)
/// denote all states and structural induction is available as a proof rule.
#[derive(Debug, Clone)]
pub struct AlgSpec {
    sig: Arc<AlgSignature>,
    equations: Vec<ConditionalEquation>,
    /// Equation kinds, cached at validation time (per-equation sorts come
    /// from the kernel's per-node sort cache, shared across all equations).
    kinds: Vec<EquationKind>,
    /// Equation indices grouped by lhs root symbol for fast rule lookup.
    by_root: std::collections::BTreeMap<FuncId, Vec<usize>>,
}

impl AlgSpec {
    /// Creates a specification, validating every equation.
    ///
    /// # Errors
    /// Returns the first equation validation error.
    pub fn new(sig: AlgSignature, equations: Vec<ConditionalEquation>) -> Result<Self> {
        let sig = Arc::new(sig);
        let mut by_root = std::collections::BTreeMap::new();
        // One store for the whole specification: subterms shared across
        // equations (state variables, nested update patterns) are interned
        // and sorted once.
        let mut store = TermStore::new();
        let mut kinds = Vec::with_capacity(equations.len());
        for (i, eq) in equations.iter().enumerate() {
            kinds.push(eq.validate_with(&sig, &mut store)?);
            let root = eq.lhs_root().ok_or_else(|| AlgError::BadEquation {
                name: eq.name.clone(),
                reason: "lhs must be a function application".into(),
            })?;
            by_root.entry(root).or_insert_with(Vec::new).push(i);
        }
        Ok(AlgSpec {
            sig,
            equations,
            kinds,
            by_root,
        })
    }

    /// The signature.
    #[must_use]
    pub fn signature(&self) -> &Arc<AlgSignature> {
        &self.sig
    }

    /// All equations.
    #[must_use]
    pub fn equations(&self) -> &[ConditionalEquation] {
        &self.equations
    }

    /// The equations whose lhs root is the given symbol.
    pub fn equations_for(&self, root: FuncId) -> impl Iterator<Item = &ConditionalEquation> {
        self.by_root
            .get(&root)
            .into_iter()
            .flatten()
            .map(|&i| &self.equations[i])
    }

    /// The Q-equations.
    ///
    /// # Errors
    /// Infallible since kinds are cached at validation time; the `Result`
    /// is kept for signature stability.
    pub fn q_equations(&self) -> Result<Vec<&ConditionalEquation>> {
        Ok(self
            .equations
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == EquationKind::Q)
            .map(|(e, _)| e)
            .collect())
    }

    /// The U-equations.
    ///
    /// # Errors
    /// Infallible since kinds are cached at validation time; the `Result`
    /// is kept for signature stability.
    pub fn u_equations(&self) -> Result<Vec<&ConditionalEquation>> {
        Ok(self
            .equations
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == EquationKind::U)
            .map(|(e, _)| e)
            .collect())
    }

    /// Finds an equation by name.
    #[must_use]
    pub fn equation(&self, name: &str) -> Option<&ConditionalEquation> {
        self.equations.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_logic::{parse_term, Term};

    fn tiny() -> AlgSpec {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        let lhs = parse_term(a.logic_mut(), "offered(c, initiate)").unwrap();
        let rhs = a.false_term();
        let eq1 = ConditionalEquation::unconditional("eq1", lhs, rhs);
        let lhs = parse_term(a.logic_mut(), "offered(c, offer(c, U))").unwrap();
        let eq3 = ConditionalEquation::unconditional("eq3", lhs, a.true_term());
        AlgSpec::new(a, vec![eq1, eq3]).unwrap()
    }

    #[test]
    fn lookup_by_root_and_name() {
        let spec = tiny();
        let offered = spec.signature().logic().func_id("offered").unwrap();
        assert_eq!(spec.equations_for(offered).count(), 2);
        assert!(spec.equation("eq1").is_some());
        assert!(spec.equation("nope").is_none());
        assert_eq!(spec.q_equations().unwrap().len(), 2);
        assert!(spec.u_equations().unwrap().is_empty());
    }

    #[test]
    fn invalid_equation_rejected_at_build() {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_param_var("c", course).unwrap();
        let c = a.logic().var_id("c").unwrap();
        // Var lhs is rejected.
        let eq = ConditionalEquation::unconditional("bad", Term::Var(c), Term::Var(c));
        assert!(AlgSpec::new(a, vec![eq]).is_err());
    }
}
