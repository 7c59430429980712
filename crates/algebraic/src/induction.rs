//! Enumeration of ground `state` terms and bounded structural induction.
//!
//! The paper restricts algebraic specifications to finitely generated
//! algebras so that "the principle of structural induction (on terms)" is a
//! proof rule (§4.1). The set `T` of ground state terms is the smallest set
//! containing the initial constants and closed under symbolic application of
//! the update functions (§4.2). This module enumerates `T` up to a step
//! bound; the exhaustive sweeps over it are the bounded inductions.

use std::sync::Arc;

use eclectic_kernel::{FxHashMap, TermId};
use eclectic_logic::{SortId, Term};

use crate::error::{AlgError, Result};
use crate::rewrite::Rewriter;
use crate::signature::AlgSignature;

/// All tuples of parameter names over the given sorts (cartesian product).
///
/// # Errors
/// Returns [`AlgError::NotAParamSort`] if a sort is the state sort.
pub fn param_tuples(sig: &AlgSignature, sorts: &[SortId]) -> Result<Vec<Vec<Term>>> {
    let mut out = vec![Vec::new()];
    for &s in sorts {
        if s == sig.state_sort() {
            return Err(AlgError::NotAParamSort(
                sig.logic().sort_name(s).to_string(),
            ));
        }
        let names: Vec<Term> = sig.param_names(s).into_iter().map(Term::constant).collect();
        let mut next = Vec::with_capacity(out.len() * names.len().max(1));
        for prefix in &out {
            for n in &names {
                let mut t = prefix.clone();
                t.push(n.clone());
                next.push(t);
            }
        }
        out = next;
    }
    Ok(out)
}

/// Like [`param_tuples`], but interned into the rewriter's store: tuples of
/// parameter-name constant ids, ready for [`Rewriter::eval_query_id`].
///
/// # Errors
/// Returns [`AlgError::NotAParamSort`] if a sort is the state sort.
pub fn param_tuple_ids(
    rw: &mut Rewriter<'_>,
    sorts: &[SortId],
) -> Result<Vec<Vec<TermId>>> {
    let sig = rw.spec().signature().clone();
    let mut out = vec![Vec::new()];
    for &s in sorts {
        if s == sig.state_sort() {
            return Err(AlgError::NotAParamSort(
                sig.logic().sort_name(s).to_string(),
            ));
        }
        let names: Vec<TermId> = sig
            .param_names(s)
            .into_iter()
            .map(|f| rw.store_mut().constant(f))
            .collect();
        let mut next = Vec::with_capacity(out.len() * names.len().max(1));
        for prefix in &out {
            for &n in &names {
                let mut t = prefix.clone();
                t.push(n);
                next.push(t);
            }
        }
        out = next;
    }
    Ok(out)
}

/// Like [`initial_state_terms`], but interned into the rewriter's store.
///
/// # Errors
/// Propagates signature errors.
pub fn initial_state_ids(rw: &mut Rewriter<'_>) -> Result<Vec<TermId>> {
    let sig = rw.spec().signature().clone();
    let mut out = Vec::new();
    for u in sig.updates() {
        if !sig.update_takes_state(u)? {
            for params in param_tuple_ids(rw, &sig.update_params(u)?)? {
                out.push(rw.app_id(u, &params));
            }
        }
    }
    Ok(out)
}

/// A precompiled successor plan: every state-taking update paired with its
/// interned parameter tuples, enumerated once. Per-state successor
/// construction is then pure id appends into a reusable buffer — no
/// re-enumeration of tuples and no fresh allocations on the exploration hot
/// path.
#[derive(Debug, Clone)]
pub struct SuccessorPlan {
    plan: Vec<(eclectic_logic::FuncId, Vec<Vec<TermId>>)>,
    /// Total successors per state (sum of tuple counts).
    count: usize,
    /// Widest parameter tuple, for pre-sizing the argument buffer.
    max_params: usize,
}

impl SuccessorPlan {
    /// Compiles the plan for the rewriter's specification.
    ///
    /// # Errors
    /// Propagates signature errors.
    pub fn new(rw: &mut Rewriter<'_>) -> Result<Self> {
        let sig = rw.spec().signature().clone();
        let mut plan = Vec::new();
        let mut count = 0;
        let mut max_params = 0;
        for u in sig.updates() {
            if sig.update_takes_state(u)? {
                let tuples = param_tuple_ids(rw, &sig.update_params(u)?)?;
                count += tuples.len();
                max_params = max_params.max(tuples.first().map_or(0, Vec::len));
                plan.push((u, tuples));
            }
        }
        Ok(SuccessorPlan {
            plan,
            count,
            max_params,
        })
    }

    /// Number of successors every state has under this plan.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Builds the one-step successors of `state` into a reusable buffer
    /// (cleared first), in the same (update, parameter-tuple) order as
    /// [`successor_terms`].
    pub fn successors_into(
        &self,
        rw: &mut Rewriter<'_>,
        state: TermId,
        out: &mut Vec<TermId>,
    ) {
        out.clear();
        out.reserve(self.count);
        let mut args: Vec<TermId> = Vec::with_capacity(self.max_params + 1);
        for (u, tuples) in &self.plan {
            for params in tuples {
                args.clear();
                args.extend_from_slice(params);
                args.push(state);
                out.push(rw.app_id(*u, &args));
            }
        }
    }
}

/// The initial state terms: update constants that take no state argument
/// (e.g. `initiate`) applied to every parameter tuple.
///
/// # Errors
/// Propagates signature errors.
pub fn initial_state_terms(sig: &AlgSignature) -> Result<Vec<Term>> {
    let mut out = Vec::new();
    for u in sig.updates() {
        if !sig.update_takes_state(u)? {
            for params in param_tuples(sig, &sig.update_params(u)?)? {
                out.push(Term::App(u, params));
            }
        }
    }
    Ok(out)
}

/// The one-step successors of a state term: every state-taking update
/// applied with every parameter tuple.
///
/// # Errors
/// Propagates signature errors.
pub fn successor_terms(sig: &AlgSignature, state: &Term) -> Result<Vec<Term>> {
    let mut out = Vec::new();
    for u in sig.updates() {
        if sig.update_takes_state(u)? {
            for params in param_tuples(sig, &sig.update_params(u)?)? {
                let mut args = params;
                args.push(state.clone());
                out.push(Term::App(u, args));
            }
        }
    }
    Ok(out)
}

/// Enumerates all ground state terms reachable in at most `max_steps`
/// update applications, grouped by step count (`result[k]` holds the terms
/// with exactly `k` updates after the initial constant).
///
/// No deduplication is performed: these are syntactically distinct *terms*
/// (the carrier of the finitely generated term algebra), not states modulo
/// observational equality — use [`crate::observe`] for the quotient.
///
/// # Errors
/// Returns [`AlgError::BadDescription`] if the signature has no initial
/// state constant.
pub fn state_terms_by_depth(sig: &AlgSignature, max_steps: usize) -> Result<Vec<Vec<Term>>> {
    let init = initial_state_terms(sig)?;
    if init.is_empty() {
        return Err(AlgError::BadDescription(
            "no initial state constant (e.g. `initiate`) declared".into(),
        ));
    }
    let mut levels = vec![init];
    for k in 0..max_steps {
        let mut next = Vec::new();
        for t in &levels[k] {
            next.extend(successor_terms(sig, t)?);
        }
        levels.push(next);
    }
    Ok(levels)
}

/// Flattens [`state_terms_by_depth`].
///
/// # Errors
/// See [`state_terms_by_depth`].
pub fn state_terms(sig: &AlgSignature, max_steps: usize) -> Result<Vec<Term>> {
    Ok(state_terms_by_depth(sig, max_steps)?
        .into_iter()
        .flatten()
        .collect())
}

/// A cached ground-instance enumeration for one (signature, depth) pair:
/// the bounded-depth state terms plus the parameter tuples of every query
/// and update, each enumerated exactly once. The completeness and
/// confluence sweeps iterate the same product of instances; sharing one
/// `GroundSpace` removes their per-call re-enumeration and gives the
/// parallel sweeps an immutable, `Sync` work list to chunk over.
#[derive(Debug, Clone)]
pub struct GroundSpace {
    states: Vec<Term>,
    tuples: FxHashMap<Vec<SortId>, Arc<Vec<Vec<Term>>>>,
}

impl GroundSpace {
    /// Enumerates the space: state terms up to `depth` update applications
    /// plus the parameter tuples of every declared query and update.
    ///
    /// # Errors
    /// See [`state_terms_by_depth`] and [`param_tuples`].
    pub fn new(sig: &AlgSignature, depth: usize) -> Result<Self> {
        let states = state_terms(sig, depth)?;
        let mut tuples: FxHashMap<Vec<SortId>, Arc<Vec<Vec<Term>>>> = FxHashMap::default();
        let mut sort_lists: Vec<Vec<SortId>> = Vec::new();
        for q in sig.queries() {
            sort_lists.push(sig.query_params(q)?);
        }
        for u in sig.updates() {
            sort_lists.push(sig.update_params(u)?);
        }
        for sorts in sort_lists {
            if let std::collections::hash_map::Entry::Vacant(e) = tuples.entry(sorts) {
                let t = Arc::new(param_tuples(sig, e.key())?);
                e.insert(t);
            }
        }
        Ok(GroundSpace { states, tuples })
    }

    /// All state terms, flattened in depth order (as [`state_terms`]).
    #[must_use]
    pub fn states(&self) -> &[Term] {
        &self.states
    }

    /// The parameter tuples over a sort list — cached when the list belongs
    /// to a declared query or update, freshly enumerated otherwise.
    ///
    /// # Errors
    /// See [`param_tuples`].
    pub fn tuples(&self, sig: &AlgSignature, sorts: &[SortId]) -> Result<Arc<Vec<Vec<Term>>>> {
        if let Some(t) = self.tuples.get(sorts) {
            return Ok(t.clone());
        }
        Ok(Arc::new(param_tuples(sig, sorts)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn tuples_and_initials() {
        let a = sig();
        let course = a.logic().sort_id("course").unwrap();
        assert_eq!(param_tuples(&a, &[course, course]).unwrap().len(), 4);
        assert_eq!(param_tuples(&a, &[]).unwrap(), vec![Vec::<Term>::new()]);
        assert!(param_tuples(&a, &[a.state_sort()]).is_err());
        let init = initial_state_terms(&a).unwrap();
        assert_eq!(init.len(), 1);
    }

    #[test]
    fn term_enumeration_counts() {
        let a = sig();
        let levels = state_terms_by_depth(&a, 2).unwrap();
        // 1 initial; offer with 2 courses = 2 successors each level.
        assert_eq!(levels[0].len(), 1);
        assert_eq!(levels[1].len(), 2);
        assert_eq!(levels[2].len(), 4);
        assert_eq!(state_terms(&a, 2).unwrap().len(), 7);
    }
}
