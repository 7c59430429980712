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
use eclectic_logic::{FuncId, SortId, Term};

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
pub fn param_tuple_ids(rw: &mut Rewriter<'_>, sorts: &[SortId]) -> Result<Vec<Vec<TermId>>> {
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
/// construction is then one interned application per successor, with the
/// argument list built in the rewriter's pooled buffer — no re-enumeration
/// of tuples and no fresh allocations on the exploration hot path.
#[derive(Debug, Clone)]
pub struct SuccessorPlan {
    plan: Vec<(FuncId, Vec<Vec<TermId>>)>,
    /// Total successors per state (sum of tuple counts).
    count: usize,
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
        for u in sig.updates() {
            if sig.update_takes_state(u)? {
                let tuples = param_tuple_ids(rw, &sig.update_params(u)?)?;
                count += tuples.len();
                plan.push((u, tuples));
            }
        }
        Ok(SuccessorPlan { plan, count })
    }

    /// Number of successors every state has under this plan.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Builds the one-step successors of `state` into a reusable buffer
    /// (cleared first), in the same (update, parameter-tuple) order as
    /// [`successor_terms`].
    pub fn successors_into(&self, rw: &mut Rewriter<'_>, state: TermId, out: &mut Vec<TermId>) {
        out.clear();
        out.reserve(self.count);
        for (u, tuples) in &self.plan {
            for params in tuples {
                out.push(rw.app_state(*u, params, state));
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
///
/// The space keeps no state terms. Each state is a [`StateRow`] — the
/// update applied, the index of its parameter tuple, and the index of the
/// state it was applied to — in [`state_terms`] order, so a state's parent
/// always comes before it. [`GroundSpace::state_term`] builds a state's
/// tree where a caller needs one (tree-level matching, rendering), and
/// [`GroundSpace::state_id`] interns a state as one application over its
/// parent's id.
#[derive(Debug, Clone)]
pub struct GroundSpace {
    states: Vec<StateRow>,
    /// Every update, in signature order, with its parameter tuples; a
    /// [`StateRow`] names its update by position here.
    updates: Vec<(FuncId, Arc<Vec<Vec<Term>>>)>,
    tuples: FxHashMap<Vec<SortId>, Arc<Vec<Vec<Term>>>>,
}

/// One state of a [`GroundSpace`]: `update(tuple…, parent)`, or
/// `update(tuple…)` for an initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRow {
    /// The update's position in the space's update list.
    update: u32,
    /// The parameter tuple's index among the update's tuples.
    tuple: u32,
    /// The index of the state the update was applied to.
    parent: Option<u32>,
}

/// One rewriter's ids for the states of one [`GroundSpace`], filled on
/// demand by [`GroundSpace::state_id`].
#[derive(Debug, Clone, Default)]
pub struct StateIds {
    ids: Vec<Option<TermId>>,
    /// The interned parameter tuple of the state being interned.
    params: Vec<TermId>,
}

fn row_index(i: usize) -> u32 {
    u32::try_from(i).expect("ground space index fits u32")
}

impl GroundSpace {
    /// Enumerates the space: state terms up to `depth` update applications
    /// plus the parameter tuples of every declared query and update.
    ///
    /// # Errors
    /// See [`state_terms_by_depth`] and [`param_tuples`].
    pub fn new(sig: &AlgSignature, depth: usize) -> Result<Self> {
        let mut tuples: FxHashMap<Vec<SortId>, Arc<Vec<Vec<Term>>>> = FxHashMap::default();
        let mut tuples_of = |sorts: Vec<SortId>| -> Result<Arc<Vec<Vec<Term>>>> {
            if let Some(t) = tuples.get(&sorts) {
                return Ok(Arc::clone(t));
            }
            let t = Arc::new(param_tuples(sig, &sorts)?);
            tuples.insert(sorts, Arc::clone(&t));
            Ok(t)
        };
        let mut updates = Vec::new();
        let mut takes_state = Vec::new();
        for u in sig.updates() {
            takes_state.push(sig.update_takes_state(u)?);
            updates.push((u, tuples_of(sig.update_params(u)?)?));
        }
        // The rows of `update` over every tuple, applied to `parent`.
        let rows = |k: usize, parent: Option<u32>| {
            (0..updates[k].1.len()).map(move |j| StateRow {
                update: row_index(k),
                tuple: row_index(j),
                parent,
            })
        };
        let mut states: Vec<StateRow> = Vec::new();
        for k in (0..updates.len()).filter(|&k| !takes_state[k]) {
            states.extend(rows(k, None));
        }
        if states.is_empty() {
            return Err(AlgError::BadDescription(
                "no initial state constant (e.g. `initiate`) declared".into(),
            ));
        }
        let mut level = 0..states.len();
        for _ in 0..depth {
            let next = states.len();
            for p in level {
                for k in (0..updates.len()).filter(|&k| takes_state[k]) {
                    states.extend(rows(k, Some(row_index(p))));
                }
            }
            level = next..states.len();
        }
        for q in sig.queries() {
            tuples_of(sig.query_params(q)?)?;
        }
        Ok(GroundSpace {
            states,
            updates,
            tuples,
        })
    }

    /// One row per state, in [`state_terms`] order.
    #[must_use]
    pub fn states(&self) -> &[StateRow] {
        &self.states
    }

    /// The tree of state `i`: `state_terms(sig, depth)[i]`.
    ///
    /// # Panics
    /// Panics if `i` is not below `states().len()`.
    #[must_use]
    pub fn state_term(&self, i: usize) -> Term {
        let row = self.states[i];
        let (u, tuples) = &self.updates[row.update as usize];
        let mut args = tuples[row.tuple as usize].clone();
        if let Some(p) = row.parent {
            args.push(self.state_term(p as usize));
        }
        Term::App(*u, args)
    }

    /// Interns state `i` into `rw`'s store as one application over its
    /// parent's id, interning the parent first unless `ids` holds it, and
    /// records every id it interns in `ids`. `ids` must serve only this
    /// space and this rewriter.
    ///
    /// # Panics
    /// Panics if `i` is not below `states().len()`.
    pub fn state_id(&self, rw: &mut Rewriter<'_>, ids: &mut StateIds, i: usize) -> TermId {
        if ids.ids.len() < self.states.len() {
            ids.ids.resize(self.states.len(), None);
        }
        self.intern_state(rw, ids, i)
    }

    fn intern_state(&self, rw: &mut Rewriter<'_>, ids: &mut StateIds, i: usize) -> TermId {
        if let Some(id) = ids.ids[i] {
            return id;
        }
        let row = self.states[i];
        let parent = row.parent.map(|p| self.intern_state(rw, ids, p as usize));
        let (u, tuples) = &self.updates[row.update as usize];
        ids.params.clear();
        for p in &tuples[row.tuple as usize] {
            ids.params.push(rw.intern(p));
        }
        let id = match parent {
            Some(st) => rw.app_state(*u, &ids.params, st),
            None => rw.app_id(*u, &ids.params),
        };
        ids.ids[i] = Some(id);
        id
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
