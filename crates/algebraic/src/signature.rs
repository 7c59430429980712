//! Signatures of algebraic specifications (paper §4.1).
//!
//! An algebraic specification is a first-order theory `T = (L, A)` whose
//! language has a Boolean sort, a designated sort `state` (sort-of-interest),
//! and *parameter sorts*. Functions with target sort `state` are *update
//! functions*; functions whose last domain sort is `state` with another
//! target are *query functions*; the rest are parameter functions.
//!
//! Per the paper, the Boolean sort is equipped with `True`, `False` and the
//! usual connectives as function symbols (so that equation right-hand sides
//! like `(offered(c',σ) ∧ takes(s,c,σ)) ∨ takes(s,c',σ)` are terms), and
//! every parameter sort `s` has an equality-check function of sort
//! `⟨s, s, Boolean⟩`.

use std::collections::BTreeMap;

use eclectic_logic::{FuncId, Signature, SortId, Term, VarId};

use crate::error::{AlgError, Result};

/// Classification of a function symbol in an algebraic signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Maps states to states (target sort `state`). `initiate`, a constant
    /// of sort `state`, is also an update.
    Update,
    /// Interrogates a state (last domain sort `state`, other target).
    Query,
    /// Involves no state at all (parameter constructors and functions,
    /// including the Boolean connectives and equality checks).
    Parameter,
}

/// Builder/owner of an algebraic signature: the underlying logic
/// [`Signature`] plus the paper's classification metadata.
#[derive(Debug, Clone)]
pub struct AlgSignature {
    sig: Signature,
    bool_sort: SortId,
    state_sort: SortId,
    true_fn: FuncId,
    false_fn: FuncId,
    not_fn: FuncId,
    and_fn: FuncId,
    or_fn: FuncId,
    imp_fn: FuncId,
    iff_fn: FuncId,
    /// Equality-check function per parameter sort.
    eq_fns: BTreeMap<SortId, FuncId>,
    kinds: BTreeMap<FuncId, OpKind>,
    /// The designated state variable `U` used in equations.
    state_var: VarId,
}

impl AlgSignature {
    /// Creates an algebraic signature with the mandatory `Bool` and `state`
    /// sorts, Boolean constants/connectives, and the state variable `U`.
    ///
    /// # Errors
    /// Cannot fail in practice; errors propagate from signature building.
    pub fn new() -> Result<Self> {
        let mut sig = Signature::new();
        let bool_sort = sig.add_sort("Bool")?;
        let state_sort = sig.add_sort("state")?;
        let true_fn = sig.add_constant("True", bool_sort)?;
        let false_fn = sig.add_constant("False", bool_sort)?;
        let not_fn = sig.add_func("not", &[bool_sort], bool_sort)?;
        let and_fn = sig.add_func("and", &[bool_sort, bool_sort], bool_sort)?;
        let or_fn = sig.add_func("or", &[bool_sort, bool_sort], bool_sort)?;
        let imp_fn = sig.add_func("imp", &[bool_sort, bool_sort], bool_sort)?;
        let iff_fn = sig.add_func("iff", &[bool_sort, bool_sort], bool_sort)?;
        let state_var = sig.add_var("U", state_sort)?;
        let mut kinds = BTreeMap::new();
        for f in [true_fn, false_fn, not_fn, and_fn, or_fn, imp_fn, iff_fn] {
            kinds.insert(f, OpKind::Parameter);
        }
        Ok(AlgSignature {
            sig,
            bool_sort,
            state_sort,
            true_fn,
            false_fn,
            not_fn,
            and_fn,
            or_fn,
            imp_fn,
            iff_fn,
            eq_fns: BTreeMap::new(),
            kinds,
            state_var,
        })
    }

    /// Declares a parameter sort with the given named constants (its
    /// *parameter names*), plus its equality-check function `eq_<sort>`.
    ///
    /// # Errors
    /// Returns an error on duplicate names.
    pub fn add_param_sort(&mut self, name: &str, elems: &[&str]) -> Result<SortId> {
        let sort = self.sig.add_sort(name)?;
        for e in elems {
            let f = self.sig.add_constant(e, sort)?;
            self.kinds.insert(f, OpKind::Parameter);
        }
        let eq = self
            .sig
            .add_func(&format!("eq_{name}"), &[sort, sort], self.bool_sort)?;
        self.kinds.insert(eq, OpKind::Parameter);
        self.eq_fns.insert(sort, eq);
        Ok(sort)
    }

    /// Declares a parameter function (no `state` in its sort).
    ///
    /// # Errors
    /// Returns an error if any sort is `state`, or on duplicate names.
    pub fn add_param_func(
        &mut self,
        name: &str,
        domain: &[SortId],
        range: SortId,
    ) -> Result<FuncId> {
        if domain.contains(&self.state_sort) || range == self.state_sort {
            return Err(AlgError::BadDescription(format!(
                "parameter function `{name}` must not involve the state sort"
            )));
        }
        let f = self.sig.add_func(name, domain, range)?;
        self.kinds.insert(f, OpKind::Parameter);
        Ok(f)
    }

    /// Declares a query function of sort `⟨s1, …, sn, state, target⟩`.
    /// `target` defaults to `Bool` when `None`.
    ///
    /// # Errors
    /// Returns an error on duplicate names or non-parameter sorts.
    pub fn add_query(
        &mut self,
        name: &str,
        params: &[SortId],
        target: Option<SortId>,
    ) -> Result<FuncId> {
        for &s in params {
            self.check_param_sort(s)?;
        }
        let target = target.unwrap_or(self.bool_sort);
        if target == self.state_sort {
            return Err(AlgError::NotAQuery(name.to_string()));
        }
        let mut domain = params.to_vec();
        domain.push(self.state_sort);
        let f = self.sig.add_func(name, &domain, target)?;
        self.kinds.insert(f, OpKind::Query);
        Ok(f)
    }

    /// Declares an update function of sort `⟨s1, …, sn, state, state⟩`, or —
    /// when `params` is empty and `takes_state` is false — a constant of
    /// sort `state` such as `initiate`.
    ///
    /// # Errors
    /// Returns an error on duplicate names or non-parameter sorts.
    pub fn add_update(
        &mut self,
        name: &str,
        params: &[SortId],
        takes_state: bool,
    ) -> Result<FuncId> {
        for &s in params {
            self.check_param_sort(s)?;
        }
        let mut domain = params.to_vec();
        if takes_state {
            domain.push(self.state_sort);
        }
        let f = self.sig.add_func(name, &domain, self.state_sort)?;
        self.kinds.insert(f, OpKind::Update);
        Ok(f)
    }

    /// Declares a variable of a parameter sort (for use in equations).
    ///
    /// # Errors
    /// Returns an error for non-parameter sorts or name conflicts.
    pub fn add_param_var(&mut self, name: &str, sort: SortId) -> Result<VarId> {
        self.check_param_sort(sort)?;
        Ok(self.sig.add_var(name, sort)?)
    }

    fn check_param_sort(&self, sort: SortId) -> Result<()> {
        if sort == self.state_sort {
            return Err(AlgError::NotAParamSort(
                self.sig.sort_name(sort).to_string(),
            ));
        }
        Ok(())
    }

    /// The underlying logic signature.
    #[must_use]
    pub fn logic(&self) -> &Signature {
        &self.sig
    }

    /// Mutable access to the underlying logic signature (e.g. for parsing).
    pub fn logic_mut(&mut self) -> &mut Signature {
        &mut self.sig
    }

    /// The Boolean sort.
    #[must_use]
    pub fn bool_sort(&self) -> SortId {
        self.bool_sort
    }

    /// The designated `state` sort (sort-of-interest).
    #[must_use]
    pub fn state_sort(&self) -> SortId {
        self.state_sort
    }

    /// The parameter sorts (every sort except `Bool` and `state`).
    pub fn param_sorts(&self) -> impl Iterator<Item = SortId> + '_ {
        self.sig
            .sort_ids()
            .filter(move |&s| s != self.bool_sort && s != self.state_sort)
    }

    /// `True`.
    #[must_use]
    pub fn true_fn(&self) -> FuncId {
        self.true_fn
    }

    /// `False`.
    #[must_use]
    pub fn false_fn(&self) -> FuncId {
        self.false_fn
    }

    /// The `True` constant as a term.
    #[must_use]
    pub fn true_term(&self) -> Term {
        Term::constant(self.true_fn)
    }

    /// The `False` constant as a term.
    #[must_use]
    pub fn false_term(&self) -> Term {
        Term::constant(self.false_fn)
    }

    /// Boolean negation function.
    #[must_use]
    pub fn not_fn(&self) -> FuncId {
        self.not_fn
    }

    /// Boolean conjunction function.
    #[must_use]
    pub fn and_fn(&self) -> FuncId {
        self.and_fn
    }

    /// Boolean disjunction function.
    #[must_use]
    pub fn or_fn(&self) -> FuncId {
        self.or_fn
    }

    /// Boolean implication function.
    #[must_use]
    pub fn imp_fn(&self) -> FuncId {
        self.imp_fn
    }

    /// Boolean equivalence function.
    #[must_use]
    pub fn iff_fn(&self) -> FuncId {
        self.iff_fn
    }

    /// The equality-check function of a parameter sort, if declared.
    #[must_use]
    pub fn eq_fn(&self, sort: SortId) -> Option<FuncId> {
        self.eq_fns.get(&sort).copied()
    }

    /// The designated state variable `U`.
    #[must_use]
    pub fn state_var(&self) -> VarId {
        self.state_var
    }

    /// Classification of a function symbol.
    #[must_use]
    pub fn kind(&self, f: FuncId) -> OpKind {
        self.kinds.get(&f).copied().unwrap_or(OpKind::Parameter)
    }

    /// All query functions.
    pub fn queries(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.sig
            .func_ids()
            .filter(move |f| self.kind(*f) == OpKind::Query)
    }

    /// All update functions (including `initiate`-style state constants).
    pub fn updates(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.sig
            .func_ids()
            .filter(move |f| self.kind(*f) == OpKind::Update)
    }

    /// The parameter sorts of a query (its domain minus the final `state`).
    ///
    /// # Errors
    /// Returns [`AlgError::NotAQuery`] for non-queries.
    pub fn query_params(&self, q: FuncId) -> Result<Vec<SortId>> {
        if self.kind(q) != OpKind::Query {
            return Err(AlgError::NotAQuery(self.sig.func(q).name.clone()));
        }
        let d = &self.sig.func(q).domain;
        Ok(d[..d.len() - 1].to_vec())
    }

    /// The parameter sorts of an update (its domain minus any final `state`).
    ///
    /// # Errors
    /// Returns [`AlgError::NotAnUpdate`] for non-updates.
    pub fn update_params(&self, u: FuncId) -> Result<Vec<SortId>> {
        if self.kind(u) != OpKind::Update {
            return Err(AlgError::NotAnUpdate(self.sig.func(u).name.clone()));
        }
        let d = &self.sig.func(u).domain;
        let end = if d.last() == Some(&self.state_sort) {
            d.len() - 1
        } else {
            d.len()
        };
        Ok(d[..end].to_vec())
    }

    /// Whether the update takes a state argument (`initiate` does not).
    ///
    /// # Errors
    /// Returns [`AlgError::NotAnUpdate`] for non-updates.
    pub fn update_takes_state(&self, u: FuncId) -> Result<bool> {
        if self.kind(u) != OpKind::Update {
            return Err(AlgError::NotAnUpdate(self.sig.func(u).name.clone()));
        }
        Ok(self.sig.func(u).domain.last() == Some(&self.state_sort))
    }

    /// The *parameter names* of a sort: its declared constants. For the
    /// Boolean sort these are `True` and `False`.
    #[must_use]
    pub fn param_names(&self, sort: SortId) -> Vec<FuncId> {
        self.sig.constants_of_sort(sort).collect()
    }

    /// Whether a ground term is a parameter name (a constant of a
    /// non-state sort).
    #[must_use]
    pub fn is_param_name(&self, t: &Term) -> bool {
        match t {
            Term::App(f, args) if args.is_empty() => {
                let decl = self.sig.func(*f);
                decl.range != self.state_sort
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn courses() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana", "bob"]).unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_query("takes", &[student, course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_update("enroll", &[student, course], true).unwrap();
        a.add_update("transfer", &[student, course, course], true)
            .unwrap();
        a
    }

    #[test]
    fn classification() {
        let a = courses();
        let offered = a.logic().func_id("offered").unwrap();
        let offer = a.logic().func_id("offer").unwrap();
        let initiate = a.logic().func_id("initiate").unwrap();
        let tru = a.logic().func_id("True").unwrap();
        assert_eq!(a.kind(offered), OpKind::Query);
        assert_eq!(a.kind(offer), OpKind::Update);
        assert_eq!(a.kind(initiate), OpKind::Update);
        assert_eq!(a.kind(tru), OpKind::Parameter);
        assert_eq!(a.queries().count(), 2);
        assert_eq!(a.updates().count(), 5);
    }

    #[test]
    fn sorts_and_params() {
        let a = courses();
        let student = a.logic().sort_id("student").unwrap();
        let course = a.logic().sort_id("course").unwrap();
        assert_eq!(a.param_sorts().collect::<Vec<_>>(), vec![student, course]);
        let takes = a.logic().func_id("takes").unwrap();
        assert_eq!(a.query_params(takes).unwrap(), vec![student, course]);
        let transfer = a.logic().func_id("transfer").unwrap();
        assert_eq!(
            a.update_params(transfer).unwrap(),
            vec![student, course, course]
        );
        let initiate = a.logic().func_id("initiate").unwrap();
        assert!(!a.update_takes_state(initiate).unwrap());
        let offer = a.logic().func_id("offer").unwrap();
        assert!(a.update_takes_state(offer).unwrap());
    }

    #[test]
    fn param_names_and_eq_fns() {
        let a = courses();
        let course = a.logic().sort_id("course").unwrap();
        assert_eq!(a.param_names(course).len(), 2);
        assert!(a.eq_fn(course).is_some());
        assert!(a.eq_fn(a.state_sort()).is_none());
        assert_eq!(a.param_names(a.bool_sort()).len(), 2);
        assert!(a.is_param_name(&a.true_term()));
        let db = a.logic().func_id("db").unwrap();
        assert!(a.is_param_name(&Term::constant(db)));
        let initiate = a.logic().func_id("initiate").unwrap();
        assert!(!a.is_param_name(&Term::constant(initiate)));
    }

    #[test]
    fn misuse_rejected() {
        let mut a = courses();
        let takes = a.logic().func_id("takes").unwrap();
        assert!(matches!(
            a.update_params(takes),
            Err(AlgError::NotAnUpdate(_))
        ));
        let offer = a.logic().func_id("offer").unwrap();
        assert!(matches!(a.query_params(offer), Err(AlgError::NotAQuery(_))));
        let state = a.state_sort();
        assert!(a.add_param_var("bad", state).is_err());
        assert!(a.add_param_func("bad2", &[state], state).is_err());
    }
}
