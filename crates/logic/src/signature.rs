//! Signatures of many-sorted first-order languages.

use std::collections::HashMap;

use crate::error::{LogicError, Result};
use crate::symbols::{
    FuncDecl, FuncId, PredDecl, PredId, SortDecl, SortId, Symbol, VarDecl, VarId,
};

/// The non-logical vocabulary of a many-sorted first-order language `L`
/// (paper §3.1): sorts, function symbols, predicate symbols, and a table of
/// typed variables.
///
/// All names share a single namespace so that the concrete-syntax parser can
/// resolve identifiers unambiguously.
///
/// # Examples
///
/// ```
/// use eclectic_logic::Signature;
///
/// let mut sig = Signature::new();
/// let student = sig.add_sort("student").unwrap();
/// let course = sig.add_sort("course").unwrap();
/// let takes = sig.add_db_predicate("takes", &[student, course]).unwrap();
/// assert_eq!(sig.pred(takes).name, "takes");
/// assert!(sig.pred(takes).db_predicate);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Signature {
    sorts: Vec<SortDecl>,
    funcs: Vec<FuncDecl>,
    preds: Vec<PredDecl>,
    vars: Vec<VarDecl>,
    names: HashMap<String, Symbol>,
    fresh_counter: u32,
}

impl Signature {
    /// Creates an empty signature.
    #[must_use]
    pub fn new() -> Self {
        Signature::default()
    }

    fn reserve_name(&mut self, name: &str, sym: Symbol) -> Result<()> {
        if self.names.contains_key(name) {
            return Err(LogicError::DuplicateName(name.to_string()));
        }
        self.names.insert(name.to_string(), sym);
        Ok(())
    }

    /// Declares a new sort.
    ///
    /// # Errors
    /// Returns [`LogicError::DuplicateName`] if the name is taken.
    pub fn add_sort(&mut self, name: &str) -> Result<SortId> {
        let id = SortId(u32::try_from(self.sorts.len()).expect("sort count fits u32"));
        self.reserve_name(name, Symbol::Sort(id))?;
        self.sorts.push(SortDecl {
            name: name.to_string(),
        });
        Ok(id)
    }

    /// Declares a new function symbol with the given domain and range sorts.
    ///
    /// # Errors
    /// Returns [`LogicError::DuplicateName`] if the name is taken.
    pub fn add_func(&mut self, name: &str, domain: &[SortId], range: SortId) -> Result<FuncId> {
        let id = FuncId(u32::try_from(self.funcs.len()).expect("func count fits u32"));
        self.reserve_name(name, Symbol::Func(id))?;
        self.funcs.push(FuncDecl {
            name: name.to_string(),
            domain: domain.to_vec(),
            range,
        });
        Ok(id)
    }

    /// Declares a constant (0-ary function symbol).
    ///
    /// # Errors
    /// Returns [`LogicError::DuplicateName`] if the name is taken.
    pub fn add_constant(&mut self, name: &str, sort: SortId) -> Result<FuncId> {
        self.add_func(name, &[], sort)
    }

    fn add_pred_inner(&mut self, name: &str, domain: &[SortId], db: bool) -> Result<PredId> {
        let id = PredId(u32::try_from(self.preds.len()).expect("pred count fits u32"));
        self.reserve_name(name, Symbol::Pred(id))?;
        self.preds.push(PredDecl {
            name: name.to_string(),
            domain: domain.to_vec(),
            db_predicate: db,
        });
        Ok(id)
    }

    /// Declares an ordinary predicate symbol.
    ///
    /// # Errors
    /// Returns [`LogicError::DuplicateName`] if the name is taken.
    pub fn add_predicate(&mut self, name: &str, domain: &[SortId]) -> Result<PredId> {
        self.add_pred_inner(name, domain, false)
    }

    /// Declares a *db-predicate symbol*: a predicate describing a database
    /// structure (paper §3.1).
    ///
    /// # Errors
    /// Returns [`LogicError::DuplicateName`] if the name is taken.
    pub fn add_db_predicate(&mut self, name: &str, domain: &[SortId]) -> Result<PredId> {
        self.add_pred_inner(name, domain, true)
    }

    /// Declares a typed variable.
    ///
    /// # Errors
    /// Returns [`LogicError::DuplicateName`] if the name is taken by a
    /// non-variable, or [`LogicError::VariableSortConflict`] if a variable of
    /// the same name exists with a different sort. Re-declaring a variable
    /// with the same sort returns the existing id.
    pub fn add_var(&mut self, name: &str, sort: SortId) -> Result<VarId> {
        match self.names.get(name) {
            Some(Symbol::Var(v)) => {
                let existing = &self.vars[v.index()];
                if existing.sort == sort {
                    Ok(*v)
                } else {
                    Err(LogicError::VariableSortConflict {
                        name: name.to_string(),
                        declared: self.sort_name(existing.sort).to_string(),
                        requested: self.sort_name(sort).to_string(),
                    })
                }
            }
            Some(_) => Err(LogicError::DuplicateName(name.to_string())),
            None => {
                let id = VarId(u32::try_from(self.vars.len()).expect("var count fits u32"));
                self.names.insert(name.to_string(), Symbol::Var(id));
                self.vars.push(VarDecl {
                    name: name.to_string(),
                    sort,
                });
                Ok(id)
            }
        }
    }

    /// Declares a fresh variable of the given sort with a generated name.
    ///
    /// Used for capture-avoiding substitution and for quantifier expansion.
    pub fn fresh_var(&mut self, hint: &str, sort: SortId) -> VarId {
        loop {
            self.fresh_counter += 1;
            let name = format!("{hint}__{}", self.fresh_counter);
            if !self.names.contains_key(&name) {
                return self
                    .add_var(&name, sort)
                    .expect("fresh name cannot collide");
            }
        }
    }

    /// Resolves a name to a symbol.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.names.get(name).copied()
    }

    /// Resolves a name to a sort id.
    ///
    /// # Errors
    /// Returns [`LogicError::UnknownSort`] or [`LogicError::WrongSymbolKind`].
    pub fn sort_id(&self, name: &str) -> Result<SortId> {
        match self.lookup(name) {
            Some(Symbol::Sort(s)) => Ok(s),
            Some(_) => Err(LogicError::WrongSymbolKind {
                name: name.to_string(),
                expected: "sort",
            }),
            None => Err(LogicError::UnknownSort(name.to_string())),
        }
    }

    /// Resolves a name to a function id.
    ///
    /// # Errors
    /// Returns [`LogicError::UnknownName`] or [`LogicError::WrongSymbolKind`].
    pub fn func_id(&self, name: &str) -> Result<FuncId> {
        match self.lookup(name) {
            Some(Symbol::Func(x)) => Ok(x),
            Some(_) => Err(LogicError::WrongSymbolKind {
                name: name.to_string(),
                expected: "function",
            }),
            None => Err(LogicError::UnknownName(name.to_string())),
        }
    }

    /// Resolves a name to a predicate id.
    ///
    /// # Errors
    /// Returns [`LogicError::UnknownName`] or [`LogicError::WrongSymbolKind`].
    pub fn pred_id(&self, name: &str) -> Result<PredId> {
        match self.lookup(name) {
            Some(Symbol::Pred(x)) => Ok(x),
            Some(_) => Err(LogicError::WrongSymbolKind {
                name: name.to_string(),
                expected: "predicate",
            }),
            None => Err(LogicError::UnknownName(name.to_string())),
        }
    }

    /// Resolves a name to a variable id.
    ///
    /// # Errors
    /// Returns [`LogicError::UnknownName`] or [`LogicError::WrongSymbolKind`].
    pub fn var_id(&self, name: &str) -> Result<VarId> {
        match self.lookup(name) {
            Some(Symbol::Var(x)) => Ok(x),
            Some(_) => Err(LogicError::WrongSymbolKind {
                name: name.to_string(),
                expected: "variable",
            }),
            None => Err(LogicError::UnknownName(name.to_string())),
        }
    }

    /// Declaration of a sort.
    ///
    /// # Panics
    /// Panics if the id does not belong to this signature.
    #[must_use]
    pub fn sort(&self, id: SortId) -> &SortDecl {
        &self.sorts[id.index()]
    }

    /// Name of a sort.
    ///
    /// # Panics
    /// Panics if the id does not belong to this signature.
    #[must_use]
    pub fn sort_name(&self, id: SortId) -> &str {
        &self.sorts[id.index()].name
    }

    /// Declaration of a function symbol.
    ///
    /// # Panics
    /// Panics if the id does not belong to this signature.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &FuncDecl {
        &self.funcs[id.index()]
    }

    /// Declaration of a predicate symbol.
    ///
    /// # Panics
    /// Panics if the id does not belong to this signature.
    #[must_use]
    pub fn pred(&self, id: PredId) -> &PredDecl {
        &self.preds[id.index()]
    }

    /// Declaration of a variable.
    ///
    /// # Panics
    /// Panics if the id does not belong to this signature.
    #[must_use]
    pub fn var(&self, id: VarId) -> &VarDecl {
        &self.vars[id.index()]
    }

    /// Number of declared sorts.
    #[must_use]
    pub fn sort_count(&self) -> usize {
        self.sorts.len()
    }

    /// Number of declared function symbols.
    #[must_use]
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of declared predicate symbols.
    #[must_use]
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Iterates over all sort ids.
    pub fn sort_ids(&self) -> impl Iterator<Item = SortId> {
        (0..self.sorts.len()).map(|i| SortId(i as u32))
    }

    /// Iterates over all function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len()).map(|i| FuncId(i as u32))
    }

    /// Iterates over all predicate ids.
    pub fn pred_ids(&self) -> impl Iterator<Item = PredId> {
        (0..self.preds.len()).map(|i| PredId(i as u32))
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(|i| VarId(i as u32))
    }

    /// Iterates over the ids of db-predicate symbols only.
    pub fn db_pred_ids(&self) -> impl Iterator<Item = PredId> + '_ {
        self.pred_ids().filter(|p| self.pred(*p).db_predicate)
    }

    /// All constants (0-ary function symbols) of a given sort.
    pub fn constants_of_sort(&self, sort: SortId) -> impl Iterator<Item = FuncId> + '_ {
        self.func_ids()
            .filter(move |f| self.func(*f).is_constant() && self.func(*f).range == sort)
    }
}

/// The signature is the kernel's sort oracle: interned terms can have their
/// sorts computed bottom-up and cached per node via
/// [`eclectic_kernel::TermStore::sort_of`], replacing the full-tree
/// recomputation of [`crate::Term::sort`] on hot paths.
impl eclectic_kernel::SortOracle for Signature {
    fn var_sort(&self, v: VarId) -> SortId {
        self.var(v).sort
    }

    fn func_domain(&self, f: FuncId) -> &[SortId] {
        &self.func(f).domain
    }

    fn func_range(&self, f: FuncId) -> SortId {
        self.func(f).range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut sig = Signature::new();
        let s = sig.add_sort("student").unwrap();
        let c = sig.add_sort("course").unwrap();
        let takes = sig.add_db_predicate("takes", &[s, c]).unwrap();
        let offered = sig.add_predicate("offered", &[c]).unwrap();
        let x = sig.add_var("x", s).unwrap();

        assert_eq!(sig.sort_id("student").unwrap(), s);
        assert_eq!(sig.pred_id("takes").unwrap(), takes);
        assert_eq!(sig.pred_id("offered").unwrap(), offered);
        assert_eq!(sig.var_id("x").unwrap(), x);
        assert!(sig.pred(takes).db_predicate);
        assert!(!sig.pred(offered).db_predicate);
        assert_eq!(sig.db_pred_ids().collect::<Vec<_>>(), vec![takes]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut sig = Signature::new();
        sig.add_sort("s").unwrap();
        assert_eq!(
            sig.add_sort("s"),
            Err(LogicError::DuplicateName("s".into()))
        );
        assert!(matches!(
            sig.add_func("s", &[], SortId(0)),
            Err(LogicError::DuplicateName(_))
        ));
    }

    #[test]
    fn var_redeclaration_same_sort_ok() {
        let mut sig = Signature::new();
        let s = sig.add_sort("s").unwrap();
        let t = sig.add_sort("t").unwrap();
        let x1 = sig.add_var("x", s).unwrap();
        let x2 = sig.add_var("x", s).unwrap();
        assert_eq!(x1, x2);
        assert!(matches!(
            sig.add_var("x", t),
            Err(LogicError::VariableSortConflict { .. })
        ));
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut sig = Signature::new();
        let s = sig.add_sort("s").unwrap();
        let a = sig.fresh_var("x", s);
        let b = sig.fresh_var("x", s);
        assert_ne!(a, b);
    }

    #[test]
    fn wrong_kind_is_reported() {
        let mut sig = Signature::new();
        let s = sig.add_sort("s").unwrap();
        sig.add_constant("a", s).unwrap();
        assert!(matches!(
            sig.pred_id("a"),
            Err(LogicError::WrongSymbolKind { .. })
        ));
        assert!(matches!(
            sig.func_id("missing"),
            Err(LogicError::UnknownName(_))
        ));
    }

    #[test]
    fn constants_of_sort_filters() {
        let mut sig = Signature::new();
        let s = sig.add_sort("s").unwrap();
        let t = sig.add_sort("t").unwrap();
        let a = sig.add_constant("a", s).unwrap();
        let _b = sig.add_constant("b", t).unwrap();
        sig.add_func("f", &[s], s).unwrap();
        assert_eq!(sig.constants_of_sort(s).collect::<Vec<_>>(), vec![a]);
    }
}
