//! Finite structures (interpretations) of a many-sorted language.
//!
//! A [`Structure`] interprets each sort as a finite carrier of named
//! elements, each function symbol as a finite table, and each predicate
//! symbol as a finite relation. Structures play three roles in the paper:
//! database *states* at the information level (§3.1), elements of the sort
//! `state` at the functions level (§4), and the states of the representation
//! level's universes (§5.1.2) — one implementation serves all three.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{LogicError, Result};
use crate::signature::Signature;
use crate::symbols::{FuncId, PredId, SortId};

/// An element of a sort's carrier, identified by its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Elem(pub u32);

impl Elem {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The finite carriers of every sort, shared by all structures of a universe
/// (the paper requires all states to have "the same domain").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Domains {
    /// Per-sort element names, indexed by [`SortId`].
    carriers: Vec<Vec<String>>,
}

impl Domains {
    /// Creates domains with the given carrier (element names) per sort, in
    /// [`SortId`] order.
    ///
    /// # Errors
    /// Returns [`LogicError::SignatureMismatch`] if the number of carriers
    /// differs from the number of sorts.
    pub fn new(sig: &Signature, carriers: Vec<Vec<String>>) -> Result<Self> {
        if carriers.len() != sig.sort_count() {
            return Err(LogicError::SignatureMismatch);
        }
        Ok(Domains { carriers })
    }

    /// Builds domains from `(sort name, element names)` pairs; sorts not
    /// mentioned get empty carriers.
    ///
    /// # Errors
    /// Returns an error for unknown sort names.
    pub fn from_names(sig: &Signature, named: &[(&str, &[&str])]) -> Result<Self> {
        let mut carriers = vec![Vec::new(); sig.sort_count()];
        for (sort, elems) in named {
            let id = sig.sort_id(sort)?;
            carriers[id.index()] = elems.iter().map(|e| (*e).to_string()).collect();
        }
        Ok(Domains { carriers })
    }

    /// Number of elements in a sort's carrier.
    #[must_use]
    pub fn card(&self, sort: SortId) -> usize {
        self.carriers[sort.index()].len()
    }

    /// The elements of a sort's carrier.
    pub fn elems(&self, sort: SortId) -> impl Iterator<Item = Elem> {
        (0..self.card(sort)).map(|i| Elem(i as u32))
    }

    /// The name of an element.
    ///
    /// # Errors
    /// Returns [`LogicError::ElementOutOfRange`] for an invalid index.
    pub fn elem_name(&self, sig: &Signature, sort: SortId, e: Elem) -> Result<&str> {
        self.carriers[sort.index()]
            .get(e.index())
            .map(String::as_str)
            .ok_or_else(|| LogicError::ElementOutOfRange {
                sort: sig.sort_name(sort).to_string(),
                index: e.0,
            })
    }

    /// Finds an element of a sort by name.
    #[must_use]
    pub fn elem_by_name(&self, sort: SortId, name: &str) -> Option<Elem> {
        self.carriers[sort.index()]
            .iter()
            .position(|n| n == name)
            .map(|i| Elem(i as u32))
    }

    /// Enumerates all tuples over the given sequence of sorts
    /// (cartesian product, lexicographic order).
    #[must_use]
    pub fn tuples(&self, sorts: &[SortId]) -> Vec<Vec<Elem>> {
        let mut out = vec![Vec::new()];
        for &s in sorts {
            let mut next = Vec::with_capacity(out.len() * self.card(s).max(1));
            for prefix in &out {
                for e in self.elems(s) {
                    let mut t = prefix.clone();
                    t.push(e);
                    next.push(t);
                }
            }
            out = next;
        }
        out
    }

    /// Total number of tuples over the given sorts.
    #[must_use]
    pub fn tuple_count(&self, sorts: &[SortId]) -> usize {
        sorts.iter().map(|s| self.card(*s)).product()
    }
}

/// A finite structure over a signature: interpretations for every function
/// and predicate symbol, over shared [`Domains`].
#[derive(Debug, Clone)]
pub struct Structure {
    sig: Arc<Signature>,
    domains: Arc<Domains>,
    /// Per-function tables mapping argument tuples to results.
    funcs: Vec<BTreeMap<Vec<Elem>, Elem>>,
    /// Per-predicate relations.
    preds: Vec<BTreeSet<Vec<Elem>>>,
}

impl Structure {
    /// Creates a structure with empty predicate relations and empty function
    /// tables.
    #[must_use]
    pub fn new(sig: Arc<Signature>, domains: Arc<Domains>) -> Self {
        let funcs = vec![BTreeMap::new(); sig.func_count()];
        let preds = vec![BTreeSet::new(); sig.pred_count()];
        Structure {
            sig,
            domains,
            funcs,
            preds,
        }
    }

    /// The signature this structure interprets.
    #[must_use]
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// The shared domains.
    #[must_use]
    pub fn domains(&self) -> &Arc<Domains> {
        &self.domains
    }

    /// Sets the value of a function on an argument tuple.
    ///
    /// # Errors
    /// Returns an error on arity mismatch or out-of-range elements.
    pub fn set_func(&mut self, f: FuncId, args: Vec<Elem>, value: Elem) -> Result<()> {
        self.check_func_entry(f, &args, value)?;
        self.funcs[f.index()].insert(args, value);
        Ok(())
    }

    /// The checks [`Structure::set_func`] applies before writing `f(args) =
    /// value`: the arity, then each argument's range, then the value's.
    ///
    /// # Errors
    /// Returns [`LogicError::ArityMismatch`] or
    /// [`LogicError::ElementOutOfRange`].
    pub fn check_func_entry(&self, f: FuncId, args: &[Elem], value: Elem) -> Result<()> {
        let decl = self.sig.func(f);
        self.check_tuple(&decl.name, &decl.domain, args)?;
        self.check_elem(decl.range, value)
    }

    /// Sets the value of a constant.
    ///
    /// # Errors
    /// See [`Structure::set_func`].
    pub fn set_constant(&mut self, f: FuncId, value: Elem) -> Result<()> {
        self.set_func(f, Vec::new(), value)
    }

    /// Looks up the value of a function on an argument tuple.
    ///
    /// # Errors
    /// Returns [`LogicError::UndefinedFunctionValue`] if no entry exists.
    pub fn func_value(&self, f: FuncId, args: &[Elem]) -> Result<Elem> {
        self.funcs[f.index()].get(args).copied().ok_or_else(|| {
            LogicError::UndefinedFunctionValue {
                name: self.sig.func(f).name.clone(),
            }
        })
    }

    /// Whether the function is defined on the tuple.
    #[must_use]
    pub fn func_defined(&self, f: FuncId, args: &[Elem]) -> bool {
        self.funcs[f.index()].contains_key(args)
    }

    /// Inserts a tuple into a predicate's relation. Returns whether the tuple
    /// was newly inserted.
    ///
    /// # Errors
    /// Returns an error on arity mismatch or out-of-range elements.
    pub fn insert_pred(&mut self, p: PredId, tuple: Vec<Elem>) -> Result<bool> {
        self.check_pred_tuple(p, &tuple)?;
        Ok(self.preds[p.index()].insert(tuple))
    }

    /// The checks [`Structure::insert_pred`] and
    /// [`Structure::set_pred_relation`] apply to each tuple they write: the
    /// arity, then each element's range.
    ///
    /// # Errors
    /// Returns [`LogicError::ArityMismatch`] or
    /// [`LogicError::ElementOutOfRange`].
    pub fn check_pred_tuple(&self, p: PredId, tuple: &[Elem]) -> Result<()> {
        let decl = self.sig.pred(p);
        self.check_tuple(&decl.name, &decl.domain, tuple)
    }

    fn check_tuple(&self, name: &str, sorts: &[SortId], tuple: &[Elem]) -> Result<()> {
        if sorts.len() != tuple.len() {
            return Err(LogicError::ArityMismatch {
                name: name.to_string(),
                expected: sorts.len(),
                found: tuple.len(),
            });
        }
        for (&a, &s) in tuple.iter().zip(sorts) {
            self.check_elem(s, a)?;
        }
        Ok(())
    }

    fn check_elem(&self, sort: SortId, e: Elem) -> Result<()> {
        if e.index() >= self.domains.card(sort) {
            return Err(LogicError::ElementOutOfRange {
                sort: self.sig.sort_name(sort).to_string(),
                index: e.0,
            });
        }
        Ok(())
    }

    /// Removes a tuple from a predicate's relation. Returns whether the tuple
    /// was present.
    pub fn remove_pred(&mut self, p: PredId, tuple: &[Elem]) -> bool {
        self.preds[p.index()].remove(tuple)
    }

    /// Whether the tuple is in the predicate's relation.
    #[must_use]
    pub fn pred_holds(&self, p: PredId, tuple: &[Elem]) -> bool {
        self.preds[p.index()].contains(tuple)
    }

    /// The full relation of a predicate.
    #[must_use]
    pub fn pred_relation(&self, p: PredId) -> &BTreeSet<Vec<Elem>> {
        &self.preds[p.index()]
    }

    /// Replaces the full relation of a predicate.
    ///
    /// # Errors
    /// Returns an error if any tuple is ill-formed.
    pub fn set_pred_relation(&mut self, p: PredId, tuples: BTreeSet<Vec<Elem>>) -> Result<()> {
        for tuple in &tuples {
            self.check_pred_tuple(p, tuple)?;
        }
        self.preds[p.index()] = tuples;
        Ok(())
    }

    /// A compact canonical key identifying this structure's tables, suitable
    /// for deduplication in state-space searches.
    #[must_use]
    pub fn canonical_key(&self) -> StructureKey {
        StructureKey {
            funcs: self.funcs.clone(),
            preds: self.preds.clone(),
        }
    }
}

/// Canonical content key of a [`Structure`] (tables only; signature and
/// domains are assumed shared).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructureKey {
    funcs: Vec<BTreeMap<Vec<Elem>, Elem>>,
    preds: Vec<BTreeSet<Vec<Elem>>>,
}

impl PartialEq for Structure {
    fn eq(&self, other: &Self) -> bool {
        self.funcs == other.funcs && self.preds == other.preds
    }
}

impl Eq for Structure {}

impl PartialOrd for Structure {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Structure {
    fn cmp(&self, other: &Self) -> Ordering {
        self.funcs
            .cmp(&other.funcs)
            .then_with(|| self.preds.cmp(&other.preds))
    }
}

impl Hash for Structure {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.funcs.hash(state);
        self.preds.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Signature>, Arc<Domains>) {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        sig.add_db_predicate("takes", &[student, course]).unwrap();
        let domains = Domains::from_names(
            &sig,
            &[("student", &["ana", "bob"]), ("course", &["db", "logic"])],
        )
        .unwrap();
        (Arc::new(sig), Arc::new(domains))
    }

    #[test]
    fn predicate_tables() {
        let (sig, dom) = setup();
        let mut st = Structure::new(sig.clone(), dom);
        let takes = sig.pred_id("takes").unwrap();
        assert!(st.insert_pred(takes, vec![Elem(0), Elem(1)]).unwrap());
        assert!(!st.insert_pred(takes, vec![Elem(0), Elem(1)]).unwrap());
        assert!(st.pred_holds(takes, &[Elem(0), Elem(1)]));
        assert!(!st.pred_holds(takes, &[Elem(1), Elem(1)]));
        assert!(st.remove_pred(takes, &[Elem(0), Elem(1)]));
        assert!(!st.pred_holds(takes, &[Elem(0), Elem(1)]));
    }

    #[test]
    fn out_of_range_rejected() {
        let (sig, dom) = setup();
        let mut st = Structure::new(sig.clone(), dom);
        let takes = sig.pred_id("takes").unwrap();
        assert!(matches!(
            st.insert_pred(takes, vec![Elem(7), Elem(0)]),
            Err(LogicError::ElementOutOfRange { .. })
        ));
        assert!(matches!(
            st.insert_pred(takes, vec![Elem(0)]),
            Err(LogicError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn equality_ignores_shared_metadata() {
        let (sig, dom) = setup();
        let takes = sig.pred_id("takes").unwrap();
        let mut a = Structure::new(sig.clone(), dom.clone());
        let b = Structure::new(sig.clone(), dom.clone());
        assert_eq!(a, b);
        a.insert_pred(takes, vec![Elem(0), Elem(0)]).unwrap();
        assert_ne!(a, b);
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn tuple_enumeration() {
        let (sig, dom) = setup();
        let student = sig.sort_id("student").unwrap();
        let course = sig.sort_id("course").unwrap();
        let tuples = dom.tuples(&[student, course]);
        assert_eq!(tuples.len(), 4);
        assert_eq!(dom.tuple_count(&[student, course]), 4);
        assert_eq!(dom.tuples(&[]), vec![Vec::<Elem>::new()]);
    }

    #[test]
    fn elem_names_round_trip() {
        let (sig, dom) = setup();
        let course = sig.sort_id("course").unwrap();
        let e = dom.elem_by_name(course, "logic").unwrap();
        assert_eq!(dom.elem_name(&sig, course, e).unwrap(), "logic");
        assert!(dom.elem_by_name(course, "nope").is_none());
        assert!(dom.elem_name(&sig, course, Elem(9)).is_err());
    }

    #[test]
    fn function_tables() {
        let mut sig = Signature::new();
        let nat = sig.add_sort("nat").unwrap();
        let succ = sig.add_func("succ", &[nat], nat).unwrap();
        let zero = sig.add_constant("zero", nat).unwrap();
        let dom = Arc::new(
            Domains::from_names(&sig, &[("nat", &["0", "1", "2"])]).unwrap(),
        );
        let sig = Arc::new(sig);
        let mut st = Structure::new(sig.clone(), dom);
        st.set_constant(zero, Elem(0)).unwrap();
        st.set_func(succ, vec![Elem(0)], Elem(1)).unwrap();
        st.set_func(succ, vec![Elem(1)], Elem(2)).unwrap();
        assert_eq!(st.func_value(zero, &[]).unwrap(), Elem(0));
        assert_eq!(st.func_value(succ, &[Elem(1)]).unwrap(), Elem(2));
        assert!(matches!(
            st.func_value(succ, &[Elem(2)]),
            Err(LogicError::UndefinedFunctionValue { .. })
        ));
        assert!(st.func_defined(succ, &[Elem(0)]));
        assert!(!st.func_defined(succ, &[Elem(2)]));
    }
}
