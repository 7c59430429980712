//! Kripke universes: sets of structures with an accessibility relation.
//!
//! Paper §3.1: "A universe U for L_T is a pair (S, R), where S is a set of
//! structures of L, all with the same domain D, and R is a binary relation
//! over S, called the accessibility relation." States are interpreted as
//! database states and `R(A, B)` as "B is a future state with respect to A".

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use eclectic_logic::{Domains, LogicError, Result, Signature, Structure, StructureKey};

/// Index of a state within a [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateIdx(pub usize);

impl StateIdx {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A finite Kripke universe `U = (S, R)`.
#[derive(Debug, Clone)]
pub struct Universe {
    sig: Arc<Signature>,
    domains: Arc<Domains>,
    states: Vec<Structure>,
    /// Dedup index from structure content to state index.
    index: BTreeMap<StructureKey, StateIdx>,
    /// Accessibility relation as forward adjacency.
    succ: Vec<BTreeSet<StateIdx>>,
}

impl Universe {
    /// Creates an empty universe over a signature and shared domains.
    #[must_use]
    pub fn new(sig: Arc<Signature>, domains: Arc<Domains>) -> Self {
        Universe {
            sig,
            domains,
            states: Vec::new(),
            index: BTreeMap::new(),
            succ: Vec::new(),
        }
    }

    /// The signature shared by all states.
    #[must_use]
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// The domains shared by all states.
    #[must_use]
    pub fn domains(&self) -> &Arc<Domains> {
        &self.domains
    }

    /// Adds a state, deduplicating by content. Returns its index and whether
    /// it was newly added.
    ///
    /// # Errors
    /// Returns [`LogicError::SignatureMismatch`] if the state was built over
    /// different shared metadata (all states must have the same domain).
    pub fn add_state(&mut self, st: Structure) -> Result<(StateIdx, bool)> {
        if !Arc::ptr_eq(st.signature(), &self.sig) || !Arc::ptr_eq(st.domains(), &self.domains) {
            return Err(LogicError::SignatureMismatch);
        }
        let key = st.canonical_key();
        if let Some(&idx) = self.index.get(&key) {
            return Ok((idx, false));
        }
        let idx = StateIdx(self.states.len());
        self.states.push(st);
        self.index.insert(key, idx);
        self.succ.push(BTreeSet::new());
        Ok((idx, true))
    }

    /// Adds `R(a, b)` to the accessibility relation.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn add_edge(&mut self, a: StateIdx, b: StateIdx) {
        assert!(a.index() < self.states.len() && b.index() < self.states.len());
        self.succ[a.index()].insert(b);
    }

    /// The state at an index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[must_use]
    pub fn state(&self, idx: StateIdx) -> &Structure {
        &self.states[idx.index()]
    }

    /// Looks up a state by content.
    #[must_use]
    pub fn find_state(&self, st: &Structure) -> Option<StateIdx> {
        self.index.get(&st.canonical_key()).copied()
    }

    /// Number of states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of accessibility edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(BTreeSet::len).sum()
    }

    /// Iterates over all state indices.
    pub fn state_indices(&self) -> impl Iterator<Item = StateIdx> {
        (0..self.states.len()).map(StateIdx)
    }

    /// Successors of a state under `R`.
    #[must_use]
    pub fn successors(&self, a: StateIdx) -> &BTreeSet<StateIdx> {
        &self.succ[a.index()]
    }

    /// Whether `R(a, b)` holds.
    #[must_use]
    pub fn accessible(&self, a: StateIdx, b: StateIdx) -> bool {
        self.succ[a.index()].contains(&b)
    }

    /// All edges `(a, b)` of the accessibility relation.
    pub fn edges(&self) -> impl Iterator<Item = (StateIdx, StateIdx)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(a, bs)| bs.iter().map(move |&b| (StateIdx(a), b)))
    }

    /// Replaces `R` with its reflexive-transitive closure `R*`.
    ///
    /// The paper's accessibility relation "B is a future state of A" is most
    /// naturally closed under composition; checkers can work either with the
    /// single-step relation or with its closure (see the DESIGN.md ablation).
    pub fn close_reflexive_transitive(&mut self) {
        let n = self.states.len();
        // The closure runs on the shared relation kernel at one worker, as
        // this method takes no worker count: a word-parallel per-source BFS
        // on the dense bit matrix for small universes, a semi-naive delta
        // closure on sorted adjacency lists past the crossover dimension
        // (each source's reachable row is independent of every other's, so
        // the result is identical for either backend, and to the fixpoint
        // iteration this replaced).
        let mut mat = eclectic_kernel::Rel::new(n);
        for (a, bs) in self.succ.iter().enumerate() {
            for &b in bs {
                mat.set(a, b.index());
            }
        }
        let closed = mat.closure_reflexive_transitive();
        self.succ = (0..n)
            .map(|a| closed.iter_row(a).map(StateIdx).collect())
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_logic::Elem;

    fn base() -> (Arc<Signature>, Arc<Domains>) {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        (Arc::new(sig), Arc::new(dom))
    }

    fn state(sig: &Arc<Signature>, dom: &Arc<Domains>, offered: &[u32]) -> Structure {
        let mut st = Structure::new(sig.clone(), dom.clone());
        let p = sig.pred_id("offered").unwrap();
        for &e in offered {
            st.insert_pred(p, vec![Elem(e)]).unwrap();
        }
        st
    }

    #[test]
    fn dedup_and_edges() {
        let (sig, dom) = base();
        let mut u = Universe::new(sig.clone(), dom.clone());
        let (a, fresh_a) = u.add_state(state(&sig, &dom, &[])).unwrap();
        let (b, fresh_b) = u.add_state(state(&sig, &dom, &[0])).unwrap();
        let (a2, fresh_a2) = u.add_state(state(&sig, &dom, &[])).unwrap();
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        u.add_edge(a, b);
        assert!(u.accessible(a, b));
        assert!(!u.accessible(b, a));
        assert_eq!(u.state_count(), 2);
        assert_eq!(u.edge_count(), 1);
        assert_eq!(
            u.successors(a).iter().copied().collect::<Vec<_>>(),
            vec![b]
        );
    }

    #[test]
    fn foreign_state_rejected() {
        let (sig, dom) = base();
        let (sig2, dom2) = base();
        let mut u = Universe::new(sig, dom);
        let st = state(&sig2, &dom2, &[]);
        assert!(matches!(
            u.add_state(st),
            Err(LogicError::SignatureMismatch)
        ));
    }

    #[test]
    fn closure_and_reachability() {
        let (sig, dom) = base();
        let mut u = Universe::new(sig.clone(), dom.clone());
        let (a, _) = u.add_state(state(&sig, &dom, &[])).unwrap();
        let (b, _) = u.add_state(state(&sig, &dom, &[0])).unwrap();
        let (c, _) = u.add_state(state(&sig, &dom, &[0, 1])).unwrap();
        u.add_edge(a, b);
        u.add_edge(b, c);
        assert!(!u.accessible(a, c));
        u.close_reflexive_transitive();
        assert_eq!(u.successors(a).len(), 3);
        assert!(u.accessible(a, c));
        assert!(u.accessible(a, a));
        assert!(u.accessible(c, c));
        assert!(!u.accessible(c, a));
    }
}
