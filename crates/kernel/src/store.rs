//! The hash-consed term store.
//!
//! # The hash-consing invariant
//!
//! A [`TermStore`] maintains exactly one node per structurally distinct
//! term: interning `f(t1, …, tn)` first interns the children, then looks the
//! node `(f, child-ids)` up in a dedup table and returns the existing
//! [`TermId`] if present. Consequently **`TermId` equality is semantic
//! (structural) equality** — two interned terms are equal as trees if and
//! only if their ids are equal as `u32`s — and equality, hashing, and
//! subterm sharing are all O(1). Every downstream pass (rewriting
//! memoisation, reachability deduplication, cross-formalism comparison)
//! inherits this for free, which is why the three specification levels share
//! this single kernel.
//!
//! # Layout
//!
//! A node is a fixed-size head — its symbol and the start and length of its
//! argument run — and every application's arguments live in one arena of
//! ids, so interning a new node allocates nothing of its own. The dedup
//! table maps a node hash to the newest node with that hash; older nodes
//! with the same hash chain through a link in their heads, and a lookup
//! walks that chain comparing symbol and argument run (O(arity) per
//! candidate, because the children are already interned). [`TermStore::node`]
//! hands out a `Copy` view whose arguments borrow the arena.
//!
//! Per-node metadata (groundness, size, depth) is computed once at intern
//! time from the children's metadata; sorts are computed on first demand
//! through a [`SortOracle`] and cached per node.
//!
//! Terms contain no binders (variables are free), so substitution over
//! interned terms is trivially capture-avoiding. [`TermStore::subst`] builds
//! its argument lists in one scratch buffer the store keeps between calls.

use crate::hash::FxHashMap;
use crate::ids::{FuncId, SortId, VarId};

/// Handle to an interned term. Equality and hashing are O(1) and agree with
/// structural equality of the denoted trees (see the module docs for the
/// invariant). Ids are only meaningful relative to the [`TermStore`] that
/// issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw index into the store.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned term node, as [`TermStore::node`] shows it: a variable or an
/// application of a function symbol to already-interned arguments, which
/// borrow the store's argument arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermNode<'a> {
    /// A variable.
    Var(VarId),
    /// `f(t1, …, tn)`; constants are 0-ary applications.
    App(FuncId, &'a [TermId]),
}

/// A node's symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    Var(VarId),
    App(FuncId),
}

/// A node's fixed-size head: its symbol, its argument run in the arena
/// (empty for variables and constants), and the next older node with the
/// same hash.
#[derive(Debug, Clone, Copy)]
struct Head {
    sym: Sym,
    start: u32,
    len: u32,
    older: Option<TermId>,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    ground: bool,
    size: u32,
    depth: u32,
}

/// Sorting errors reported by [`TermStore::sort_of`], in terms of raw ids;
/// callers holding a signature can render them with names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// A function symbol was applied to the wrong number of arguments.
    ArityMismatch {
        /// The offending function symbol.
        func: FuncId,
        /// Declared arity.
        expected: usize,
        /// Number of arguments found.
        found: usize,
    },
    /// An argument's sort does not match the declared domain sort.
    ArgSort {
        /// The offending function symbol.
        func: FuncId,
        /// Zero-based argument position.
        index: usize,
        /// Declared domain sort at that position.
        expected: SortId,
        /// Sort actually found.
        found: SortId,
    },
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::ArityMismatch {
                func,
                expected,
                found,
            } => write!(
                f,
                "function #{} expects {expected} argument(s), found {found}",
                func.0
            ),
            SortError::ArgSort {
                func,
                index,
                expected,
                found,
            } => write!(
                f,
                "argument {index} of function #{} has sort #{} but #{} is required",
                func.0, found.0, expected.0
            ),
        }
    }
}

impl std::error::Error for SortError {}

/// The sort discipline the kernel consults to compute cached sorts: how
/// variables and function symbols are typed. Implemented by the logic
/// level's `Signature`.
pub trait SortOracle {
    /// The sort of a variable.
    fn var_sort(&self, v: VarId) -> SortId;
    /// The domain sorts of a function symbol.
    fn func_domain(&self, f: FuncId) -> &[SortId];
    /// The range sort of a function symbol.
    fn func_range(&self, f: FuncId) -> SortId;
}

/// Pairs a [`Binding`] holds without allocating: an equation rarely has
/// more variables than this.
const INLINE_PAIRS: usize = 8;

/// A finite binding of variables to interned terms — the substitutions
/// produced by pattern matching and consumed by [`TermStore::subst`].
///
/// Bindings are tiny (an equation rarely has more than a handful of
/// variables), so a linear scan beats any map, and the first eight pairs
/// live inline: building, cloning and dropping a binding allocates nothing
/// unless it grows past them.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The first pairs; `inline[..inline_len]` are bound.
    inline: [(VarId, TermId); INLINE_PAIRS],
    inline_len: usize,
    /// The pairs past the inline ones; empty until `inline` is full.
    spill: Vec<(VarId, TermId)>,
}

impl Default for Binding {
    fn default() -> Self {
        Binding {
            inline: [(VarId(0), TermId(0)); INLINE_PAIRS],
            inline_len: 0,
            spill: Vec::new(),
        }
    }
}

impl PartialEq for Binding {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Binding {}

impl Binding {
    /// The empty binding.
    #[must_use]
    pub fn new() -> Self {
        Binding::default()
    }

    /// Binds `x ↦ t`, replacing any previous binding for `x`.
    pub fn bind(&mut self, x: VarId, t: TermId) {
        let pairs = self.inline[..self.inline_len].iter_mut();
        for p in pairs.chain(&mut self.spill) {
            if p.0 == x {
                p.1 = t;
                return;
            }
        }
        if self.inline_len < INLINE_PAIRS {
            self.inline[self.inline_len] = (x, t);
            self.inline_len += 1;
        } else {
            self.spill.push((x, t));
        }
    }

    /// Looks up the binding for `x`.
    #[must_use]
    pub fn get(&self, x: VarId) -> Option<TermId> {
        self.iter().find(|p| p.0 == x).map(|p| p.1)
    }

    /// Number of bound variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Whether no variable is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// Removes all bindings, keeping the allocation.
    pub fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
    }

    /// Iterates over the bindings, in binding order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, TermId)> + '_ {
        self.inline[..self.inline_len]
            .iter()
            .chain(&self.spill)
            .copied()
    }
}

/// The interner/arena. See the module docs for the hash-consing invariant
/// and the layout.
#[derive(Debug, Clone, Default)]
pub struct TermStore {
    heads: Vec<Head>,
    /// Every application's arguments, one run per node, in interning order.
    args: Vec<TermId>,
    meta: Vec<Meta>,
    /// Lazily-computed per-node sort cache (`sort_of`).
    sorts: Vec<Option<SortId>>,
    /// Node hash → the newest node with that hash; older ones chain through
    /// [`Head::older`].
    dedup: FxHashMap<u64, TermId>,
    /// The argument lists `subst` is building, one run per open frame.
    scratch: Vec<TermId>,
}

fn hash_var(v: VarId) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_u32(0x5615_u32);
    h.write_u32(v.0);
    fold(h.finish())
}

fn hash_app(f: FuncId, args: &[TermId]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_u32(0xa442_u32);
    h.write_u32(f.0);
    for a in args {
        h.write_u32(a.0);
    }
    fold(h.finish())
}

/// The unit tests fold node hashes onto 16 bits, so that distinct nodes
/// share hashes and the dedup chains get walked; other builds keep all 64.
fn fold(h: u64) -> u64 {
    if cfg!(test) {
        h & 0xffff
    } else {
        h
    }
}

impl TermStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        TermStore::default()
    }

    /// Number of distinct interned terms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    fn args_of(&self, h: Head) -> &[TermId] {
        &self.args[h.start as usize..(h.start + h.len) as usize]
    }

    /// The node with this hash, symbol and arguments, if interned.
    fn find(&self, hash: u64, sym: Sym, args: &[TermId]) -> Option<TermId> {
        let mut next = self.dedup.get(&hash).copied();
        while let Some(id) = next {
            let h = self.heads[id.index()];
            if h.sym == sym && self.args_of(h) == args {
                return Some(id);
            }
            next = h.older;
        }
        None
    }

    fn push(&mut self, hash: u64, sym: Sym, args: &[TermId], meta: Meta) -> TermId {
        let id = TermId(u32::try_from(self.heads.len()).expect("term count fits u32"));
        let start = u32::try_from(self.args.len()).expect("argument count fits u32");
        let len = u32::try_from(args.len()).expect("arity fits u32");
        self.args.extend_from_slice(args);
        let older = self.dedup.insert(hash, id);
        self.heads.push(Head {
            sym,
            start,
            len,
            older,
        });
        self.meta.push(meta);
        self.sorts.push(None);
        id
    }

    /// Interns a variable term.
    pub fn var(&mut self, v: VarId) -> TermId {
        let h = hash_var(v);
        if let Some(id) = self.find(h, Sym::Var(v), &[]) {
            return id;
        }
        let meta = Meta {
            ground: false,
            size: 1,
            depth: 1,
        };
        self.push(h, Sym::Var(v), &[], meta)
    }

    /// Interns an application `f(args…)`. Constants are `app(f, &[])`.
    pub fn app(&mut self, f: FuncId, args: &[TermId]) -> TermId {
        let h = hash_app(f, args);
        if let Some(id) = self.find(h, Sym::App(f), args) {
            return id;
        }
        let mut ground = true;
        let mut size = 1u32;
        let mut depth = 0u32;
        for a in args {
            let m = self.meta[a.index()];
            ground &= m.ground;
            size = size.saturating_add(m.size);
            depth = depth.max(m.depth);
        }
        let meta = Meta {
            ground,
            size,
            depth: depth + 1,
        };
        self.push(h, Sym::App(f), args, meta)
    }

    /// Interns a constant (0-ary application).
    pub fn constant(&mut self, f: FuncId) -> TermId {
        self.app(f, &[])
    }

    /// The node denoted by an id.
    ///
    /// # Panics
    /// Panics if the id was issued by a different store.
    #[must_use]
    pub fn node(&self, t: TermId) -> TermNode<'_> {
        let h = self.heads[t.index()];
        match h.sym {
            Sym::Var(v) => TermNode::Var(v),
            Sym::App(f) => TermNode::App(f, self.args_of(h)),
        }
    }

    /// Whether the term contains no variables (cached).
    #[must_use]
    pub fn is_ground(&self, t: TermId) -> bool {
        self.meta[t.index()].ground
    }

    /// Number of symbol occurrences (cached).
    #[must_use]
    pub fn size(&self, t: TermId) -> usize {
        self.meta[t.index()].size as usize
    }

    /// Maximum nesting depth; a constant or variable has depth 1 (cached).
    #[must_use]
    pub fn depth(&self, t: TermId) -> usize {
        self.meta[t.index()].depth as usize
    }

    /// All subterm ids in pre-order, including `t` itself. Shared subterms
    /// appear once per occurrence.
    #[must_use]
    pub fn subterms(&self, t: TermId) -> Vec<TermId> {
        let mut out = Vec::with_capacity(self.size(t));
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            out.push(id);
            if let TermNode::App(_, args) = self.node(id) {
                stack.extend(args.iter().rev());
            }
        }
        out
    }

    /// The *distinct* subterm ids of `t` (each shared subtree once) — the
    /// interned analogue of a subterm set, used by completeness and
    /// confluence passes.
    #[must_use]
    pub fn subterm_set(&self, t: TermId) -> Vec<TermId> {
        let mut seen = crate::hash::FxHashSet::default();
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            out.push(id);
            if let TermNode::App(_, args) = self.node(id) {
                stack.extend(args.iter().rev());
            }
        }
        out
    }

    /// Whether `sub` occurs within `t` (including `sub == t`). O(1) when
    /// `t` is ground and `sub` is not, O(distinct subterms) otherwise.
    #[must_use]
    pub fn contains(&self, t: TermId, sub: TermId) -> bool {
        if t == sub {
            return true;
        }
        // A strictly larger term cannot occur inside a smaller one.
        if self.size(sub) >= self.size(t) {
            return false;
        }
        if self.is_ground(t) && !self.is_ground(sub) {
            return false;
        }
        self.subterm_set(t).contains(&sub)
    }

    /// Accumulates the variables of `t` into `out` (deduplicated, sorted by
    /// the caller's collection). Skips ground subtrees via cached metadata.
    pub fn collect_vars(&self, t: TermId, out: &mut std::collections::BTreeSet<VarId>) {
        if self.is_ground(t) {
            return;
        }
        match self.node(t) {
            TermNode::Var(v) => {
                out.insert(v);
            }
            TermNode::App(_, args) => {
                for &a in args {
                    self.collect_vars(a, out);
                }
            }
        }
    }

    /// The sort of an interned term, computed bottom-up through `oracle` and
    /// cached per node: after the first call, re-sorting any term that
    /// shares structure is O(1) per shared node.
    ///
    /// # Errors
    /// Returns a [`SortError`] if the term is ill-sorted; nothing is cached
    /// along the failing path.
    pub fn sort_of(&mut self, t: TermId, oracle: &impl SortOracle) -> Result<SortId, SortError> {
        if let Some(s) = self.sorts[t.index()] {
            return Ok(s);
        }
        let h = self.heads[t.index()];
        let sort = match h.sym {
            Sym::Var(v) => oracle.var_sort(v),
            Sym::App(f) => {
                let expected = oracle.func_domain(f).len();
                if expected != h.len as usize {
                    return Err(SortError::ArityMismatch {
                        func: f,
                        expected,
                        found: h.len as usize,
                    });
                }
                for i in 0..expected {
                    // Indexed afresh each time: sorting a child only fills
                    // the sort cache, but the borrow checker cannot see that.
                    let a = self.args[h.start as usize + i];
                    let found = self.sort_of(a, oracle)?;
                    let declared = oracle.func_domain(f)[i];
                    if found != declared {
                        return Err(SortError::ArgSort {
                            func: f,
                            index: i,
                            expected: declared,
                            found,
                        });
                    }
                }
                oracle.func_range(f)
            }
        };
        self.sorts[t.index()] = Some(sort);
        Ok(sort)
    }

    /// Applies a binding to an interned term, returning the interned result.
    /// Ground subtrees are returned as-is (O(1), via cached metadata);
    /// unbound variables are left in place. Terms contain no binders, so the
    /// operation is capture-avoiding by construction.
    pub fn subst(&mut self, t: TermId, binding: &Binding) -> TermId {
        if binding.is_empty() || self.is_ground(t) {
            return t;
        }
        let mut stack = std::mem::take(&mut self.scratch);
        let out = self.subst_onto(t, binding, &mut stack);
        self.scratch = stack;
        out
    }

    /// [`TermStore::subst`] with the argument lists built on `stack`: a
    /// frame pushes its substituted arguments past its caller's, interns
    /// them and truncates back.
    fn subst_onto(&mut self, t: TermId, binding: &Binding, stack: &mut Vec<TermId>) -> TermId {
        if self.is_ground(t) {
            return t;
        }
        let h = self.heads[t.index()];
        match h.sym {
            Sym::Var(v) => binding.get(v).unwrap_or(t),
            Sym::App(f) => {
                let base = stack.len();
                let mut changed = false;
                for i in h.start..h.start + h.len {
                    // Indexed afresh each time: interning below may grow
                    // (and move) the arena.
                    let a = self.args[i as usize];
                    let b = self.subst_onto(a, binding, stack);
                    changed |= b != a;
                    stack.push(b);
                }
                let out = if changed {
                    self.app(f, &stack[base..])
                } else {
                    t
                };
                stack.truncate(base);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;

    // One sort #0; f: #0 × #0 → #0 (FuncId 10), constants a=#1, b=#2.
    impl SortOracle for Toy {
        fn var_sort(&self, _v: VarId) -> SortId {
            SortId(0)
        }
        fn func_domain(&self, f: FuncId) -> &[SortId] {
            if f == FuncId(10) {
                &[SortId(0), SortId(0)]
            } else {
                &[]
            }
        }
        fn func_range(&self, _f: FuncId) -> SortId {
            SortId(0)
        }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut s = TermStore::new();
        let a = s.constant(FuncId(1));
        let x = s.var(VarId(0));
        let t1 = s.app(FuncId(10), &[a, x]);
        let a2 = s.constant(FuncId(1));
        let x2 = s.var(VarId(0));
        let t2 = s.app(FuncId(10), &[a2, x2]);
        assert_eq!(a, a2);
        assert_eq!(x, x2);
        assert_eq!(t1, t2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn metadata_is_cached_correctly() {
        let mut s = TermStore::new();
        let a = s.constant(FuncId(1));
        let x = s.var(VarId(0));
        let t = s.app(FuncId(10), &[a, x]);
        let tt = s.app(FuncId(10), &[t, a]);
        assert!(s.is_ground(a));
        assert!(!s.is_ground(t));
        assert!(!s.is_ground(tt));
        assert_eq!(s.size(t), 3);
        assert_eq!(s.depth(t), 2);
        assert_eq!(s.size(tt), 5);
        assert_eq!(s.depth(tt), 3);
        assert_eq!(s.subterms(tt).len(), 5);
        assert_eq!(s.subterm_set(tt).len(), 4); // `a` shared
        assert!(s.contains(tt, t));
        assert!(s.contains(tt, x));
        assert!(!s.contains(t, tt));
    }

    #[test]
    fn sorts_cached_and_errors_reported() {
        let mut s = TermStore::new();
        let a = s.constant(FuncId(1));
        let t = s.app(FuncId(10), &[a, a]);
        assert_eq!(s.sort_of(t, &Toy).unwrap(), SortId(0));
        assert_eq!(s.sort_of(t, &Toy).unwrap(), SortId(0));
        let bad = s.app(FuncId(10), &[a]);
        assert!(matches!(
            s.sort_of(bad, &Toy),
            Err(SortError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            })
        ));
    }

    #[test]
    fn substitution_shares_and_short_circuits() {
        let mut s = TermStore::new();
        let a = s.constant(FuncId(1));
        let b = s.constant(FuncId(2));
        let x = s.var(VarId(0));
        let t = s.app(FuncId(10), &[x, a]);
        let mut bind = Binding::new();
        bind.bind(VarId(0), b);
        let r = s.subst(t, &bind);
        let expected = s.app(FuncId(10), &[b, a]);
        assert_eq!(r, expected);
        // Ground terms are untouched and identical.
        assert_eq!(s.subst(expected, &bind), expected);
        // Unbound variables stay.
        let y = s.var(VarId(1));
        let u = s.app(FuncId(10), &[y, a]);
        assert_eq!(s.subst(u, &bind), u);
    }

    #[test]
    fn stress_100k_distinct_terms_no_collisions() {
        let mut s = TermStore::new();
        let mut ids = Vec::new();
        // 100_000 distinct constants by id.
        for i in 0..100_000u32 {
            ids.push(s.constant(FuncId(i)));
        }
        assert_eq!(s.len(), 100_000);
        let set: std::collections::BTreeSet<_> = ids.iter().copied().collect();
        assert_eq!(set.len(), 100_000, "all ids distinct");
        // Re-interning returns the same ids, store does not grow.
        for i in 0..100_000u32 {
            assert_eq!(s.constant(FuncId(i)), ids[i as usize]);
        }
        assert_eq!(s.len(), 100_000);
        // Deep chain: f(c_i, prev) — distinct at every level.
        let mut t = ids[0];
        let before = s.len();
        for &c in ids.iter().take(1000) {
            t = s.app(FuncId(100_000), &[c, t]);
        }
        assert_eq!(s.len(), before + 1000);
        assert_eq!(s.depth(t), 1001);
        // Applications of arity 0–3 and variables, all distinct: every
        // argument run is read back from the arena, and under the unit
        // tests' 16-bit hashes many nodes share a hash, so lookups walk the
        // dedup chains.
        let before = s.len();
        let mut made = Vec::new();
        for i in 0..40_000u32 {
            let arity = (i % 4) as usize;
            let f = if arity == 0 {
                FuncId(300_000 + i)
            } else {
                FuncId(200_000 + i % 4)
            };
            let args: Vec<TermId> = (0..arity)
                .map(|k| ids[(i as usize / 4 + k * 31) % ids.len()])
                .collect();
            made.push((f, args.clone(), s.app(f, &args)));
        }
        let vars: Vec<TermId> = (0..1000).map(|v| s.var(VarId(v))).collect();
        assert_eq!(s.len(), before + 40_000 + 1000);
        assert!(s.dedup.len() < s.len(), "some nodes share a hash");
        for (f, args, id) in &made {
            assert_eq!(s.node(*id), TermNode::App(*f, args));
            assert_eq!(s.app(*f, args), *id);
        }
        for (v, &id) in vars.iter().enumerate() {
            assert_eq!(s.node(id), TermNode::Var(VarId(v as u32)));
            assert_eq!(s.var(VarId(v as u32)), id);
        }
        assert_eq!(s.len(), before + 40_000 + 1000);
    }

    #[test]
    fn bindings_spill_past_the_inline_pairs() {
        let mut s = TermStore::new();
        let a = s.constant(FuncId(1));
        let b = s.constant(FuncId(2));
        let mut bind = Binding::new();
        let n = INLINE_PAIRS as u32 + 3;
        for v in 0..n {
            bind.bind(VarId(v), a);
        }
        // Rebinding finds the pair wherever it lives.
        bind.bind(VarId(1), b);
        bind.bind(VarId(n - 1), b);
        assert_eq!(bind.len(), n as usize);
        assert_eq!(bind.get(VarId(1)), Some(b));
        assert_eq!(bind.get(VarId(n - 1)), Some(b));
        assert_eq!(bind.get(VarId(0)), Some(a));
        assert_eq!(bind.get(VarId(n)), None);
        let order: Vec<VarId> = bind.iter().map(|(v, _)| v).collect();
        assert_eq!(order, (0..n).map(VarId).collect::<Vec<_>>());
        assert_eq!(bind.clone(), bind);
        bind.clear();
        assert!(bind.is_empty());
        assert_eq!(bind.get(VarId(0)), None);
    }
}
