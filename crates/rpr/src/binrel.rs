//! Binary relations over finite universes — the meanings of RPR statements.
//!
//! Since PR 6 the representation is no longer a `BTreeSet<(usize, usize)>`
//! but the kernel's dual-backend [`eclectic_kernel::Rel`]: a dense
//! row-major bit matrix on small universes (union/meet are word-wise
//! OR/AND, composition an OR-gather of rows, the reflexive-transitive
//! closure a word-parallel per-source BFS) and a sparse sorted-adjacency
//! store past the crossover dimension (sorted-merge set algebra,
//! semi-naive delta closure), selected per relation by
//! `ECLECTIC_REL_BACKEND` / the automatic policy. The observable behaviour
//! is unchanged on both backends: [`BinRel::iter`] streams pairs in the
//! exact ascending `(a, b)` order of the old set, and equality compares
//! the *pair sets* (two relations of different allocated dimensions — or
//! different backends — are equal iff they hold the same pairs), so every
//! report built on top stays bit-identical.
//!
//! The allocated dimension grows on demand under [`BinRel::insert`];
//! builders that know the universe size up front use [`BinRel::with_dim`]
//! to skip the growth re-layouts (and to let the policy pick the sparse
//! backend immediately on huge universes). Long-running operators have
//! `*_governed` variants polling a [`Budget`] at row-stride boundaries on
//! the timing and relation-memory axes.

use std::collections::BTreeSet;

use eclectic_kernel::{Budget, BudgetExceeded, LazyClosure, Rel, RelBackend};

/// A binary relation over state indices `0..n`.
#[derive(Clone, Default)]
pub struct BinRel {
    rel: Rel,
}

impl std::fmt::Debug for BinRel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinRel")
            .field("pairs", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// Equality is over the pair *sets*: the allocated dimensions and storage
/// backends may differ (e.g. an `identity(n)` composed against a relation
/// grown pair-by-pair), only the pairs count — exactly the old `BTreeSet`
/// equality.
impl PartialEq for BinRel {
    fn eq(&self, other: &Self) -> bool {
        self.rel.set_eq(&other.rel)
    }
}

impl Eq for BinRel {}

impl BinRel {
    /// The empty relation.
    #[must_use]
    pub fn new() -> Self {
        BinRel::default()
    }

    /// The empty relation with dimension `n` pre-allocated, so `n * n`
    /// inserts never re-layout. Equality ignores the dimension.
    #[must_use]
    pub fn with_dim(n: usize) -> Self {
        BinRel { rel: Rel::new(n) }
    }

    /// The identity relation on `0..n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        BinRel {
            rel: Rel::identity(n),
        }
    }

    /// Builds from an iterator of pairs.
    #[must_use]
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(pairs: I) -> Self {
        let mut out = BinRel::new();
        for (a, b) in pairs {
            out.insert(a, b);
        }
        out
    }

    /// The allocated dimension (indices `< dim()` are representable without
    /// growth). Not part of the relation's identity.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rel.dim()
    }

    /// The storage backend currently holding the relation — dense bit
    /// matrix or sparse adjacency, per the kernel's crossover policy. Not
    /// part of the relation's identity.
    #[must_use]
    pub fn backend(&self) -> RelBackend {
        self.rel.backend()
    }

    /// Grows the allocated dimension to at least `d` (geometric, rounded to
    /// whole words, so repeated inserts re-layout O(log) times); growth
    /// across the crossover migrates the relation to sparse storage.
    fn ensure_dim(&mut self, d: usize) {
        if d <= self.rel.dim() {
            return;
        }
        let target = d.max(self.rel.dim() * 2).div_ceil(64) * 64;
        self.rel = self.rel.resized(target);
    }

    /// Inserts a pair; returns whether it was new.
    pub fn insert(&mut self, a: usize, b: usize) -> bool {
        self.ensure_dim(a.max(b) + 1);
        self.rel.set(a, b)
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.rel.dim() && b < self.rel.dim() && self.rel.get(a, b)
    }

    /// Number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rel.count_ones()
    }

    /// Whether the relation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rel.is_zero()
    }

    /// Iterates over the pairs in ascending `(a, b)` order — identical on
    /// both backends.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rel.iter()
    }

    /// The pairs in ascending order, collected.
    #[must_use]
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.iter().collect()
    }

    /// The image of a single state: `{b | (a, b) ∈ R}`.
    #[must_use]
    pub fn image(&self, a: usize) -> BTreeSet<usize> {
        if a >= self.rel.dim() {
            return BTreeSet::new();
        }
        self.rel.iter_row(a).collect()
    }

    /// Union — `m(p ∪ q) = m(p) ∪ m(q)`.
    #[must_use]
    pub fn union(&self, other: &BinRel) -> BinRel {
        BinRel {
            rel: self.rel.union(&other.rel),
        }
    }

    /// Intersection (meet).
    #[must_use]
    pub fn meet(&self, other: &BinRel) -> BinRel {
        BinRel {
            rel: self.rel.meet(&other.rel),
        }
    }

    /// The diagonal complement on `0..n`: `{(i, i) | i < n, (i, i) ∉ R}`.
    /// For a test denotation `m(c?)` this is exactly `m((¬c)?)` — the
    /// guard-negation mask `If`/`While` desugarings need, derived without
    /// re-denoting the negated formula.
    #[must_use]
    pub fn diag_complement(&self, n: usize) -> BinRel {
        let mut out = BinRel::with_dim(n);
        for i in 0..n {
            if !self.contains(i, i) {
                out.rel.set(i, i);
            }
        }
        out
    }

    /// Composition — `m(p ; q) = m(p) ∘ m(q)` (apply `self` first).
    #[must_use]
    pub fn compose(&self, other: &BinRel) -> BinRel {
        match self.compose_governed(other, &Budget::unlimited()) {
            Ok(r) => r,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`compose`](Self::compose), polling `budget` at row-stride
    /// boundaries (timing and relation-memory axes; callers strip the node
    /// cap).
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    pub fn compose_governed(&self, other: &BinRel, budget: &Budget) -> Result<BinRel, BudgetExceeded> {
        Ok(BinRel {
            rel: self.rel.compose_governed(&other.rel, budget)?,
        })
    }

    /// Reflexive-transitive closure over `0..n` — `m(p*) = (m(p))*`.
    ///
    /// As with the set-based implementation this replaced: the BFS may
    /// traverse and emit targets `≥ n` reachable from a source `< n`, but
    /// never *starts* from a source `≥ n`.
    #[must_use]
    pub fn star(&self, n: usize) -> BinRel {
        match self.star_governed(n, &Budget::unlimited()) {
            Ok(r) => r,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`star`](Self::star), polling `budget` at row-stride boundaries
    /// (timing and relation-memory axes; callers strip the node cap).
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    pub fn star_governed(&self, n: usize, budget: &Budget) -> Result<BinRel, BudgetExceeded> {
        // Materialization goes through the demand-driven closure layer;
        // with nothing pre-demanded it takes the backend's eager closure,
        // so only sources < n start a traversal.
        let closed = if self.rel.dim() >= n {
            LazyClosure::new(&self.rel).materialize_governed(n, budget)?
        } else {
            let grown = self.rel.resized(n);
            LazyClosure::new(&grown).materialize_governed(n, budget)?
        };
        Ok(BinRel { rel: closed })
    }

    /// `[self*]`-modality sweep without materializing the closure:
    /// equivalent to `self.star_governed(inner.len(), ..)` followed by
    /// [`box_states`](Self::box_states), but each source's traversal
    /// stops at the first violating reachable state and sweep-wide
    /// verdict memos keep the whole pass near-linear — the closure
    /// relation itself is never built.
    ///
    /// # Errors
    /// Returns the tripped axis; partial verdicts are discarded.
    pub fn box_star_states_governed(
        &self,
        inner: &[bool],
        budget: &Budget,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        if self.rel.dim() >= inner.len() {
            LazyClosure::new(&self.rel).box_star_states(inner, budget)
        } else {
            let grown = self.rel.resized(inner.len());
            LazyClosure::new(&grown).box_star_states(inner, budget)
        }
    }

    /// `⟨self*⟩`-modality sweep without materializing the closure:
    /// equivalent to `self.star_governed(inner.len(), ..)` followed by
    /// [`diamond_states`](Self::diamond_states); dual memoization to
    /// [`box_star_states_governed`](Self::box_star_states_governed).
    ///
    /// # Errors
    /// Returns the tripped axis; partial verdicts are discarded.
    pub fn diamond_star_states_governed(
        &self,
        inner: &[bool],
        budget: &Budget,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        if self.rel.dim() >= inner.len() {
            LazyClosure::new(&self.rel).diamond_star_states(inner, budget)
        } else {
            let grown = self.rel.resized(inner.len());
            LazyClosure::new(&grown).diamond_star_states(inner, budget)
        }
    }

    /// Whether the relation is a partial function (each source has at most
    /// one target).
    #[must_use]
    pub fn is_functional(&self) -> bool {
        self.rel.is_functional()
    }

    /// Whether the relation is total on `0..n` (each source has at least one
    /// target).
    #[must_use]
    pub fn is_total(&self, n: usize) -> bool {
        self.rel.is_total(n)
    }

    /// One `[p]`-modality sweep: `out[i]` is true iff every target of `i`
    /// lies in `inner` (vacuously true for target-free rows). `inner[j]`
    /// gives the satisfaction of the inner formula at state `j`; targets
    /// `≥ inner.len()` count as unsatisfied. Word-parallel on the dense
    /// backend, an adjacency scan on the sparse one.
    #[must_use]
    pub fn box_states(&self, inner: &[bool]) -> Vec<bool> {
        self.rel.box_states(inner)
    }

    /// One `⟨p⟩`-modality sweep: `out[i]` is true iff some target of `i`
    /// lies in `inner`.
    #[must_use]
    pub fn diamond_states(&self, inner: &[bool]) -> Vec<bool> {
        self.rel.diamond_states(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_compose_star() {
        let r = BinRel::from_pairs([(0, 1), (1, 2)]);
        let s = BinRel::from_pairs([(2, 0)]);
        assert_eq!(r.union(&s).len(), 3);

        let rs = r.compose(&r);
        assert!(rs.contains(0, 2));
        assert_eq!(rs.len(), 1);

        let star = r.star(3);
        // identity + (0,1),(1,2),(0,2)
        assert!(star.contains(0, 0));
        assert!(star.contains(0, 2));
        assert!(star.contains(2, 2));
        assert!(!star.contains(2, 0));
        assert_eq!(star.len(), 6);
    }

    #[test]
    fn image_and_functionality() {
        let r = BinRel::from_pairs([(0, 1), (0, 2), (1, 1)]);
        assert_eq!(r.image(0).len(), 2);
        assert_eq!(r.image(5).len(), 0);
        assert!(!r.is_functional());
        assert!(!r.is_total(3));
        let f = BinRel::from_pairs([(0, 1), (1, 1), (2, 0)]);
        assert!(f.is_functional());
        assert!(f.is_total(3));
    }

    #[test]
    fn identity_neutral_for_compose() {
        let r = BinRel::from_pairs([(0, 1), (1, 2)]);
        let id = BinRel::identity(3);
        assert_eq!(r.compose(&id), r);
        assert_eq!(id.compose(&r), r);
    }

    #[test]
    fn equality_ignores_allocated_dimension() {
        let mut grown = BinRel::with_dim(128);
        grown.insert(0, 1);
        let tight = BinRel::from_pairs([(0, 1)]);
        assert_eq!(grown, tight);
        assert_eq!(tight, grown);
        assert_ne!(grown, BinRel::from_pairs([(0, 2)]));
        assert_eq!(BinRel::with_dim(64), BinRel::new());
    }

    #[test]
    fn star_can_emit_targets_beyond_n() {
        // Pairs reach index 5 from source 0; star(2) keeps (0,5) but never
        // starts from 5 — the old BFS behaviour.
        let r = BinRel::from_pairs([(0, 5), (5, 6)]);
        let s = r.star(2);
        assert!(s.contains(0, 0) && s.contains(0, 5) && s.contains(0, 6));
        assert!(s.contains(1, 1));
        assert!(!s.contains(5, 5) && !s.contains(5, 6) && !s.contains(6, 6));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn diag_complement_is_negated_test() {
        let test = BinRel::from_pairs([(0, 0), (2, 2)]);
        let ntest = test.diag_complement(4);
        assert_eq!(ntest, BinRel::from_pairs([(1, 1), (3, 3)]));
        assert_eq!(BinRel::new().diag_complement(2), BinRel::identity(2));
    }

    #[test]
    fn meet_intersects() {
        let a = BinRel::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let b = BinRel::from_pairs([(1, 2), (2, 1)]);
        assert_eq!(a.meet(&b), BinRel::from_pairs([(1, 2)]));
    }

    #[test]
    fn modal_sweeps_match_image_scans() {
        let m = BinRel::from_pairs([(0, 1), (0, 2), (1, 2), (3, 0)]);
        let inner = vec![false, true, true, false];
        let box_ref: Vec<bool> = (0..inner.len())
            .map(|i| m.image(i).into_iter().all(|j| inner[j]))
            .collect();
        let dia_ref: Vec<bool> = (0..inner.len())
            .map(|i| m.image(i).into_iter().any(|j| inner[j]))
            .collect();
        assert_eq!(m.box_states(&inner), box_ref);
        assert_eq!(m.diamond_states(&inner), dia_ref);
    }

    #[test]
    fn random_star_and_compose_match_image_references() {
        let mut r = BinRel::with_dim(300);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            r.insert((x % 300) as usize, ((x >> 16) % 300) as usize);
        }
        let comp_ref = BinRel::from_pairs(
            (0..300).flat_map(|a| r.image(a).into_iter().flat_map(|b| r.image(b)).map(move |c| (a, c))),
        );
        assert_eq!(r.compose(&r), comp_ref);
        let mut star_ref = BinRel::identity(300);
        loop {
            let next = star_ref.union(&star_ref.compose(&r));
            if next == star_ref {
                break;
            }
            star_ref = next;
        }
        assert_eq!(r.star(300), star_ref);
    }

    #[test]
    fn forced_sparse_backend_reproduces_dense_observations() {
        let pairs = [(0usize, 1usize), (1, 2), (2, 0), (5, 70), (70, 5)];
        let dense = {
            let _g = eclectic_kernel::force_rel_backend(eclectic_kernel::RelChoice::Dense);
            let r = BinRel::from_pairs(pairs);
            (r.star(71).pairs(), r.compose(&r).pairs(), r.dim())
        };
        let _g = eclectic_kernel::force_rel_backend(eclectic_kernel::RelChoice::Sparse);
        let r = BinRel::from_pairs(pairs);
        assert_eq!(r.backend(), RelBackend::Sparse);
        assert_eq!(r.star(71).pairs(), dense.0);
        assert_eq!(r.compose(&r).pairs(), dense.1);
        assert_eq!(r.dim(), dense.2);
    }
}
