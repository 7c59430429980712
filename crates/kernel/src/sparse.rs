//! Sparse adjacency matrices — the large-universe backend for binary
//! relations over finite universes.
//!
//! A [`SparseRel`] stores an `n × n` boolean matrix as one sorted `u32`
//! column list per row. Where the dense [`BitMatrix`](crate::BitMatrix)
//! spends `n · ⌈n/64⌉` words regardless of fill (a million-state relation
//! is ~125 GB), the sparse backend spends one entry per *pair*, so the
//! denotations the RPR/PDL semantics actually build — functional updates,
//! test diagonals, bounded-image closures — stay proportional to their
//! content and universes two orders of magnitude beyond the dense wall
//! become checkable.
//!
//! Union and meet are two-pointer sorted merges per row; composition is a
//! per-row gather of `other`'s rows followed by a sort-merge dedup; the
//! reflexive-transitive closure is a per-source *semi-naive* fixpoint: a
//! delta worklist holds exactly the rows discovered by the previous round,
//! and only their adjacency is scanned again (nodes already in the closed
//! set are never re-expanded).
//!
//! # Iteration order
//!
//! [`SparseRel::iter`] and [`SparseRel::iter_row`] stream pairs in exactly
//! the ascending lexicographic `(r, c)` order a `BTreeSet<(usize, usize)>`
//! would produce — the same contract the dense backend upholds, so the two
//! are interchangeable under every report built on top.
//!
//! # Budgets
//!
//! The `*_governed` variants poll a [`Budget`] every [`ROW_POLL_STRIDE`]
//! rows through
//! [`Budget::check_rel`], passing the estimated *bytes* (4 per adjacency
//! entry) the operation has materialized so far — the same currency every
//! backend reports, so `RelMemory` means one thing regardless of
//! representation — and a runaway closure on a huge universe trips
//! instead of OOMing.

use crate::bitmat::ROW_POLL_STRIDE;
use crate::budget::{Budget, BudgetExceeded};

/// A sparse square boolean matrix over `0..n`: one sorted, deduplicated
/// `u32` column list per row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseRel {
    n: usize,
    rows: Vec<Vec<u32>>,
    /// Cached total of `rows[i].len()` — kept current by every mutator so
    /// [`entry_count`](Self::entry_count) is O(1). The budget polls inside
    /// `ROW_POLL_STRIDE` loops call it every stride; re-summing a
    /// million-row matrix there would turn each poll into a full scan.
    entries: usize,
}

/// Merges two sorted, deduplicated slices into their sorted union.
fn merge_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merges two sorted, deduplicated slices into their sorted intersection.
fn merge_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl SparseRel {
    /// The empty (all-zero) relation of dimension `n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (column indices are stored as
    /// `u32`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "SparseRel dimension exceeds u32 index space"
        );
        SparseRel {
            n,
            rows: vec![Vec::new(); n],
            entries: 0,
        }
    }

    /// The identity relation of dimension `n` (a diagonal fill).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = SparseRel::new(n);
        for (i, row) in m.rows.iter_mut().enumerate() {
            row.push(i as u32);
        }
        m.entries = n;
        m
    }

    /// The dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total adjacency entries allocated (one per pair). O(1): the count
    /// is cached and kept current by every mutator, so the budget polls
    /// that fire every [`ROW_POLL_STRIDE`] rows stay constant-time.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Whether bit `(r, c)` is set.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        self.rows[r].binary_search(&(c as u32)).is_ok()
    }

    /// Sets bit `(r, c)`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        let row = &mut self.rows[r];
        match row.binary_search(&(c as u32)) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(pos, c as u32);
                self.entries += 1;
                true
            }
        }
    }

    /// Row `r` as a sorted column-index slice.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u32] {
        assert!(r < self.n);
        &self.rows[r]
    }

    /// Clears row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn clear_row(&mut self, r: usize) {
        assert!(r < self.n);
        self.entries -= self.rows[r].len();
        self.rows[r].clear();
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.entry_count()
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.entries == 0
    }

    /// Sorted-merge union of `other` into `self`, row by row.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &SparseRel) {
        assert_eq!(self.n, other.n, "SparseRel dimension mismatch");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if b.is_empty() {
                continue;
            }
            self.entries -= a.len();
            if a.is_empty() {
                *a = b.clone();
            } else {
                *a = merge_union(a, b);
            }
            self.entries += a.len();
        }
    }

    /// Sorted-merge intersection of `other` into `self`, row by row.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn and_assign(&mut self, other: &SparseRel) {
        assert_eq!(self.n, other.n, "SparseRel dimension mismatch");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if a.is_empty() {
                continue;
            }
            self.entries -= a.len();
            if b.is_empty() {
                a.clear();
            } else {
                *a = merge_intersect(a, b);
            }
            self.entries += a.len();
        }
    }

    /// Ascending iterator over the set columns of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().map(|&c| c as usize)
    }

    /// Ascending lexicographic iterator over all set `(r, c)` pairs — the
    /// `BTreeSet<(usize, usize)>` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |&c| (r, c as usize)))
    }

    /// A copy resized to dimension `d ≥ n` (new rows are empty).
    ///
    /// # Panics
    /// Panics if `d < n` (shrinking would silently drop pairs).
    #[must_use]
    pub fn resized(&self, d: usize) -> SparseRel {
        assert!(d >= self.n, "SparseRel cannot shrink");
        let mut out = SparseRel::new(d);
        out.rows[..self.n].clone_from_slice(&self.rows);
        out.entries = self.entries;
        out
    }

    /// Relational composition (`self` applied first): output row `a` is
    /// the sort-merge union of `other`'s rows `b` over every entry `b` of
    /// `self`'s row `a`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn compose(&self, other: &SparseRel) -> SparseRel {
        match self.compose_governed(other, &Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`compose`](Self::compose), polling `budget` every
    /// [`ROW_POLL_STRIDE`] rows via [`Budget::check_rel`] with the
    /// estimated bytes (4 per entry) materialized so far.
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn compose_governed(
        &self,
        other: &SparseRel,
        budget: &Budget,
    ) -> Result<SparseRel, BudgetExceeded> {
        assert_eq!(self.n, other.n, "SparseRel dimension mismatch");
        let mut out = SparseRel::new(self.n);
        let mut buf: Vec<u32> = Vec::new();
        for (a, orow) in out.rows.iter_mut().enumerate() {
            if a % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(4 * out.entries) {
                    return Err(reason);
                }
            }
            buf.clear();
            for &b in &self.rows[a] {
                buf.extend_from_slice(&other.rows[b as usize]);
            }
            buf.sort_unstable();
            buf.dedup();
            out.entries += buf.len();
            *orow = buf.clone();
        }
        Ok(out)
    }

    /// The reflexive-transitive closure: row `r` of the result holds every
    /// node reachable from `r` (including `r` itself), computed by one
    /// semi-naive delta fixpoint per source row.
    #[must_use]
    pub fn closure_reflexive_transitive(&self) -> SparseRel {
        match self.closure_governed(&Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`closure_reflexive_transitive`](Self::closure_reflexive_transitive),
    /// polling `budget` every [`ROW_POLL_STRIDE`] source rows via
    /// [`Budget::check_rel`] with the estimated bytes (4 per entry)
    /// materialized so far.
    ///
    /// # Errors
    /// Returns the tripped axis; the partial closure is discarded.
    pub fn closure_governed(&self, budget: &Budget) -> Result<SparseRel, BudgetExceeded> {
        let n = self.n;
        let mut out = SparseRel::new(n);
        // Membership flag per node, reset after each source by walking
        // only the nodes that were reached.
        let mut in_closed = vec![false; n];
        for (src, seen) in out.rows.iter_mut().enumerate() {
            if src % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(4 * out.entries) {
                    return Err(reason);
                }
            }
            // Semi-naive delta iteration: `reach[delta..]` is exactly the
            // set of rows discovered by the previous round; only their
            // adjacency is scanned, and already-closed nodes are never
            // re-expanded.
            let mut reach: Vec<u32> = vec![src as u32];
            in_closed[src] = true;
            let mut delta = 0usize;
            while delta < reach.len() {
                let x = reach[delta] as usize;
                delta += 1;
                for &t in &self.rows[x] {
                    if !in_closed[t as usize] {
                        in_closed[t as usize] = true;
                        reach.push(t);
                    }
                }
            }
            for &t in &reach {
                in_closed[t as usize] = false;
            }
            reach.sort_unstable();
            out.entries += reach.len();
            *seen = reach;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> SparseRel {
        let mut m = SparseRel::new(n);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    #[test]
    fn set_get_iter_ascending() {
        let mut m = SparseRel::new(130);
        assert!(m.set(129, 1));
        assert!(m.set(0, 65));
        assert!(m.set(0, 2));
        assert!(!m.set(0, 2));
        assert!(m.get(0, 65) && !m.get(65, 0));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(0, 2), (0, 65), (129, 1)]
        );
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.entry_count(), 3);
    }

    #[test]
    fn identity_union_meet() {
        let id = SparseRel::identity(70);
        assert_eq!(id.count_ones(), 70);
        assert!(id.get(69, 69) && !id.get(69, 68));
        let mut a = from_pairs(70, &[(0, 1), (2, 3)]);
        let b = from_pairs(70, &[(0, 1), (4, 5)]);
        a.or_assign(&b);
        assert_eq!(a.count_ones(), 3);
        a.and_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn compose_gathers_rows() {
        let r = from_pairs(80, &[(0, 64), (1, 2)]);
        let s = from_pairs(80, &[(64, 3), (64, 79), (2, 0)]);
        let rs = r.compose(&s);
        assert_eq!(
            rs.iter().collect::<Vec<_>>(),
            vec![(0, 3), (0, 79), (1, 0)]
        );
        let id = SparseRel::identity(80);
        assert_eq!(r.compose(&id), r);
        assert_eq!(id.compose(&r), r);
    }

    #[test]
    fn closure_matches_dense_kernel() {
        let pairs = [(0, 1), (1, 2), (2, 0), (5, 299)];
        let sp = from_pairs(300, &pairs);
        let mut dn = crate::BitMatrix::new(300);
        for &(a, b) in &pairs {
            dn.set(a, b);
        }
        let cs = sp.closure_reflexive_transitive();
        let cd = dn.closure_reflexive_transitive();
        assert_eq!(cs.iter().collect::<Vec<_>>(), cd.iter().collect::<Vec<_>>());
    }

    #[test]
    fn governed_ops_trip_on_timing_and_memory_axes() {
        let m = from_pairs(64, &[(0, 1)]);
        let cancelled = {
            let tok = crate::budget::CancelToken::new();
            tok.cancel();
            Budget::unlimited().with_cancel(tok)
        };
        assert_eq!(
            m.compose_governed(&m, &cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(
            m.closure_governed(&cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        // A zero-entry memory cap trips before the first row of output.
        let capped = Budget::unlimited().with_max_rel_entries(0);
        assert_eq!(m.closure_governed(&capped), Err(BudgetExceeded::RelMemory));
        assert!(m.closure_governed(&Budget::unlimited()).is_ok());
    }

    #[test]
    fn capped_sparse_closure_trips_instead_of_materializing() {
        // A long chain: the closure holds ~n²/2 entries (~8.4 MB at 4
        // bytes each), far over the 10 kB cap.
        let n = 2048;
        let mut m = SparseRel::new(n);
        for i in 0..n - 1 {
            m.set(i, i + 1);
        }
        let capped = Budget::unlimited().with_max_rel_entries(10_000);
        assert_eq!(
            m.closure_governed(&capped),
            Err(BudgetExceeded::RelMemory)
        );
        // The same closure under an unlimited budget does materialize.
        let full = m.closure_reflexive_transitive();
        assert_eq!(full.entry_count(), n * (n + 1) / 2);
    }

    #[test]
    fn resize_preserves_pairs() {
        let m = from_pairs(3, &[(0, 2), (2, 1)]);
        let big = m.resized(200);
        assert_eq!(big.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
        assert_eq!(big.dim(), 200);
    }
}
