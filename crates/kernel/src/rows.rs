//! One row matrix for both row backends: an `n × n` boolean matrix held as
//! one row set per source, generic over the row encoding.
//!
//! [`SparseRel`](crate::SparseRel) is `RowRel<Vec<u32>>` (one sorted `u32`
//! column list per row) and [`CompressedRel`](crate::CompressedRel) is
//! `RowRel<CompressedRow>` (2¹⁶-chunked containers); each encoding only
//! says how one row stores, merges and sizes its columns ([`RowSet`]). The
//! relation algebra is written here once: union and meet row by row,
//! composition as a per-row gather of the other relation's rows followed
//! by a sort-merge dedup, and the reflexive-transitive closure as a
//! per-source *semi-naive* fixpoint — a delta worklist holds exactly the
//! nodes the previous round discovered, and only their rows are scanned
//! (nodes already in the closed set are never re-expanded).
//!
//! # Iteration order
//!
//! Every row set yields its columns ascending, so [`RowRel::iter`] streams
//! pairs in exactly the ascending lexicographic `(r, c)` order a
//! `BTreeSet<(usize, usize)>` would produce — the contract the dense
//! backend upholds too.
//!
//! # Budgets
//!
//! The `*_governed` operations poll a [`Budget`] every [`ROW_POLL_STRIDE`]
//! rows through [`Budget::check_rel`], passing the bytes the rows built so
//! far report ([`RowSet::bytes`]) — the currency every backend reports, so
//! `RelMemory` means one thing whatever the encoding, and a runaway
//! closure trips instead of exhausting memory.
//!
//! [`CompressedRow`]: crate::CompressedRow

use crate::bitmat::ROW_POLL_STRIDE;
use crate::budget::{Budget, BudgetExceeded};

/// A row encoding: a set of `u32` columns that yields them ascending and
/// reports its size in the bytes the relation-memory budget accounts.
pub trait RowSet: Clone + Default {
    /// Ascending iterator over a row's columns.
    type Values<'a>: Iterator<Item = u32>
    where
        Self: 'a;

    /// The row's columns, ascending.
    fn values(&self) -> Self::Values<'_>;

    /// Number of columns.
    fn len(&self) -> usize;

    /// Whether the row holds no column.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes of the row, in [`Budget::check_rel`] units.
    fn bytes(&self) -> usize;

    /// Whether column `c` is present.
    fn contains(&self, c: u32) -> bool;

    /// Inserts column `c`; returns whether it was previously absent.
    fn insert(&mut self, c: u32) -> bool;

    /// The row holding exactly `vals` (sorted and deduplicated).
    fn from_sorted(vals: &[u32]) -> Self;

    /// As [`from_sorted`](Self::from_sorted), taking the buffer (a row
    /// that is itself a sorted `u32` list keeps it as is).
    fn from_sorted_vec(vals: Vec<u32>) -> Self {
        Self::from_sorted(&vals)
    }

    /// The union of two rows.
    #[must_use]
    fn union(&self, other: &Self) -> Self;

    /// The intersection of two rows.
    #[must_use]
    fn intersect(&self, other: &Self) -> Self;
}

/// A square boolean matrix over `0..n`: one [`RowSet`] per source row and
/// a cached total entry count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowRel<R> {
    n: usize,
    rows: Vec<R>,
    /// Cached total of the rows' lengths, kept current by every mutator,
    /// so [`entry_count`](Self::entry_count) is O(1).
    entries: usize,
}

impl<R: RowSet> RowRel<R> {
    /// The empty (all-zero) relation of dimension `n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (columns are stored as `u32`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "row matrix dimension exceeds u32 index space"
        );
        RowRel {
            n,
            rows: vec![R::default(); n],
            entries: 0,
        }
    }

    /// The identity relation of dimension `n` (a diagonal fill).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = RowRel::new(n);
        for (i, row) in m.rows.iter_mut().enumerate() {
            *row = R::from_sorted(&[i as u32]);
        }
        m.entries = n;
        m
    }

    /// The dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of set pairs, O(1).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Estimated bytes of all rows, in [`Budget::check_rel`] units.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.rows.iter().map(R::bytes).sum()
    }

    /// Row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &R {
        &self.rows[r]
    }

    /// Whether bit `(r, c)` is set.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        self.rows[r].contains(c as u32)
    }

    /// Sets bit `(r, c)`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        let fresh = self.rows[r].insert(c as u32);
        self.entries += usize::from(fresh);
        fresh
    }

    /// Clears row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn clear_row(&mut self, r: usize) {
        self.entries -= self.rows[r].len();
        self.rows[r] = R::default();
    }

    /// Union of `other` into `self`, row by row.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.n, other.n, "row matrix dimension mismatch");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if b.is_empty() {
                continue;
            }
            self.entries -= a.len();
            *a = if a.is_empty() { b.clone() } else { a.union(b) };
            self.entries += a.len();
        }
    }

    /// Intersection of `other` into `self`, row by row.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.n, other.n, "row matrix dimension mismatch");
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if a.is_empty() {
                continue;
            }
            self.entries -= a.len();
            *a = if b.is_empty() {
                R::default()
            } else {
                a.intersect(b)
            };
            self.entries += a.len();
        }
    }

    /// Ascending lexicographic iterator over all set `(r, c)` pairs — the
    /// `BTreeSet<(usize, usize)>` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.values().map(move |c| (r, c as usize)))
    }

    /// A copy resized to dimension `d ≥ n` (new rows are empty).
    ///
    /// # Panics
    /// Panics if `d < n` (shrinking would silently drop pairs).
    #[must_use]
    pub fn resized(&self, d: usize) -> Self {
        assert!(d >= self.n, "row matrix cannot shrink");
        let mut out = RowRel::new(d);
        out.rows[..self.n].clone_from_slice(&self.rows);
        out.entries = self.entries;
        out
    }

    /// Relational composition (`self` applied first): output row `a` is
    /// the sorted, deduplicated gather of `other`'s rows `b` over every
    /// column `b` of `self`'s row `a`. Polls `budget` every
    /// [`ROW_POLL_STRIDE`] rows via [`Budget::check_rel`] with the bytes
    /// of the rows built so far.
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn compose_governed(&self, other: &Self, budget: &Budget) -> Result<Self, BudgetExceeded> {
        assert_eq!(self.n, other.n, "row matrix dimension mismatch");
        let mut out = RowRel::new(self.n);
        let mut bytes = 0usize;
        let mut buf: Vec<u32> = Vec::new();
        for (a, orow) in out.rows.iter_mut().enumerate() {
            if a % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(bytes) {
                    return Err(reason);
                }
            }
            buf.clear();
            for b in self.rows[a].values() {
                buf.extend(other.rows[b as usize].values());
            }
            buf.sort_unstable();
            buf.dedup();
            *orow = R::from_sorted(&buf);
            bytes += orow.bytes();
            out.entries += buf.len();
        }
        Ok(out)
    }

    /// The reflexive-transitive closure: row `r` of the result holds every
    /// node reachable from `r` (including `r` itself), computed by one
    /// semi-naive delta fixpoint per source row. Polls `budget` every
    /// [`ROW_POLL_STRIDE`] source rows via [`Budget::check_rel`] with the
    /// bytes of the rows built so far.
    ///
    /// # Errors
    /// Returns the tripped axis; the partial closure is discarded.
    // Out of line: inlined into `Rel`'s dispatch, the two instantiations
    // made the sparse closure 3–5% slower against dense at dim 1024 in
    // the crossover bench, enough to flip its routing gate.
    #[inline(never)]
    pub fn closure_governed(&self, budget: &Budget) -> Result<Self, BudgetExceeded> {
        let mut out = RowRel::new(self.n);
        let mut bytes = 0usize;
        // Membership flag per node, reset after each source by walking
        // only the nodes that were reached.
        let mut in_closed = vec![false; self.n];
        for (src, orow) in out.rows.iter_mut().enumerate() {
            if src % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(bytes) {
                    return Err(reason);
                }
            }
            // Semi-naive delta iteration: `reach[delta..]` is exactly the
            // set of nodes discovered by the previous round; only their
            // rows are scanned.
            let mut reach: Vec<u32> = vec![src as u32];
            in_closed[src] = true;
            let mut delta = 0usize;
            while delta < reach.len() {
                let x = reach[delta] as usize;
                delta += 1;
                for t in self.rows[x].values() {
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
            *orow = R::from_sorted_vec(reach);
            bytes += orow.bytes();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompressedRow;

    fn governed_ops_trip<R: RowSet + PartialEq + std::fmt::Debug>() {
        let mut m = RowRel::<R>::new(64);
        m.set(0, 1);
        let expired = Budget::unlimited().with_deadline_ms(0);
        assert_eq!(
            m.compose_governed(&m, &expired),
            Err(BudgetExceeded::Deadline)
        );
        assert_eq!(m.closure_governed(&expired), Err(BudgetExceeded::Deadline));
        // A zero-byte memory cap trips before the first row of output.
        let capped = Budget::unlimited().with_max_rel_entries(0);
        assert_eq!(m.closure_governed(&capped), Err(BudgetExceeded::RelMemory));
        assert!(m.closure_governed(&Budget::unlimited()).is_ok());
    }

    #[test]
    fn governed_ops_trip_on_timing_and_memory_axes() {
        governed_ops_trip::<Vec<u32>>();
        governed_ops_trip::<CompressedRow>();
    }
}
