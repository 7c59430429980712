//! Sorted adjacency rows — the large-universe row encoding for binary
//! relations over finite universes.
//!
//! A [`SparseRel`] stores an `n × n` boolean matrix as one sorted,
//! deduplicated `u32` column list per row. Where the dense
//! [`BitMatrix`](crate::BitMatrix) spends `n · ⌈n/64⌉` words regardless of
//! fill (a million-state relation is ~125 GB), a sparse row spends one
//! entry (4 bytes) per *pair*, so the denotations the RPR/PDL semantics
//! actually build — functional updates, test diagonals, bounded-image
//! closures — stay proportional to their content.
//!
//! This module holds only the row encoding: union and meet are two-pointer
//! sorted merges. The matrix, its composition and its closure are the
//! shared [`RowRel`] algebra.

use crate::rows::{RowRel, RowSet};

/// A sparse square boolean matrix over `0..n`: one sorted, deduplicated
/// `u32` column list per row.
pub type SparseRel = RowRel<Vec<u32>>;

impl RowSet for Vec<u32> {
    type Values<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    fn values(&self) -> Self::Values<'_> {
        self.iter().copied()
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    /// 4 bytes per entry.
    fn bytes(&self) -> usize {
        4 * Vec::len(self)
    }

    fn contains(&self, c: u32) -> bool {
        self.binary_search(&c).is_ok()
    }

    fn insert(&mut self, c: u32) -> bool {
        match self.binary_search(&c) {
            Ok(_) => false,
            Err(pos) => {
                Vec::insert(self, pos, c);
                true
            }
        }
    }

    fn from_sorted(vals: &[u32]) -> Self {
        vals.to_vec()
    }

    fn from_sorted_vec(vals: Vec<u32>) -> Self {
        vals
    }

    /// Two-pointer merge into the sorted union.
    fn union(&self, other: &Self) -> Self {
        let (a, b) = (self, other);
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

    /// Two-pointer merge into the sorted intersection.
    fn intersect(&self, other: &Self) -> Self {
        let (a, b) = (self, other);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, BudgetExceeded};

    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> SparseRel {
        let mut m = SparseRel::new(n);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    fn closure(m: &SparseRel) -> SparseRel {
        m.closure_governed(&Budget::unlimited()).unwrap()
    }

    fn compose(a: &SparseRel, b: &SparseRel) -> SparseRel {
        a.compose_governed(b, &Budget::unlimited()).unwrap()
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
        assert_eq!(m.entry_count(), 3);
        assert_eq!(m.byte_size(), 12);
    }

    #[test]
    fn identity_union_meet() {
        let id = SparseRel::identity(70);
        assert_eq!(id.entry_count(), 70);
        assert!(id.get(69, 69) && !id.get(69, 68));
        let mut a = from_pairs(70, &[(0, 1), (2, 3)]);
        let b = from_pairs(70, &[(0, 1), (4, 5)]);
        a.or_assign(&b);
        assert_eq!(a.entry_count(), 3);
        a.and_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 1), (4, 5)]);
        assert_eq!(a.entry_count(), 2);
    }

    #[test]
    fn compose_gathers_rows() {
        let r = from_pairs(80, &[(0, 64), (1, 2)]);
        let s = from_pairs(80, &[(64, 3), (64, 79), (2, 0)]);
        assert_eq!(
            compose(&r, &s).iter().collect::<Vec<_>>(),
            vec![(0, 3), (0, 79), (1, 0)]
        );
        let id = SparseRel::identity(80);
        assert_eq!(compose(&r, &id), r);
        assert_eq!(compose(&id, &r), r);
    }

    #[test]
    fn closure_matches_dense_kernel() {
        let pairs = [(0, 1), (1, 2), (2, 0), (5, 299)];
        let sp = from_pairs(300, &pairs);
        let mut dn = crate::BitMatrix::new(300);
        for &(a, b) in &pairs {
            dn.set(a, b);
        }
        let cd = dn.closure_reflexive_transitive();
        assert_eq!(
            closure(&sp).iter().collect::<Vec<_>>(),
            cd.iter().collect::<Vec<_>>()
        );
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
        assert_eq!(m.closure_governed(&capped), Err(BudgetExceeded::RelMemory));
        // The same closure under an unlimited budget does materialize.
        assert_eq!(closure(&m).entry_count(), n * (n + 1) / 2);
    }

    #[test]
    fn resize_preserves_pairs() {
        let m = from_pairs(3, &[(0, 2), (2, 1)]);
        let big = m.resized(200);
        assert_eq!(big.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
        assert_eq!(big.dim(), 200);
    }
}
