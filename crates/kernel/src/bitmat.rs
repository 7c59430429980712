//! Dense square bit matrices — the word-parallel substrate for binary
//! relations over finite universes.
//!
//! A [`BitMatrix`] stores an `n × n` boolean matrix row-major in `u64`
//! blocks: `words_per_row = ⌈n / 64⌉`, bit `c` of row `r` at word
//! `r * words_per_row + c / 64`. All set-algebraic operations become word
//! operations (64 pairs per instruction): union is `OR`, intersection is
//! `AND`, relational composition an OR-gather of rows, and the
//! reflexive-transitive closure a per-source BFS whose frontier discovery
//! is `new = row & !seen` per word.
//!
//! # Iteration order
//!
//! [`BitMatrix::iter`] and [`BitMatrix::iter_row`] scan rows in ascending
//! order and bits within a row least-significant first, so `(r, c)` pairs
//! stream in exactly the ascending lexicographic order a
//! `BTreeSet<(usize, usize)>` would produce. Higher layers rely on this to
//! keep reports bit-identical with the set-based representation this
//! module replaced.
//!
//! # Budgets
//!
//! The `*_governed` variants poll a [`Budget`] every [`ROW_POLL_STRIDE`]
//! rows and abort with the tripped axis. They are meant to be polled on
//! the *timing* axis only (the deadline): callers enforce any
//! node cap at their own unit boundaries and hand the operation
//! [`Budget::without_node_cap`].

use crate::budget::{Budget, BudgetExceeded};

/// Rows processed between two budget polls inside a governed sweep: often
/// enough that a deadline is noticed quickly, rare enough that
/// `Instant::now()` stays invisible in profiles.
pub const ROW_POLL_STRIDE: usize = 64;

/// A dense square bit matrix over `0..n`, row-major in `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitMatrix {
    n: usize,
    wpr: usize,
    bits: Vec<u64>,
}

/// Ascending iterator over the set bits of one `u64` word.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl BitMatrix {
    /// The empty (all-zero) matrix of dimension `n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let wpr = n.div_ceil(64);
        BitMatrix {
            n,
            wpr,
            bits: vec![0u64; n * wpr],
        }
    }

    /// The identity matrix of dimension `n` (a diagonal fill).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::new(n);
        for i in 0..n {
            m.bits[i * m.wpr + (i >> 6)] |= 1u64 << (i & 63);
        }
        m
    }

    /// The dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Words per row (`⌈n / 64⌉`).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// Total allocated `u64` words (`n · words_per_row`). The dense
    /// backend reports `8 ×` this to [`Budget::check_rel`] — every
    /// backend accounts in estimated bytes.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.bits.len()
    }

    /// Whether bit `(r, c)` is set.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        self.bits[r * self.wpr + (c >> 6)] & (1u64 << (c & 63)) != 0
    }

    /// Sets bit `(r, c)`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        let w = &mut self.bits[r * self.wpr + (c >> 6)];
        let mask = 1u64 << (c & 63);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Row `r` as a word slice.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        assert!(r < self.n);
        &self.bits[r * self.wpr..(r + 1) * self.wpr]
    }

    /// Row `r` as a mutable word slice.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.n);
        &mut self.bits[r * self.wpr..(r + 1) * self.wpr]
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Word-wise `OR` of `other` into `self`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &BitMatrix) {
        assert_eq!(self.n, other.n, "BitMatrix dimension mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Word-wise `AND` of `other` into `self`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn and_assign(&mut self, other: &BitMatrix) {
        assert_eq!(self.n, other.n, "BitMatrix dimension mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Ascending iterator over the set columns of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(k, &w)| BitIter {
            word: w,
            base: k << 6,
        })
    }

    /// Ascending lexicographic iterator over all set `(r, c)` pairs — the
    /// `BTreeSet<(usize, usize)>` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |r| self.iter_row(r).map(move |c| (r, c)))
    }

    /// A copy resized to dimension `d ≥ n` (rows re-laid out; new rows and
    /// columns are zero).
    ///
    /// # Panics
    /// Panics if `d < n` (shrinking would silently drop pairs).
    #[must_use]
    pub fn resized(&self, d: usize) -> BitMatrix {
        assert!(d >= self.n, "BitMatrix cannot shrink");
        let mut out = BitMatrix::new(d);
        for r in 0..self.n {
            out.bits[r * out.wpr..r * out.wpr + self.wpr].copy_from_slice(self.row(r));
        }
        out
    }

    /// Relational composition (`self` applied first): output row `a` is the
    /// OR of `other`'s rows `b` over every set bit `b` of `self`'s row `a`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn compose(&self, other: &BitMatrix) -> BitMatrix {
        match self.compose_governed(other, &Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`compose`](Self::compose), polling `budget` every
    /// [`ROW_POLL_STRIDE`] rows. Intended for the timing axis (the
    /// deadline): pass [`Budget::without_node_cap`] and enforce node
    /// caps at unit boundaries in the caller.
    ///
    /// # Errors
    /// Returns the tripped axis; the partially composed matrix is
    /// discarded.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn compose_governed(
        &self,
        other: &BitMatrix,
        budget: &Budget,
    ) -> Result<BitMatrix, BudgetExceeded> {
        assert_eq!(self.n, other.n, "BitMatrix dimension mismatch");
        let wpr = self.wpr;
        // Dense output cost is fixed at allocation time: guard the
        // relation-memory axis with the `n · wpr` words' byte size before
        // committing them.
        if let Some(reason) = budget.check_rel(self.n * wpr * 8) {
            return Err(reason);
        }
        let mut out = BitMatrix::new(self.n);
        if self.n == 0 {
            return Ok(out);
        }
        for (a, orow) in out.bits.chunks_mut(wpr).enumerate() {
            if a % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check(0) {
                    return Err(reason);
                }
            }
            for (k, &w) in self.row(a).iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let b = (k << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for (o, &src) in orow.iter_mut().zip(other.row(b)) {
                        *o |= src;
                    }
                }
            }
        }
        Ok(out)
    }

    /// The reflexive-transitive closure: row `r` of the result holds every
    /// node reachable from `r` (including `r` itself), computed by one
    /// word-parallel BFS per source row.
    #[must_use]
    pub fn closure_reflexive_transitive(&self) -> BitMatrix {
        match self.closure_governed(&Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`closure_reflexive_transitive`](Self::closure_reflexive_transitive),
    /// polling `budget` every [`ROW_POLL_STRIDE`] source rows (timing axes
    /// only — see [`compose_governed`](Self::compose_governed)).
    ///
    /// # Errors
    /// Returns the tripped axis; the partial closure is discarded.
    pub fn closure_governed(&self, budget: &Budget) -> Result<BitMatrix, BudgetExceeded> {
        let wpr = self.wpr;
        // Same allocation-time relation-memory guard as `compose_governed`.
        if let Some(reason) = budget.check_rel(self.n * wpr * 8) {
            return Err(reason);
        }
        let mut out = BitMatrix::new(self.n);
        if self.n == 0 {
            return Ok(out);
        }
        let mut stack: Vec<usize> = Vec::new();
        for (src, seen) in out.bits.chunks_mut(wpr).enumerate() {
            if src % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check(0) {
                    return Err(reason);
                }
            }
            seen[src >> 6] |= 1u64 << (src & 63);
            stack.clear();
            stack.push(src);
            while let Some(x) = stack.pop() {
                for (k, &w) in self.row(x).iter().enumerate() {
                    let mut new = w & !seen[k];
                    if new != 0 {
                        seen[k] |= new;
                        while new != 0 {
                            stack.push((k << 6) + new.trailing_zeros() as usize);
                            new &= new - 1;
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    #[test]
    fn set_get_iter_ascending() {
        let mut m = BitMatrix::new(130);
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
    }

    #[test]
    fn identity_and_or_and() {
        let id = BitMatrix::identity(70);
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
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 3), (0, 79), (1, 0)]);
        let id = BitMatrix::identity(80);
        assert_eq!(r.compose(&id), r);
        assert_eq!(id.compose(&r), r);
    }

    #[test]
    fn closure_reaches_and_reflects() {
        let m = from_pairs(300, &[(0, 1), (1, 2), (2, 0), (5, 299)]);
        let c = m.closure_reflexive_transitive();
        for i in [0, 1, 2] {
            for j in [0, 1, 2] {
                assert!(c.get(i, j));
            }
        }
        assert!(c.get(5, 5) && c.get(5, 299) && c.get(299, 299));
        assert!(!c.get(299, 5) && !c.get(3, 2));
    }

    #[test]
    fn governed_ops_trip_on_timing_axes() {
        let m = from_pairs(64, &[(0, 1)]);
        let expired = Budget::unlimited().with_deadline_ms(0);
        assert_eq!(
            m.compose_governed(&m, &expired),
            Err(BudgetExceeded::Deadline)
        );
        assert_eq!(m.closure_governed(&expired), Err(BudgetExceeded::Deadline));
        assert!(m.compose_governed(&m, &Budget::unlimited()).is_ok());
    }

    #[test]
    fn governed_ops_guard_relation_memory_at_entry() {
        let m = from_pairs(64, &[(0, 1)]);
        // 64 × 1 = 64 output words = 512 bytes; a 32-byte cap trips before
        // allocation, and survives node-cap stripping (separate axis).
        let capped = Budget::unlimited().with_max_rel_entries(32);
        assert_eq!(
            m.compose_governed(&m, &capped),
            Err(BudgetExceeded::RelMemory)
        );
        assert_eq!(
            m.closure_governed(&capped.without_node_cap()),
            Err(BudgetExceeded::RelMemory)
        );
        let roomy = Budget::unlimited().with_max_rel_entries(10_000);
        assert!(m.compose_governed(&m, &roomy).is_ok());
    }

    #[test]
    fn resize_preserves_pairs() {
        let m = from_pairs(3, &[(0, 2), (2, 1)]);
        let big = m.resized(200);
        assert_eq!(big.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
        assert_eq!(big.dim(), 200);
    }
}
