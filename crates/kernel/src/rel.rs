//! The multi-backend relation kernel: one [`Rel`] value is a dense
//! [`BitMatrix`], a sparse [`SparseRel`], or a compressed
//! [`CompressedRel`], chosen per relation by a density/dimension
//! crossover policy.
//!
//! Small universes live on the dense backend, where union/meet/compose
//! are word operations (64 pairs per instruction); past the crossover
//! dimension the same relation would cost `n · ⌈n/64⌉` words *per
//! relation* regardless of content (a million-state relation is ~125 GB),
//! so large universes live on the sparse backend, which spends one `u32`
//! entry per pair. From one full 2¹⁶ chunk up, relations move to the
//! chunk-container backend, whose run encodings collapse the contiguous
//! reachable blocks that million-state closures produce to a few bytes per
//! row. [`rel_backend_for`] decides by dimension alone: dense up to
//! [`REL_DENSE_MAX_DIM`], compressed from `REL_COMPRESSED_MIN_DIM` (2¹⁶),
//! sparse between. Binary operations between mixed backends coerce both
//! operands to the policy backend for the result dimension, so the choice
//! never leaks into results.
//!
//! The sparse and compressed backends are one row matrix with two row
//! encodings: their union, meet, composition and closure are written
//! once, generic over the row.
//!
//! All three backends uphold the same *iteration-order contract*: pairs
//! stream in ascending lexicographic `(a, b)` order, exactly the order a
//! `BTreeSet<(usize, usize)>` would produce — every report built on top
//! is bit-identical whichever backend computed it.
//!
//! Tests and benches that need a specific backend hold a
//! [`force_rel_backend`] guard, which also serializes them against each
//! other (the override is process-global).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::bitmat::BitMatrix;
use crate::budget::{Budget, BudgetExceeded};
use crate::container::{CompressedRel, RowValues};
use crate::rows::RowSet;
use crate::sparse::SparseRel;

/// Crossover dimension for the `auto` policy: relations of dimension up
/// to this stay dense (the word-parallel kernels win on small universes),
/// larger ones go sparse (content-proportional memory; see
/// `BENCH_rel.json` for the measured crossover).
pub const REL_DENSE_MAX_DIM: usize = 512;

/// Dimension from which the `auto` policy prefers the compressed
/// chunk-container backend over plain sorted adjacency: one full 2¹⁶
/// chunk. Below it every row fits one chunk and the sparse backend's flat
/// `u32` rows have less per-row overhead; at and above it closures of
/// block-structured transition relations compress entries into runs (see
/// `BENCH_rel.json` for the measured capstone).
const REL_COMPRESSED_MIN_DIM: usize = 1 << 16;

/// Which storage backend a [`Rel`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelBackend {
    /// Dense row-major bit matrix ([`BitMatrix`]).
    Dense,
    /// Sorted adjacency lists ([`SparseRel`]).
    Sparse,
    /// Chunk-container rows ([`CompressedRel`]).
    Compressed,
}

/// A backend override for tests and benches: pin every relation to one
/// backend, or run the `auto` policy with a custom crossover dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelChoice {
    /// Every relation dense, at any dimension.
    Dense,
    /// Every relation sparse, at any dimension.
    Sparse,
    /// Every relation compressed, at any dimension.
    Compressed,
    /// The automatic policy with the given dense crossover dimension
    /// (dense at dimensions `<=` the value, then sparse, then compressed
    /// at the compressed floor and above).
    AutoAt(usize),
}

/// Process-global backend override: 0 = none, 1 = dense, 2 = sparse,
/// 3 = compressed, `k >= 4` = auto with dense crossover dimension `k - 4`.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes holders of [`force_rel_backend`] guards — the override is
/// process-global, so concurrent forced-backend tests must exclude each
/// other.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard for a forced backend policy; restores the dimension rule on
/// drop. Holding it excludes every other forced-backend section
/// in the process.
pub struct RelBackendGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for RelBackendGuard {
    fn drop(&mut self) {
        OVERRIDE.store(0, Ordering::SeqCst);
    }
}

/// Forces the backend policy for the lifetime of the returned guard.
/// Intended for tests and benches that must exercise a specific backend
/// (or a specific crossover) whatever the dimension rule would pick.
#[must_use]
pub fn force_rel_backend(choice: RelChoice) -> RelBackendGuard {
    let lock = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let code = match choice {
        RelChoice::Dense => 1,
        RelChoice::Sparse => 2,
        RelChoice::Compressed => 3,
        RelChoice::AutoAt(dim) => dim.saturating_add(4),
    };
    OVERRIDE.store(code, Ordering::SeqCst);
    RelBackendGuard { _lock: lock }
}

/// Process-global fault-injection flag for oracle validation (see
/// [`force_rel_fault`]).
static FAULT: AtomicUsize = AtomicUsize::new(0);

/// Serializes holders of [`force_rel_fault`] guards — the flag is
/// process-global, like the backend override.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard for an injected relation-kernel fault; restores correct
/// behaviour on drop. Holding it excludes every other fault section in the
/// process.
pub struct RelFaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for RelFaultGuard {
    fn drop(&mut self) {
        FAULT.store(0, Ordering::SeqCst);
    }
}

/// Injects a deliberate, deterministic fault into the **sparse** backend's
/// `union` for the lifetime of the returned guard: the lexicographically
/// largest pair of each union result is silently dropped, mimicking an
/// off-by-one merge bug.
///
/// This exists purely to prove that the differential fuzzing oracle has
/// teeth — a harness that compares backends pairwise must detect the
/// divergence this fault introduces, or the harness itself is broken.
/// Never enable it outside a test.
#[must_use]
pub fn force_rel_fault() -> RelFaultGuard {
    let lock = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    FAULT.store(1, Ordering::SeqCst);
    RelFaultGuard { _lock: lock }
}

/// Whether a [`force_rel_fault`] guard is live.
fn rel_fault_active() -> bool {
    FAULT.load(Ordering::SeqCst) != 0
}

/// The `auto` tiering: dense up to the dense crossover, compressed at
/// the compressed floor and above, sparse between. (A dense crossover
/// at or above the compressed floor gives sparse no band, which is a
/// legitimate two-tier policy.)
fn auto_backend(dim: usize, dense_max: usize) -> RelBackend {
    if dim <= dense_max {
        RelBackend::Dense
    } else if dim >= REL_COMPRESSED_MIN_DIM {
        RelBackend::Compressed
    } else {
        RelBackend::Sparse
    }
}

/// The backend the current policy assigns to a relation of the given
/// dimension: a [`force_rel_backend`] override wins, else the automatic
/// tiering at [`REL_DENSE_MAX_DIM`] and the compressed floor (2¹⁶).
#[must_use]
pub fn rel_backend_for(dim: usize) -> RelBackend {
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => auto_backend(dim, REL_DENSE_MAX_DIM),
        1 => RelBackend::Dense,
        2 => RelBackend::Sparse,
        3 => RelBackend::Compressed,
        k => auto_backend(dim, k - 4),
    }
}

/// A binary relation on one of the three storage backends. All operations
/// are backend-transparent: results depend only on the pair set (and the
/// documented dimension semantics), never on which backend held it.
#[derive(Debug, Clone)]
pub enum Rel {
    /// Dense bit-matrix storage.
    Dense(BitMatrix),
    /// Sparse sorted-adjacency storage.
    Sparse(SparseRel),
    /// Compressed chunk-container storage.
    Compressed(CompressedRel),
}

impl Default for Rel {
    fn default() -> Self {
        Rel::Dense(BitMatrix::default())
    }
}

/// Ascending iterator over the set columns of one dense row.
pub struct DenseRowIter<'a> {
    row: &'a [u64],
    k: usize,
    word: u64,
}

impl Iterator for DenseRowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let tz = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(((self.k - 1) << 6) + tz);
            }
            if self.k == self.row.len() {
                return None;
            }
            self.word = self.row[self.k];
            self.k += 1;
        }
    }
}

/// Ascending iterator over the set columns of one [`Rel`] row, on any
/// backend.
pub enum RowIter<'a> {
    /// A dense row scan.
    Dense(DenseRowIter<'a>),
    /// A sparse adjacency-list scan.
    Sparse(std::slice::Iter<'a, u32>),
    /// A compressed chunk-container scan.
    Compressed(RowValues<'a>),
    /// A row beyond the allocated dimension (always empty).
    Empty,
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            RowIter::Dense(it) => it.next(),
            RowIter::Sparse(it) => it.next().map(|&c| c as usize),
            RowIter::Compressed(it) => it.next().map(|c| c as usize),
            RowIter::Empty => None,
        }
    }
}

impl Rel {
    /// The empty relation of dimension `n` on the policy backend.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Rel::with_backend(n, rel_backend_for(n))
    }

    /// The empty relation of dimension `n` on an explicit backend.
    #[must_use]
    pub fn with_backend(n: usize, backend: RelBackend) -> Self {
        match backend {
            RelBackend::Dense => Rel::Dense(BitMatrix::new(n)),
            RelBackend::Sparse => Rel::Sparse(SparseRel::new(n)),
            RelBackend::Compressed => Rel::Compressed(CompressedRel::new(n)),
        }
    }

    /// The identity relation of dimension `n` on the policy backend.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        match rel_backend_for(n) {
            RelBackend::Dense => Rel::Dense(BitMatrix::identity(n)),
            RelBackend::Sparse => Rel::Sparse(SparseRel::identity(n)),
            RelBackend::Compressed => Rel::Compressed(CompressedRel::identity(n)),
        }
    }

    /// Which backend holds this relation.
    #[must_use]
    pub fn backend(&self) -> RelBackend {
        match self {
            Rel::Dense(_) => RelBackend::Dense,
            Rel::Sparse(_) => RelBackend::Sparse,
            Rel::Compressed(_) => RelBackend::Compressed,
        }
    }

    /// The allocated dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Rel::Dense(m) => m.dim(),
            Rel::Sparse(m) => m.dim(),
            Rel::Compressed(m) => m.dim(),
        }
    }

    /// Estimated bytes of backend storage currently allocated: 8 per
    /// dense `u64` word, 4 per sparse adjacency entry, and the
    /// container-formula estimate for the compressed backend — the same
    /// byte units [`Budget::check_rel`] accounts, comparable across
    /// backends.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        match self {
            Rel::Dense(m) => m.word_count() * 8,
            Rel::Sparse(m) => m.byte_size(),
            Rel::Compressed(m) => m.byte_size(),
        }
    }

    /// Whether bit `(r, c)` is set.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        match self {
            Rel::Dense(m) => m.get(r, c),
            Rel::Sparse(m) => m.get(r, c),
            Rel::Compressed(m) => m.get(r, c),
        }
    }

    /// Sets bit `(r, c)`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        match self {
            Rel::Dense(m) => m.set(r, c),
            Rel::Sparse(m) => m.set(r, c),
            Rel::Compressed(m) => m.set(r, c),
        }
    }

    /// Clears row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn clear_row(&mut self, r: usize) {
        match self {
            Rel::Dense(m) => m.row_mut(r).fill(0),
            Rel::Sparse(m) => m.clear_row(r),
            Rel::Compressed(m) => m.clear_row(r),
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        match self {
            Rel::Dense(m) => m.count_ones(),
            Rel::Sparse(m) => m.entry_count(),
            Rel::Compressed(m) => m.entry_count(),
        }
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        match self {
            Rel::Dense(m) => m.is_zero(),
            Rel::Sparse(m) => m.entry_count() == 0,
            Rel::Compressed(m) => m.entry_count() == 0,
        }
    }

    /// Ascending iterator over the set columns of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn iter_row(&self, r: usize) -> RowIter<'_> {
        assert!(r < self.dim());
        self.row_iter_or_empty(r)
    }

    /// As [`iter_row`](Self::iter_row), but rows beyond the dimension are
    /// empty instead of panicking.
    fn row_iter_or_empty(&self, r: usize) -> RowIter<'_> {
        if r >= self.dim() {
            return RowIter::Empty;
        }
        match self {
            Rel::Dense(m) => RowIter::Dense(DenseRowIter {
                row: m.row(r),
                k: 0,
                word: 0,
            }),
            Rel::Sparse(m) => RowIter::Sparse(m.row(r).iter()),
            Rel::Compressed(m) => RowIter::Compressed(m.row(r).values()),
        }
    }

    /// Ascending lexicographic iterator over all set `(r, c)` pairs — the
    /// `BTreeSet<(usize, usize)>` order, on any backend.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.dim()).flat_map(move |r| self.iter_row(r).map(move |c| (r, c)))
    }

    /// A copy resized to dimension `d ≥ dim()`, on the backend the policy
    /// assigns to `d` — growth across the crossover migrates a dense
    /// relation to sparse storage (and a forced policy keeps it put).
    ///
    /// # Panics
    /// Panics if `d < dim()`.
    #[must_use]
    pub fn resized(&self, d: usize) -> Rel {
        self.coerced(d, rel_backend_for(d))
    }

    /// A copy at dimension `d ≥ dim()` on an explicit backend.
    ///
    /// # Panics
    /// Panics if `d < dim()`.
    #[must_use]
    pub fn coerced(&self, d: usize, backend: RelBackend) -> Rel {
        assert!(d >= self.dim(), "Rel cannot shrink");
        if self.backend() == backend {
            // Same backend: clone or grow in place.
            return match self {
                Rel::Dense(m) => Rel::Dense(if m.dim() == d {
                    m.clone()
                } else {
                    m.resized(d)
                }),
                Rel::Sparse(m) => Rel::Sparse(if m.dim() == d {
                    m.clone()
                } else {
                    m.resized(d)
                }),
                Rel::Compressed(m) => Rel::Compressed(if m.dim() == d {
                    m.clone()
                } else {
                    m.resized(d)
                }),
            };
        }
        // Cross-backend conversion replays the pair stream; both sides
        // uphold the ascending iteration-order contract, so the sorted
        // inserts stay cheap (appends at the row tail).
        let mut out = Rel::with_backend(d, backend);
        for (r, c) in self.iter() {
            out.set(r, c);
        }
        out
    }

    /// Union at the joined dimension, on the policy backend for it.
    #[must_use]
    pub fn union(&self, other: &Rel) -> Rel {
        let d = self.dim().max(other.dim());
        let backend = rel_backend_for(d);
        let mut out = self.coerced(d, backend);
        let rhs = other.coerced(d, backend);
        match (&mut out, &rhs) {
            (Rel::Dense(a), Rel::Dense(b)) => a.or_assign(b),
            (Rel::Sparse(a), Rel::Sparse(b)) => a.or_assign(b),
            (Rel::Compressed(a), Rel::Compressed(b)) => a.or_assign(b),
            _ => unreachable!("operands coerced to one backend"),
        }
        if rel_fault_active() && matches!(out, Rel::Sparse(_)) {
            // Injected oracle-validation fault: drop the largest pair.
            if let Some(victim) = out.iter().last() {
                let mut broken = Rel::with_backend(d, backend);
                for (r, c) in out.iter() {
                    if (r, c) != victim {
                        broken.set(r, c);
                    }
                }
                return broken;
            }
        }
        out
    }

    /// Intersection at the joined dimension, on the policy backend for it.
    #[must_use]
    pub fn meet(&self, other: &Rel) -> Rel {
        let d = self.dim().max(other.dim());
        let backend = rel_backend_for(d);
        let mut out = self.coerced(d, backend);
        let rhs = other.coerced(d, backend);
        match (&mut out, &rhs) {
            (Rel::Dense(a), Rel::Dense(b)) => a.and_assign(b),
            (Rel::Sparse(a), Rel::Sparse(b)) => a.and_assign(b),
            (Rel::Compressed(a), Rel::Compressed(b)) => a.and_assign(b),
            _ => unreachable!("operands coerced to one backend"),
        }
        out
    }

    /// Relational composition (`self` applied first) at the joined
    /// dimension, on the policy backend for it; `budget` is polled at
    /// row-stride boundaries (timing axes plus the relation-memory axis).
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    pub fn compose_governed(&self, other: &Rel, budget: &Budget) -> Result<Rel, BudgetExceeded> {
        let d = self.dim().max(other.dim());
        let backend = rel_backend_for(d);
        let lhs = self.coerced(d, backend);
        let rhs = other.coerced(d, backend);
        match (&lhs, &rhs) {
            (Rel::Dense(a), Rel::Dense(b)) => Ok(Rel::Dense(a.compose_governed(b, budget)?)),
            (Rel::Sparse(a), Rel::Sparse(b)) => Ok(Rel::Sparse(a.compose_governed(b, budget)?)),
            (Rel::Compressed(a), Rel::Compressed(b)) => {
                Ok(Rel::Compressed(a.compose_governed(b, budget)?))
            }
            _ => unreachable!("operands coerced to one backend"),
        }
    }

    /// The reflexive-transitive closure on this relation's own backend and
    /// dimension, `budget`-governed as in
    /// [`compose_governed`](Self::compose_governed).
    ///
    /// # Errors
    /// Returns the tripped axis; the partial closure is discarded.
    pub fn closure_governed(&self, budget: &Budget) -> Result<Rel, BudgetExceeded> {
        match self {
            Rel::Dense(m) => Ok(Rel::Dense(m.closure_governed(budget)?)),
            Rel::Sparse(m) => Ok(Rel::Sparse(m.closure_governed(budget)?)),
            Rel::Compressed(m) => Ok(Rel::Compressed(m.closure_governed(budget)?)),
        }
    }

    /// The reflexive-transitive closure under an unlimited budget.
    #[must_use]
    pub fn closure_reflexive_transitive(&self) -> Rel {
        match self.closure_governed(&Budget::unlimited()) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// Whether the relation is a partial function (every row holds at most
    /// one entry).
    #[must_use]
    pub fn is_functional(&self) -> bool {
        match self {
            Rel::Dense(m) => {
                (0..m.dim()).all(|r| m.row(r).iter().map(|w| w.count_ones()).sum::<u32>() <= 1)
            }
            Rel::Sparse(m) => (0..m.dim()).all(|r| m.row(r).len() <= 1),
            Rel::Compressed(m) => (0..m.dim()).all(|r| m.row(r).len() <= 1),
        }
    }

    /// Whether the relation is total on `0..n` (every source `< n` has at
    /// least one target).
    #[must_use]
    pub fn is_total(&self, n: usize) -> bool {
        match self {
            Rel::Dense(m) => (0..n).all(|a| a < m.dim() && m.row(a).iter().any(|&w| w != 0)),
            Rel::Sparse(m) => (0..n).all(|a| a < m.dim() && !m.row(a).is_empty()),
            Rel::Compressed(m) => (0..n).all(|a| a < m.dim() && !m.row(a).is_empty()),
        }
    }

    /// One `[p]`-modality sweep: `out[i]` is true iff every target of `i`
    /// lies in `inner` (vacuously true for target-free rows); targets
    /// `≥ inner.len()` count as unsatisfied. Word-parallel on the dense
    /// backend, an adjacency/container scan on the other two.
    #[must_use]
    pub fn box_states(&self, inner: &[bool]) -> Vec<bool> {
        match self {
            Rel::Dense(m) => {
                let mask = dense_inner_mask(m, inner);
                (0..inner.len())
                    .map(|i| {
                        if i >= m.dim() {
                            return true;
                        }
                        m.row(i).iter().zip(&mask).all(|(&r, &msk)| r & !msk == 0)
                    })
                    .collect()
            }
            Rel::Sparse(_) | Rel::Compressed(_) => (0..inner.len())
                .map(|i| {
                    self.row_iter_or_empty(i)
                        .all(|j| j < inner.len() && inner[j])
                })
                .collect(),
        }
    }

    /// One `⟨p⟩`-modality sweep: `out[i]` is true iff some target of `i`
    /// lies in `inner`.
    #[must_use]
    pub fn diamond_states(&self, inner: &[bool]) -> Vec<bool> {
        match self {
            Rel::Dense(m) => {
                let mask = dense_inner_mask(m, inner);
                (0..inner.len())
                    .map(|i| {
                        if i >= m.dim() {
                            return false;
                        }
                        m.row(i).iter().zip(&mask).any(|(&r, &msk)| r & msk != 0)
                    })
                    .collect()
            }
            Rel::Sparse(_) | Rel::Compressed(_) => (0..inner.len())
                .map(|i| {
                    self.row_iter_or_empty(i)
                        .any(|j| j < inner.len() && inner[j])
                })
                .collect(),
        }
    }

    /// Pair-set equality across backends and allocated dimensions.
    #[must_use]
    pub fn set_eq(&self, other: &Rel) -> bool {
        if let (Rel::Dense(a), Rel::Dense(b)) = (self, other) {
            // Word-parallel fast path: compare the shared row prefix, then
            // require every tail word and every extra row to be zero.
            let (small, big) = if a.dim() <= b.dim() { (a, b) } else { (b, a) };
            let ws = small.words_per_row();
            let ns = small.dim();
            for r in 0..ns {
                let rb = big.row(r);
                if small.row(r) != &rb[..ws] || rb[ws..].iter().any(|&w| w != 0) {
                    return false;
                }
            }
            return (ns..big.dim()).all(|r| big.row(r).iter().all(|&w| w == 0));
        }
        let d = self.dim().max(other.dim());
        (0..d).all(|r| self.row_iter_or_empty(r).eq(other.row_iter_or_empty(r)))
    }
}

/// `inner` packed into row-aligned words (bits `≥ inner.len()` clear).
fn dense_inner_mask(m: &BitMatrix, inner: &[bool]) -> Vec<u64> {
    let mut mask = vec![0u64; m.words_per_row().max(inner.len().div_ceil(64))];
    for (j, &sat) in inner.iter().enumerate() {
        if sat {
            mask[j >> 6] |= 1u64 << (j & 63);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_policy_pins_and_restores() {
        {
            let _g = force_rel_backend(RelChoice::Sparse);
            assert_eq!(rel_backend_for(1), RelBackend::Sparse);
            assert_eq!(Rel::new(8).backend(), RelBackend::Sparse);
        }
        {
            let _g = force_rel_backend(RelChoice::Dense);
            assert_eq!(rel_backend_for(1 << 20), RelBackend::Dense);
        }
        {
            let _g = force_rel_backend(RelChoice::Compressed);
            assert_eq!(rel_backend_for(1), RelBackend::Compressed);
            assert_eq!(Rel::new(8).backend(), RelBackend::Compressed);
        }
        {
            let _g = force_rel_backend(RelChoice::AutoAt(100));
            assert_eq!(rel_backend_for(100), RelBackend::Dense);
            assert_eq!(rel_backend_for(101), RelBackend::Sparse);
            // The compressed floor still applies above the dense band.
            let floor = REL_COMPRESSED_MIN_DIM;
            assert_eq!(rel_backend_for(floor - 1), RelBackend::Sparse);
            assert_eq!(rel_backend_for(floor), RelBackend::Compressed);
        }
    }

    #[test]
    fn mixed_backend_ops_agree_with_pure_dense() {
        let _g = force_rel_backend(RelChoice::AutoAt(64));
        // dim 32 → dense, dim 128 → sparse under this crossover.
        let mut small = Rel::new(32);
        small.set(0, 1);
        small.set(3, 31);
        assert_eq!(small.backend(), RelBackend::Dense);
        let mut big = Rel::new(128);
        big.set(0, 1);
        big.set(31, 100);
        big.set(100, 0);
        assert_eq!(big.backend(), RelBackend::Sparse);

        let u = small.union(&big);
        assert_eq!(u.backend(), RelBackend::Sparse);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![(0, 1), (3, 31), (31, 100), (100, 0)]
        );
        let m = small.meet(&big);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 1)]);
        let c = big.compose_governed(&big, &Budget::unlimited()).unwrap();
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(31, 0), (100, 1)]);
        // Growth across the crossover migrates storage.
        let grown = small.resized(128);
        assert_eq!(grown.backend(), RelBackend::Sparse);
        assert!(grown.set_eq(&small));
    }

    #[test]
    fn set_eq_spans_backends_and_dims() {
        let _g = force_rel_backend(RelChoice::AutoAt(64));
        let mut d = Rel::with_backend(40, RelBackend::Dense);
        let mut s = Rel::with_backend(300, RelBackend::Sparse);
        let mut c = Rel::with_backend(90_000, RelBackend::Compressed);
        for (a, b) in [(0usize, 5usize), (17, 3), (39, 39)] {
            d.set(a, b);
            s.set(a, b);
            c.set(a, b);
        }
        assert!(d.set_eq(&s) && s.set_eq(&d));
        assert!(d.set_eq(&c) && c.set_eq(&d) && s.set_eq(&c));
        s.set(40, 0);
        assert!(!d.set_eq(&s) && !s.set_eq(&d) && !c.set_eq(&s));
    }

    #[test]
    fn sweeps_and_contracts_agree_across_backends() {
        let pairs = [(0usize, 1usize), (0, 2), (1, 2), (3, 0), (5, 5)];
        let mut d = Rel::with_backend(6, RelBackend::Dense);
        let mut s = Rel::with_backend(6, RelBackend::Sparse);
        let mut c = Rel::with_backend(6, RelBackend::Compressed);
        for &(a, b) in &pairs {
            d.set(a, b);
            s.set(a, b);
            c.set(a, b);
        }
        let inner = vec![false, true, true, false, true, false];
        assert_eq!(d.box_states(&inner), s.box_states(&inner));
        assert_eq!(d.box_states(&inner), c.box_states(&inner));
        assert_eq!(d.diamond_states(&inner), s.diamond_states(&inner));
        assert_eq!(d.diamond_states(&inner), c.diamond_states(&inner));
        assert_eq!(d.is_functional(), s.is_functional());
        assert_eq!(d.is_functional(), c.is_functional());
        for n in 0..7 {
            assert_eq!(d.is_total(n), s.is_total(n));
            assert_eq!(d.is_total(n), c.is_total(n));
        }
        let closed: Vec<_> = d.closure_reflexive_transitive().iter().collect();
        assert_eq!(
            closed,
            s.closure_reflexive_transitive().iter().collect::<Vec<_>>()
        );
        assert_eq!(
            closed,
            c.closure_reflexive_transitive().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn compressed_coercions_and_byte_accounting() {
        let _g = force_rel_backend(RelChoice::Compressed);
        let mut r = Rel::new(70_000);
        assert_eq!(r.backend(), RelBackend::Compressed);
        for c in 0..640usize {
            r.set(7, 65_200 + c);
        }
        // One run straddling the chunk boundary → two containers. Point
        // inserts keep array encodings (336 + 304 values)...
        assert_eq!(r.count_ones(), 640);
        assert_eq!(r.mem_bytes(), (8 + 2 * 336) + (8 + 2 * 304));
        // ...while bulk-built rows normalize: composing with the identity
        // rebuilds the row as one 4-byte run per chunk.
        let norm = r
            .compose_governed(&Rel::identity(70_000), &Budget::unlimited())
            .unwrap();
        assert!(norm.set_eq(&r));
        assert_eq!(norm.mem_bytes(), 2 * (8 + 4));
        // Round-trip through the sparse backend preserves the pair set
        // (a dense coercion at this dim would allocate ~600 MB).
        let s = r.coerced(70_000, RelBackend::Sparse);
        assert!(s.set_eq(&r));
        assert_eq!(s.mem_bytes(), 4 * 640);
        let back = s.coerced(70_000, RelBackend::Compressed);
        assert!(back.set_eq(&r));
        assert_eq!(back.mem_bytes(), r.mem_bytes());
    }
}
