//! Demand-driven reflexive-transitive closure — the formula-directed
//! layer between the relation backends and the PDL/RPR semantics.
//!
//! Materializing `m(p*)` eagerly closes **all** `n` source rows of the
//! underlying transition relation, even when the enclosing formula only
//! ever asks three questions about the closure: *which rows does this
//! source reach* (composition), *do all reached rows satisfy φ* (box),
//! *does some reached row satisfy φ* (diamond). A [`LazyClosure`] wraps
//! a borrowed base [`Rel`] and answers exactly those questions,
//! expanding the per-source semi-naive fixpoint only for the sources
//! actually demanded:
//!
//! - [`row`](LazyClosure::row) runs one per-source fixpoint on first
//!   demand and memoizes the sorted reachable set (4 bytes per entry,
//!   charged against the budget's relation-memory axis);
//! - [`box_star_states`](LazyClosure::box_star_states) and
//!   [`diamond_star_states`](LazyClosure::diamond_star_states) answer
//!   modal sweeps over the *whole* closure without materializing any
//!   row: a per-source traversal stops at the first violation (box) or
//!   first witness (diamond), and two verdict memos shared across the
//!   sweep (`good`/`bad`, resp. `yes`/`no`) make the total sweep cost
//!   near-linear in the edge count — once a node's subtree verdict is
//!   known, no later source re-explores it;
//! - [`materialize_governed`](LazyClosure::materialize_governed)
//!   produces the full closure `Rel` when a caller really needs one.
//!   With an empty memo it delegates to the backend's eager
//!   `closure_governed`; with memoized rows it merges them in row order,
//!   so the result is the same either way.
//!
//! The verdict memos are sound because reachability is transitive:
//! every node visited during a *completed* clean box traversal from
//! `s` only reaches nodes reachable from `s`, so "all reachable
//! satisfy" transfers from `s` to each visited node — and dually for
//! the exhausted diamond traversal. Verdicts are semantic (a property
//! of the pair set, not the traversal order), so sweeps are
//! deterministic at any demand order.

use crate::bitmat::ROW_POLL_STRIDE;
use crate::budget::{Budget, BudgetExceeded};
use crate::rel::Rel;

/// A demand-driven view of `base*` (the reflexive-transitive closure of
/// a borrowed base relation) with per-source memoization.
pub struct LazyClosure<'a> {
    base: &'a Rel,
    /// Memoized closure rows, indexed by source; `None` = not demanded.
    memo: Vec<Option<Box<[u32]>>>,
    /// Number of memoized rows.
    filled: usize,
    /// Raw bytes held by the memo (4 per entry), charged to the
    /// relation-memory budget axis.
    bytes: usize,
    /// Reusable membership scratch for traversals, `base.dim()` flags.
    scratch: Vec<bool>,
}

impl<'a> LazyClosure<'a> {
    /// A lazy closure over `base` with nothing demanded yet.
    #[must_use]
    pub fn new(base: &'a Rel) -> Self {
        LazyClosure {
            base,
            memo: Vec::new(),
            filled: 0,
            bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// The borrowed base relation.
    #[must_use]
    pub fn base(&self) -> &Rel {
        self.base
    }

    /// Number of source rows whose closure has been memoized.
    #[must_use]
    pub fn memoized_rows(&self) -> usize {
        self.filled
    }

    /// Raw bytes held by the per-source memo (4 per reached entry).
    #[must_use]
    pub fn memo_bytes(&self) -> usize {
        self.bytes
    }

    fn ensure_scratch(&mut self) {
        if self.scratch.is_empty() {
            self.scratch = vec![false; self.base.dim()];
        }
        if self.memo.is_empty() {
            self.memo = (0..self.base.dim()).map(|_| None).collect();
        }
    }

    /// The sorted closure row of `src`: every node reachable from `src`
    /// in the base relation, including `src` itself. Computed by one
    /// semi-naive fixpoint on first demand, memoized after.
    ///
    /// # Errors
    /// Returns the tripped axis; the memo keeps previously demanded rows.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    pub fn row(&mut self, src: usize, budget: &Budget) -> Result<&[u32], BudgetExceeded> {
        assert!(src < self.base.dim(), "closure source out of range");
        self.ensure_scratch();
        if self.memo[src].is_none() {
            if let Some(reason) = budget.check_rel(self.bytes) {
                return Err(reason);
            }
            let mut reach: Vec<u32> = vec![src as u32];
            self.scratch[src] = true;
            let mut delta = 0usize;
            while delta < reach.len() {
                let x = reach[delta] as usize;
                delta += 1;
                for t in self.base.iter_row(x) {
                    if !self.scratch[t] {
                        self.scratch[t] = true;
                        reach.push(t as u32);
                    }
                }
            }
            for &t in &reach {
                self.scratch[t as usize] = false;
            }
            reach.sort_unstable();
            self.bytes += 4 * reach.len();
            self.filled += 1;
            self.memo[src] = Some(reach.into_boxed_slice());
        }
        Ok(self.memo[src].as_deref().expect("just filled"))
    }

    /// The closure as a full [`Rel`] at the base dimension, with rows
    /// `>= n` cleared (the `star_governed(n)` contract: sources are
    /// restricted to the universe, but traversal still passes through
    /// out-of-universe intermediate nodes).
    ///
    /// With an empty memo this delegates to the backend's eager
    /// `closure_governed`. With memoized rows it merges per-source rows in
    /// row order (demanding the missing ones), so the result is identical
    /// either way.
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    ///
    /// # Panics
    /// Panics if `n` exceeds the base dimension.
    pub fn materialize_governed(&mut self, n: usize, budget: &Budget) -> Result<Rel, BudgetExceeded> {
        let d = self.base.dim();
        assert!(n <= d, "materialize bound exceeds base dimension");
        if self.filled == 0 {
            let mut closed = self.base.closure_governed(budget)?;
            for r in n..d {
                closed.clear_row(r);
            }
            return Ok(closed);
        }
        let mut out = Rel::new(d);
        for src in 0..n {
            if src % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(self.bytes) {
                    return Err(reason);
                }
            }
            self.row(src, budget)?;
            if let Some(row) = &self.memo[src] {
                for &c in row.iter() {
                    out.set(src, c as usize);
                }
            }
        }
        Ok(out)
    }

    /// One `[p*]`-modality sweep over the closure without materializing
    /// it: `out[i]` is true iff every node reachable from `i` (including
    /// `i`) lies in `inner`; reached nodes `>= inner.len()` count as
    /// unsatisfied — exactly `closure.box_states(inner)` after a
    /// `star_governed(inner.len())`.
    ///
    /// Each source's traversal stops at the first violation, and two
    /// sweep-wide verdict memos (`good`: all reachable satisfy; `bad`:
    /// reaches a violation) prevent re-exploration, so the whole sweep
    /// is near-linear in the edge count. `budget` is polled every
    /// [`ROW_POLL_STRIDE`] sources with the memo's byte footprint.
    ///
    /// # Errors
    /// Returns the tripped axis; partial verdicts are discarded.
    ///
    /// # Panics
    /// Panics if `inner` is longer than the base dimension.
    pub fn box_star_states(
        &mut self,
        inner: &[bool],
        budget: &Budget,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        self.sweep(inner, budget, true)
    }

    /// One `⟨p*⟩`-modality sweep over the closure without materializing
    /// it: `out[i]` is true iff some node reachable from `i` (including
    /// `i`) lies in `inner` — exactly `closure.diamond_states(inner)`
    /// after a `star_governed(inner.len())`. Dual memoization to
    /// [`box_star_states`](Self::box_star_states) (`yes`: reaches a
    /// witness; `no`: reaches none).
    ///
    /// # Errors
    /// Returns the tripped axis; partial verdicts are discarded.
    ///
    /// # Panics
    /// Panics if `inner` is longer than the base dimension.
    pub fn diamond_star_states(
        &mut self,
        inner: &[bool],
        budget: &Budget,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        self.sweep(inner, budget, false)
    }

    /// Shared pruned-sweep engine. For `is_box` the verdict memos read
    /// "all reachable satisfy" / "reaches a violation"; for diamond they
    /// read "reaches a witness" / "reaches none" — the traversal is the
    /// same with the polarity flipped.
    fn sweep(
        &mut self,
        inner: &[bool],
        budget: &Budget,
        is_box: bool,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        let d = self.base.dim();
        assert!(inner.len() <= d, "sweep sources exceed base dimension");
        self.ensure_scratch();
        let sat = |t: usize| t < inner.len() && inner[t];
        // For box: settled_pos = "all reachable satisfy", settled_neg =
        // "reaches a violation". For diamond: settled_pos = "reaches a
        // witness", settled_neg = "reaches none". The *positive* verdict
        // is the one that lets a clean/exhausted traversal settle every
        // visited node at once (box: clean completion; diamond:
        // exhaustion settles the negative — polarity handled below).
        let mut settled_all = vec![false; d];
        let mut settled_one = vec![false; d];
        let mut out = vec![false; inner.len()];
        let mut stack: Vec<u32> = Vec::new();
        let mut visited: Vec<u32> = Vec::new();
        for (i, slot) in out.iter_mut().enumerate() {
            if i % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(self.bytes) {
                    return Err(reason);
                }
            }
            if is_box {
                if settled_all[i] {
                    *slot = true;
                    continue;
                }
                if settled_one[i] || !sat(i) {
                    settled_one[i] = true;
                    continue;
                }
            } else {
                if settled_one[i] {
                    *slot = true;
                    continue;
                }
                if settled_all[i] {
                    continue;
                }
                if sat(i) {
                    settled_one[i] = true;
                    *slot = true;
                    continue;
                }
            }
            // Depth-first reachability from `i`; verdicts are semantic,
            // so the traversal order never shows in the output.
            visited.clear();
            stack.clear();
            self.scratch[i] = true;
            visited.push(i as u32);
            stack.push(i as u32);
            // For box, `short` means "violation found"; for diamond,
            // "witness found".
            let mut short = false;
            'dfs: while let Some(x) = stack.pop() {
                for t in self.base.iter_row(x as usize) {
                    if self.scratch[t] {
                        continue;
                    }
                    if is_box {
                        if settled_one[t] || !sat(t) {
                            if !sat(t) && t < d {
                                settled_one[t] = true;
                            }
                            short = true;
                            break 'dfs;
                        }
                        self.scratch[t] = true;
                        visited.push(t as u32);
                        if !settled_all[t] {
                            stack.push(t as u32);
                        }
                    } else {
                        if settled_one[t] || sat(t) {
                            if sat(t) {
                                settled_one[t] = true;
                            }
                            short = true;
                            break 'dfs;
                        }
                        self.scratch[t] = true;
                        visited.push(t as u32);
                        if !settled_all[t] {
                            stack.push(t as u32);
                        }
                    }
                }
            }
            for &v in &visited {
                self.scratch[v as usize] = false;
            }
            if is_box {
                if short {
                    settled_one[i] = true;
                } else {
                    // Clean completion: everything reachable from any
                    // visited node is reachable from `i`, hence satisfies.
                    for &v in &visited {
                        settled_all[v as usize] = true;
                    }
                    *slot = true;
                }
            } else if short {
                settled_one[i] = true;
                *slot = true;
            } else {
                // Exhausted without a witness: nothing reachable from any
                // visited node satisfies.
                for &v in &visited {
                    settled_all[v as usize] = true;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{force_rel_backend, Rel, RelBackend, RelChoice};

    fn from_pairs(n: usize, backend: RelBackend, pairs: &[(usize, usize)]) -> Rel {
        let mut m = Rel::with_backend(n, backend);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    #[test]
    fn rows_match_eager_closure_on_demand() {
        let pairs = [(0, 1), (1, 2), (2, 0), (5, 9), (9, 9)];
        for backend in [RelBackend::Dense, RelBackend::Sparse, RelBackend::Compressed] {
            let base = from_pairs(10, backend, &pairs);
            let eager = base.closure_reflexive_transitive();
            let mut lazy = LazyClosure::new(&base);
            // Demand out of order; memoization must not disturb results.
            for src in [5usize, 0, 5, 9, 3] {
                let row = lazy.row(src, &Budget::unlimited()).unwrap().to_vec();
                let want: Vec<u32> = eager.iter_row(src).map(|c| c as u32).collect();
                assert_eq!(row, want, "src {src} on {backend:?}");
            }
            assert_eq!(lazy.memoized_rows(), 4);
            assert!(lazy.memo_bytes() > 0);
        }
    }

    #[test]
    fn materialize_matches_star_contract_both_paths() {
        let _g = force_rel_backend(RelChoice::AutoAt(64));
        // Base dim 12 > n = 10: rows >= n must be cleared, but traversal
        // still passes through node 10 (5 -> 10 -> 6).
        let pairs = [(0, 1), (1, 2), (5, 10), (10, 6), (11, 3)];
        let base = from_pairs(12, RelBackend::Sparse, &pairs);
        let mut eager = base.closure_reflexive_transitive();
        for r in 10..12 {
            eager.clear_row(r);
        }
        // Fast path: empty memo.
        let mut lazy = LazyClosure::new(&base);
        let fast = lazy
            .materialize_governed(10, &Budget::unlimited())
            .unwrap();
        assert!(fast.set_eq(&eager));
        // Memoized path: pre-demand a row, then materialize serially.
        let mut lazy2 = LazyClosure::new(&base);
        lazy2.row(5, &Budget::unlimited()).unwrap();
        let merged = lazy2
            .materialize_governed(10, &Budget::unlimited())
            .unwrap();
        assert!(merged.set_eq(&eager));
        // A zero-byte relation-memory cap trips the memoized path too.
        let capped = Budget::unlimited().with_max_rel_entries(0);
        assert_eq!(
            lazy2.materialize_governed(10, &capped).err(),
            Some(BudgetExceeded::RelMemory)
        );
    }

    #[test]
    fn modal_sweeps_match_materialized_closure() {
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 11),
            (5, 5),
            (7, 8),
            (8, 9),
        ];
        for backend in [RelBackend::Dense, RelBackend::Sparse, RelBackend::Compressed] {
            let base = from_pairs(12, backend, &pairs);
            let n = 10usize;
            let mut closed = base.closure_reflexive_transitive();
            for r in n..12 {
                closed.clear_row(r);
            }
            // Several formulas over the same closure reuse the verdict
            // memos; each must still match the eager sweep.
            let inners = [
                vec![true; n],
                vec![false; n],
                (0..n).map(|i| i != 9).collect::<Vec<_>>(),
                (0..n).map(|i| i % 2 == 0).collect::<Vec<_>>(),
            ];
            let mut lazy = LazyClosure::new(&base);
            for inner in &inners {
                assert_eq!(
                    lazy.box_star_states(inner, &Budget::unlimited()).unwrap(),
                    closed.box_states(inner),
                    "box {inner:?} on {backend:?}"
                );
            }
            let mut lazy_d = LazyClosure::new(&base);
            for inner in &inners {
                assert_eq!(
                    lazy_d
                        .diamond_star_states(inner, &Budget::unlimited())
                        .unwrap(),
                    closed.diamond_states(inner),
                    "diamond {inner:?} on {backend:?}"
                );
            }
            // Sweeps never materialized anything.
            assert_eq!(lazy.memoized_rows(), 0);
            assert_eq!(lazy_d.memoized_rows(), 0);
        }
    }

    #[test]
    fn sweeps_respect_budget_axes() {
        let base = from_pairs(8, RelBackend::Sparse, &[(0, 1)]);
        let mut lazy = LazyClosure::new(&base);
        let cancelled = {
            let tok = crate::budget::CancelToken::new();
            tok.cancel();
            Budget::unlimited().with_cancel(tok)
        };
        assert_eq!(
            lazy.box_star_states(&[true; 8], &cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(
            lazy.diamond_star_states(&[false; 8], &cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(lazy.row(0, &cancelled), Err(BudgetExceeded::Cancelled));
    }
}
