//! Demand-driven reflexive-transitive closure — the formula-directed
//! layer between the relation backends and the PDL/RPR semantics.
//!
//! Materializing `m(p*)` eagerly closes **all** `n` source rows of the
//! underlying transition relation, even when the enclosing formula only
//! asks whether all reached rows satisfy φ (box) or some reached row does
//! (diamond). A [`LazyClosure`] wraps a borrowed base [`Rel`] and answers
//! exactly those two questions without materializing any row:
//! [`box_star_states`](LazyClosure::box_star_states) and
//! [`diamond_star_states`](LazyClosure::diamond_star_states) run a
//! per-source traversal that stops at the first violation (box) or first
//! witness (diamond), and two verdict memos shared across the sweep
//! (`good`/`bad`, resp. `yes`/`no`) make the total sweep cost near-linear
//! in the edge count — once a node's subtree verdict is known, no later
//! source re-explores it. A caller that needs the closure relation itself
//! takes the backend's eager [`Rel::closure_governed`].
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
/// a borrowed base relation) answering modal sweeps.
pub struct LazyClosure<'a> {
    base: &'a Rel,
    /// Reusable membership scratch for traversals, `base.dim()` flags.
    scratch: Vec<bool>,
}

impl<'a> LazyClosure<'a> {
    /// A lazy closure over `base` with nothing demanded yet.
    #[must_use]
    pub fn new(base: &'a Rel) -> Self {
        LazyClosure {
            base,
            scratch: Vec::new(),
        }
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
    /// [`ROW_POLL_STRIDE`] sources.
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
        if self.scratch.is_empty() {
            self.scratch = vec![false; d];
        }
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
                if let Some(reason) = budget.check_rel(0) {
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
    use crate::rel::{Rel, RelBackend};

    fn from_pairs(n: usize, backend: RelBackend, pairs: &[(usize, usize)]) -> Rel {
        let mut m = Rel::with_backend(n, backend);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
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
    }
}
