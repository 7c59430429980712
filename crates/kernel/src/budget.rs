//! Resource governor for the long-running verification sweeps.
//!
//! Every obligation checker in this workspace is a bounded search over an
//! unbounded space: rewriting may diverge (only fuel stops it), reachability
//! closures grow geometrically, and PDL denotations scale with the universe.
//! A [`Budget`] bounds the work done per request along three axes:
//!
//! - a **wall-clock deadline** measured from a monotonic start instant,
//! - a **node cap** backed by the term arena's node accounting
//!   ([`TermStore::len`](crate::TermStore::len) — the number of hash-consed
//!   nodes allocated so far), and
//! - a **relation-memory cap** polled by the relation kernels with the
//!   estimated *bytes* a single governed operation has allocated (8 per
//!   dense `u64` word, 4 per sparse adjacency entry, the container byte
//!   formula for the compressed backend) — one currency across all
//!   backends, so the cap means the same thing whichever representation
//!   the policy picks, and a materialization that would exhaust memory
//!   trips [`Exhaustion`] instead of OOMing.
//!
//! Budgets are polled cooperatively at *deterministic* boundaries —
//! frontier levels in the BFS closures, serial slot indices in the
//! obligation sweeps — so that exhaustion produces the same partial report
//! at every thread count: the node axis is checked first (it depends only
//! on serial-order progress, never on the scheduler), and an exhausted
//! sweep reports an [`Exhaustion`] that echoes the *configured* limits
//! rather than observed counters, making reports comparable with `==`
//! across runs.
//!
//! Cheapness matters: `Budget::check` on an unlimited budget is two
//! `Option` tests and no syscall; `Instant::now()` is only consulted when a
//! deadline is actually set.

use std::fmt;
use std::time::{Duration, Instant};

/// Which budget axis tripped.
///
/// The variants are ordered by check priority: node caps are examined
/// before deadlines because the node axis is a pure function of
/// serial-order progress — checking it first keeps exhaustion reports
/// bit-identical across thread counts even when a deadline is also
/// configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BudgetExceeded {
    /// The hash-consed node count reached the configured cap.
    Nodes,
    /// A governed relation operation reached the configured cap on
    /// estimated backend bytes (dense words × 8 / sparse entries × 4 /
    /// compressed container bytes). Each governed operation counts its own
    /// bytes on its caller's thread, so a given operation trips at the
    /// same row every run; it is still a safety axis, not a unit counter.
    RelMemory,
    /// The wall-clock deadline elapsed.
    Deadline,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetExceeded::Nodes => "node cap reached",
            BudgetExceeded::RelMemory => "relation memory cap reached",
            BudgetExceeded::Deadline => "deadline elapsed",
        })
    }
}

/// A shareable work budget. Clones share the same start instant, so a
/// single budget built at the top of `verify` governs every stage: once the
/// deadline passes, every later stage trips at entry and returns an empty
/// partial report instead of doing more work.
#[derive(Clone, Debug)]
pub struct Budget {
    start: Instant,
    deadline: Option<Duration>,
    max_nodes: Option<usize>,
    max_rel_entries: Option<usize>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget with no limits on any axis. `check` never trips.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            start: Instant::now(),
            deadline: None,
            max_nodes: None,
            max_rel_entries: None,
        }
    }

    /// Set a wall-clock deadline, measured from the instant the budget was
    /// constructed (not from this call).
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Cap the number of hash-consed term nodes (or, on sweeps that do not
    /// allocate terms, the number of completed serial-order units). The cap
    /// trips when the count *reaches* the cap, so a cap of 0 trips before
    /// any work is done.
    #[must_use]
    pub fn with_max_nodes(mut self, nodes: usize) -> Self {
        self.max_nodes = Some(nodes);
        self
    }

    /// Cap the estimated bytes a single governed relation operation may
    /// materialize (each backend reports its own honest estimate: dense
    /// words × 8, sparse entries × 4, compressed container bytes). Polled
    /// by the relation kernels via [`check_rel`](Self::check_rel); trips
    /// when the estimate *reaches* the cap. The cap survives
    /// [`without_node_cap`](Self::without_node_cap), so strided sweeps
    /// keep their memory protection while the node axis stays
    /// caller-enforced. The method name keeps the historical `entries`
    /// wording for compatibility; the unit is bytes.
    #[must_use]
    pub fn with_max_rel_entries(mut self, entries: usize) -> Self {
        self.max_rel_entries = Some(entries);
        self
    }

    /// A copy of this budget with the node cap removed — the form handed to
    /// per-worker rewriters inside strided sweeps. The sweep itself enforces
    /// the node axis at serial-order slot boundaries; letting workers also
    /// poll their *private* store sizes would make node-cap stops depend on
    /// the schedule. The relation-memory cap is *kept*: it guards against a
    /// single runaway materialization inside a worker, like the deadline.
    #[must_use]
    pub fn without_node_cap(&self) -> Budget {
        Budget {
            max_nodes: None,
            ..self.clone()
        }
    }

    /// The configured deadline in milliseconds, if any.
    #[must_use]
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline.map(|d| d.as_millis() as u64)
    }

    /// The configured node cap, if any.
    #[must_use]
    pub fn max_nodes(&self) -> Option<usize> {
        self.max_nodes
    }

    /// The configured relation-memory cap (estimated bytes), if any.
    #[must_use]
    pub fn max_rel_entries(&self) -> Option<usize> {
        self.max_rel_entries
    }

    /// Wall-clock time since the budget was constructed.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Poll the budget with the current node count. Returns the first axis
    /// that tripped, in [`BudgetExceeded`] priority order (nodes, then
    /// deadline). `Instant::now()` is only consulted when a deadline is
    /// configured.
    #[must_use]
    pub fn check(&self, nodes: usize) -> Option<BudgetExceeded> {
        if let Some(cap) = self.max_nodes {
            if nodes >= cap {
                return Some(BudgetExceeded::Nodes);
            }
        }
        if let Some(limit) = self.deadline {
            if self.start.elapsed() >= limit {
                return Some(BudgetExceeded::Deadline);
            }
        }
        None
    }

    /// Poll the budget from inside a governed relation operation with the
    /// estimated bytes (dense words × 8 / sparse entries × 4 / compressed
    /// container bytes) that operation has allocated so far. Checks the
    /// relation-memory axis first, then falls through to
    /// [`check`](Self::check) with a zero node count, so the deadline keeps
    /// its existing poll points.
    #[must_use]
    pub fn check_rel(&self, entries: usize) -> Option<BudgetExceeded> {
        if let Some(cap) = self.max_rel_entries {
            if entries >= cap {
                return Some(BudgetExceeded::RelMemory);
            }
        }
        self.check(0)
    }

    /// Build the [`Exhaustion`] record for a sweep that tripped this
    /// budget. The record echoes the configured limits (not observed
    /// counters), so two runs of the same sweep under the same budget
    /// compare equal regardless of thread count or timing.
    #[must_use]
    pub fn exhaustion(
        &self,
        stage: &'static str,
        reason: BudgetExceeded,
        completed_units: usize,
    ) -> Exhaustion {
        Exhaustion {
            stage,
            reason,
            completed_units,
            max_nodes: self.max_nodes,
            max_rel_entries: self.max_rel_entries,
            deadline_ms: self.deadline_ms(),
        }
    }
}

/// A deterministic partial-progress report attached to a sweep's verdict
/// when its budget tripped. `completed_units` counts fully processed
/// serial-order units (frontier levels, overlap pairs, evaluation subjects,
/// …) — a *prefix* of the serial schedule, so the same report is produced
/// at every thread count for the schedule-independent axes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Exhaustion {
    /// Which sweep ran out of budget (`"rewrite"`, `"explore"`, …).
    pub stage: &'static str,
    /// Which axis tripped.
    pub reason: BudgetExceeded,
    /// How many serial-order units completed before stopping.
    pub completed_units: usize,
    /// The configured node cap, echoed from the budget.
    pub max_nodes: Option<usize>,
    /// The configured relation-memory cap, echoed from the budget.
    pub max_rel_entries: Option<usize>,
    /// The configured deadline in milliseconds, echoed from the budget.
    pub deadline_ms: Option<u64>,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exhausted ({}) after {} unit(s)",
            self.stage, self.reason, self.completed_units
        )?;
        if let Some(n) = self.max_nodes {
            write!(f, ", node cap {n}")?;
        }
        if let Some(n) = self.max_rel_entries {
            write!(f, ", relation memory cap {n}")?;
        }
        if let Some(ms) = self.deadline_ms {
            write!(f, ", deadline {ms} ms")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert_eq!(b.check(usize::MAX), None);
        assert_eq!(b.check_rel(usize::MAX), None);
    }

    #[test]
    fn node_cap_trips_at_cap_inclusive() {
        let b = Budget::unlimited().with_max_nodes(10);
        assert_eq!(b.check(9), None);
        assert_eq!(b.check(10), Some(BudgetExceeded::Nodes));
        assert_eq!(b.check(11), Some(BudgetExceeded::Nodes));
        // A zero cap trips before any work at all.
        let z = Budget::unlimited().with_max_nodes(0);
        assert_eq!(z.check(0), Some(BudgetExceeded::Nodes));
    }

    #[test]
    fn nodes_axis_wins_over_deadline() {
        let b = Budget::unlimited().with_max_nodes(0).with_deadline_ms(0);
        assert_eq!(b.check(0), Some(BudgetExceeded::Nodes));
        assert_eq!(b.check(usize::MAX), Some(BudgetExceeded::Nodes));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::unlimited().with_deadline_ms(0);
        assert_eq!(b.check(0), Some(BudgetExceeded::Deadline));
    }

    #[test]
    fn rel_memory_cap_trips_only_through_check_rel() {
        let b = Budget::unlimited().with_max_rel_entries(100);
        assert_eq!(b.max_rel_entries(), Some(100));
        // The plain node-count poll never sees the relation axis...
        assert_eq!(b.check(usize::MAX - 1), None);
        // ...but the relation kernels' poll does, inclusively at the cap.
        assert_eq!(b.check_rel(99), None);
        assert_eq!(b.check_rel(100), Some(BudgetExceeded::RelMemory));
        // It survives node-cap stripping (workers keep memory protection).
        assert_eq!(
            b.without_node_cap().check_rel(100),
            Some(BudgetExceeded::RelMemory)
        );
        // And falls through to the deadline below the cap.
        let c = b.with_deadline_ms(0);
        assert_eq!(c.check_rel(0), Some(BudgetExceeded::Deadline));
    }

    #[test]
    fn exhaustion_echoes_configured_limits() {
        let b = Budget::unlimited().with_max_nodes(5).with_deadline_ms(250);
        let e = b.exhaustion("explore", BudgetExceeded::Nodes, 3);
        assert_eq!(e.stage, "explore");
        assert_eq!(e.completed_units, 3);
        assert_eq!(e.max_nodes, Some(5));
        assert_eq!(e.deadline_ms, Some(250));
        // Equal regardless of when / on which thread it was built.
        assert_eq!(e, b.clone().exhaustion("explore", BudgetExceeded::Nodes, 3));
        let shown = e.to_string();
        assert!(shown.contains("explore"), "{shown}");
        assert!(shown.contains("node cap 5"), "{shown}");
    }
}
