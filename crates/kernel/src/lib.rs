//! # eclectic-kernel
//!
//! The hash-consed term kernel shared by every specification level of the
//! eclectic workspace: the logic level (§3 of the paper), the algebraic
//! rewriting level (§4), and the RPR representation level (§5) all
//! manipulate first-order terms over the same id vocabulary, and this crate
//! gives them one interning substrate with:
//!
//! - **O(1) structural equality and hashing** — a [`TermStore`] issues one
//!   [`TermId`] per distinct tree, so id equality *is* semantic equality;
//! - **cached per-node metadata** — groundness, size, depth computed once at
//!   intern time, and sorts cached on first demand via a [`SortOracle`];
//! - **structural sharing** — repeated subterms (e.g. common trace
//!   prefixes of database update histories) are stored once, which is what
//!   makes memoised rewriting and reachability deduplication cheap;
//! - **substitution over interned terms** ([`TermStore::subst`]) with
//!   ground short-circuiting.
//!
//! Beside the term store the crate holds the shared substrate the levels
//! build on: the relation kernel ([`Rel`] over a dense backend and two
//! row encodings of one row matrix, sparse and compressed), the
//! resource governor ([`Budget`]), the FIFO work-stealing pool in
//! [`sched`] ([`run_tasks`], [`run_workers`]), and the environment
//! configuration ([`env_threads`]). Relation and term operations run on
//! their caller's thread: the pool runs whole obligation units, never a
//! share of one relation or term sweep.
//!
//! The crate is dependency-free; names, declarations, parsing and printing
//! stay in `eclectic-logic`.

#![warn(missing_docs)]

mod bitmat;
mod budget;
mod container;
mod envcfg;
pub mod hash;
mod ids;
mod rel;
pub mod rng;
pub mod sched;
mod rows;
mod sparse;
mod store;

pub use bitmat::{BitMatrix, ROW_POLL_STRIDE};
pub use budget::{Budget, BudgetExceeded, Exhaustion};
pub use container::{CompressedRel, CompressedRow};
pub use envcfg::{effective_workers, env_threads, force_worker_cap, WorkerCapGuard};
pub use rel::{
    force_rel_backend, force_rel_fault, rel_backend_for, Rel, RelBackend, RelBackendGuard,
    RelChoice, RelFaultGuard, RowIter, REL_DENSE_MAX_DIM,
};
pub use rng::Rng;
pub use sched::{run_tasks, run_workers, IndexQueue};
pub use sparse::SparseRel;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{FuncId, PredId, SortId, VarId};
pub use store::{Binding, SortError, SortOracle, TermId, TermNode, TermStore};
