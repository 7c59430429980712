//! The deterministic work-stealing scheduler: one persistent worker pool
//! driving every parallel sweep in the workspace.
//!
//! # Why a shared executor
//!
//! Before this module, each of the ~10 parallel entry points (confluence
//! overlap resolution, the completeness grid, batched PDL denotation,
//! reachability BFS, cross-level checks, relation compose/closure) spawned
//! its own `std::thread::scope` with level-synchronous barriers. Threads
//! were paid for per call, and a stage whose workers went idle at a
//! barrier could not lend them to a concurrently-runnable sibling stage.
//! [`run_tasks`] replaces every one of those call sites: tasks from all
//! active sweeps land in one region list served by one lazily-grown pool,
//! so independent stages of `core::verify` interleave on the same threads.
//!
//! # Determinism contract
//!
//! The executor itself makes no ordering promises beyond "every task runs
//! exactly once and outputs land in task order". Call sites keep the
//! bit-identical-reports contract the same way they always have: each
//! task's result is keyed by its serial position, and merges replay serial
//! order at commit points (slot replay). Dynamic load balancing inside a
//! sweep uses [`IndexQueue`]: chunks of the item range are claimed in
//! monotonically increasing order and processed in increasing index order
//! within a chunk, so by induction every item below the globally earliest
//! stop index has a verdict — exactly the invariant the static striding
//! provided — and deterministic stop axes (node caps checked at serial
//! slot indices) trip at the same minimal index at every worker count.
//!
//! # Priority classes
//!
//! Every region carries one of three [`Priority`] classes. A pool thread
//! looking for work serves the highest-priority non-drained region first,
//! breaking ties by submission order, and re-scans after every task so a
//! newly published latency-critical region preempts further claims from a
//! bulk sweep at task granularity. Priorities never affect results — only
//! which region a freed thread serves next.
//!
//! # Obligation DAGs
//!
//! [`DagBuilder`] turns "task B may only start after tasks A₁..Aₖ" into
//! pool-native completion counting: each node keeps a pending-dependency
//! count, and the task that decrements a count to zero submits the
//! unblocked node to the injector as its own single-task region (at the
//! node's priority) — no chain-level barrier, no coordinator thread.
//! Outputs are slotted by node index, so DAG results are as deterministic
//! as [`run_tasks`]'s.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Priority classes
// ---------------------------------------------------------------------------

/// The fixed set of injector priority classes, most urgent first.
///
/// Latency-critical regions — obligation-DAG nodes whose completion
/// unblocks downstream work (refine12 exploration → witness enumeration,
/// equations → cross-check) — run [`High`](Priority::High); ordinary
/// sweeps run [`Normal`](Priority::Normal); wide grid sweeps with no
/// dependents (completeness strips, per-procedure dynamic obligations,
/// batched PDL denotation) run [`Bulk`](Priority::Bulk) so they soak up
/// whatever threads the critical path leaves idle instead of starving it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-critical: draining this region unblocks dependent work.
    High,
    /// The default class for sweeps with no special urgency.
    Normal,
    /// Wide background grids; served only when nothing more urgent waits.
    Bulk,
}

impl Priority {
    /// Scan rank: lower drains first.
    fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }
}

/// Which region slot a work-seeking thread serves, as a pure function of
/// the scan snapshot: `(priority, drained)` per region in submission
/// order. Picks the highest-priority non-drained region, ties to the
/// oldest.
fn pick_region_slot(regions: &[(Priority, bool)]) -> Option<usize> {
    regions
        .iter()
        .enumerate()
        .filter(|(_, (_, drained))| !drained)
        .min_by_key(|(i, (p, _))| (p.rank(), *i))
        .map(|(i, _)| i)
}

// ---------------------------------------------------------------------------
// IndexQueue — dynamic chunked claiming over a serial item range
// ---------------------------------------------------------------------------

/// A monotonic chunked claim queue over `0..len`: the dynamic replacement
/// for static `skip(w).step_by(workers)` striding.
///
/// Workers call [`IndexQueue::claim`] to take the next contiguous chunk of
/// item indices. Chunks are handed out in increasing order and each worker
/// processes its chunk in increasing index order, which preserves the
/// prefix invariant the slot-replay merges rely on: when any worker stops
/// at index `k` (the minimal stop observed), every chunk below `k` was
/// claimed earlier and — because deterministic stop axes are pure
/// functions of the index — processed to completion, so every item `< k`
/// has a verdict. The chunk size is fixed at construction (a function of
/// `len` and the requested worker count only), never of runtime timing.
pub struct IndexQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl IndexQueue {
    /// A queue over `0..len` with a chunk size balancing steal granularity
    /// against claim traffic: ~4 chunks per worker, at least 1 item.
    #[must_use]
    pub fn new(len: usize, workers: usize) -> Self {
        let chunk = len.div_ceil(workers.max(1) * 4).max(1);
        Self::with_chunk(len, chunk)
    }

    /// A queue over `0..len` with an explicit chunk size (≥ 1).
    #[must_use]
    pub fn with_chunk(len: usize, chunk: usize) -> Self {
        IndexQueue {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk of indices, or `None` when the range is
    /// exhausted. Chunk starts are strictly increasing across all callers.
    #[must_use]
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..self.len.min(start + self.chunk))
    }

    /// Total number of items in the range.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// Hard cap on pool threads — a backstop far above any sane
/// `ECLECTIC_THREADS`, not a tuning knob.
const MAX_POOL_THREADS: usize = 256;

/// A lifetime-erased task. The closure really borrows the submitting
/// call's stack frame (`'env`); the region protocol guarantees it is
/// consumed before that frame returns (see the safety argument in
/// [`run_tasks_steal`]).
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// One submitted batch of tasks: the unit pool threads scan for work.
struct Region {
    /// Task slots, each taken exactly once by its claimer. The per-slot
    /// mutex is uncontended (the atomic cursor hands each index to one
    /// claimer); it exists to make `take` safe from any thread.
    tasks: Vec<Mutex<Option<ErasedTask>>>,
    /// Claim cursor over `tasks`.
    next: AtomicUsize,
    /// Injector class: which regions work-seeking threads serve first.
    priority: Priority,
    /// Count of settled tasks (executed, or panicked-and-recorded),
    /// guarded with [`Region::cv`] for the submitter's completion wait.
    settled: Mutex<usize>,
    cv: Condvar,
    /// First panic payload by task index — replayed to the submitter so a
    /// panicking sweep behaves like its serial equivalent.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Region {
    fn new(tasks: Vec<ErasedTask>, priority: Priority) -> Self {
        Region {
            tasks: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            next: AtomicUsize::new(0),
            priority,
            settled: Mutex::new(0),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Whether every task has been claimed (not necessarily finished).
    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks.len()
    }

    /// Claims the next unclaimed task index, if any.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tasks.len()).then_some(i)
    }

    /// Runs claimed task `i`, recording a panic instead of unwinding into
    /// the pool thread, and settles it.
    fn run(&self, i: usize) {
        let task = self.tasks[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(task) = task {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, payload));
                }
            }
        }
        let mut settled = self.settled.lock().unwrap_or_else(PoisonError::into_inner);
        *settled += 1;
        if *settled == self.tasks.len() {
            self.cv.notify_all();
        }
    }

    /// Blocks until every task has settled.
    fn wait_settled(&self) {
        let mut settled = self.settled.lock().unwrap_or_else(PoisonError::into_inner);
        while *settled < self.tasks.len() {
            settled = self
                .cv
                .wait(settled)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct PoolState {
    /// Active regions in submission order. Pool threads serve the
    /// highest-priority region with unclaimed work first (ties to the
    /// oldest) — this is the cross-stage sharing: a thread that drains one
    /// sweep's tasks immediately steals from whatever sweep is still
    /// running.
    regions: VecDeque<Arc<Region>>,
    /// Threads ever spawned (persistent; they park when idle).
    threads: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState {
                regions: VecDeque::new(),
                threads: 0,
            }),
            work_cv: Condvar::new(),
        })
    }

    /// Publishes a region and grows the pool toward `helpers` threads.
    fn submit(&'static self, region: Arc<Region>, helpers: usize) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.regions.push_back(region);
        let want = helpers.min(MAX_POOL_THREADS);
        while st.threads < want {
            st.threads += 1;
            std::thread::Builder::new()
                .name("eclectic-sched".into())
                .spawn(move || self.worker_loop())
                .expect("spawn scheduler worker");
        }
        drop(st);
        self.work_cv.notify_all();
    }

    /// Drops a settled region from the registry.
    fn retire(&self, region: &Arc<Region>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.regions.retain(|r| !Arc::ptr_eq(r, region));
    }

    /// Picks the region a work-seeking thread should serve next, honouring
    /// priority then submission order.
    fn scan(st: &PoolState) -> Option<Arc<Region>> {
        let snapshot: Vec<(Priority, bool)> = st
            .regions
            .iter()
            .map(|r| (r.priority, r.drained()))
            .collect();
        pick_region_slot(&snapshot).map(|i| Arc::clone(&st.regions[i]))
    }

    /// Claims and runs one task from the best available region. Returns
    /// `false` when no region has unclaimed work — the caller should park.
    /// Used by threads that must make progress on behalf of someone else's
    /// sweep (DAG submitters waiting for their nodes to settle).
    fn try_run_one(&self) -> bool {
        loop {
            let found = {
                let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                Self::scan(&st)
            };
            let Some(region) = found else {
                return false;
            };
            // The region can drain between scan and claim; rescan if so —
            // each retry observes a region some other thread just emptied,
            // so the loop terminates.
            if let Some(i) = region.claim() {
                region.run(i);
                return true;
            }
        }
    }

    fn worker_loop(&'static self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match Self::scan(&st) {
                Some(region) => {
                    drop(st);
                    // Claim one task, then rescan: a latency-critical
                    // region published mid-sweep preempts further claims
                    // from a bulk region at task granularity.
                    if let Some(i) = region.claim() {
                        region.run(i);
                    }
                    drop(region);
                    st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// run_tasks — the single entry point every sweep uses
// ---------------------------------------------------------------------------

/// Runs `tasks` to completion and returns their outputs in task order.
///
/// This is the one parallel primitive in the workspace: every former
/// `thread::scope` sweep builds its per-worker closures (typically
/// `min(workers, items)` of them, pulling item chunks from a shared
/// [`IndexQueue`]) and hands them here. `workers` is the parallelism the
/// caller wants: it sizes the persistent pool's help (`workers - 1` pool
/// threads; the calling thread always executes tasks too). Outputs are
/// slotted by task index, so results are independent of which thread ran
/// what.
///
/// With `workers <= 1` or fewer than two tasks the tasks run inline on
/// the calling thread, in order — the serial path costs no allocation,
/// no locks and no pool wakeup.
///
/// If a task panics, the first panic in task order is resumed on the
/// calling thread after all tasks settle, mirroring the serial behaviour.
#[must_use]
pub fn run_tasks<'env, T: Send + 'env>(
    workers: usize,
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
) -> Vec<T> {
    run_tasks_prio(workers, Priority::Normal, tasks)
}

/// [`run_tasks`] with an explicit injector [`Priority`] for the region.
/// Bulk grid sweeps tag themselves [`Priority::Bulk`] so freed pool
/// threads drain latency-critical regions first; results are identical at
/// every priority.
#[must_use]
pub fn run_tasks_prio<'env, T: Send + 'env>(
    workers: usize,
    priority: Priority,
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
) -> Vec<T> {
    if workers <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    run_tasks_steal(workers, priority, tasks)
}

/// The persistent-pool path.
fn run_tasks_steal<'env, T: Send + 'env>(
    workers: usize,
    priority: Priority,
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
) -> Vec<T> {
    let n = tasks.len();
    let outputs: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let region = {
        let mut erased: Vec<ErasedTask> = Vec::with_capacity(n);
        for (k, task) in tasks.into_iter().enumerate() {
            let out = &outputs;
            let f: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = task();
                out.lock().unwrap_or_else(PoisonError::into_inner)[k] = Some(r);
            });
            // SAFETY: lifetime erasure only. The closure borrows `outputs`
            // and whatever `task` captured from the caller's frame
            // (`'env`). Every erased task is consumed — executed or
            // panicked-and-recorded — before `wait_settled` returns below,
            // and the region is retired from the pool registry before this
            // function returns, so no pool thread can observe the closure
            // after `'env` ends. Pool threads may briefly hold the
            // region `Arc` after settlement, but by then every task slot
            // is `None` and the region contains no borrowed data.
            let f: ErasedTask = unsafe { std::mem::transmute::<_, ErasedTask>(f) };
            erased.push(f);
        }
        Arc::new(Region::new(erased, priority))
    };

    let pool = Pool::get();
    pool.submit(Arc::clone(&region), workers.saturating_sub(1));
    // The caller is always a worker: even with an empty pool the region
    // completes, which is what makes nested `run_tasks` deadlock-free.
    while let Some(i) = region.claim() {
        region.run(i);
    }
    region.wait_settled();
    pool.retire(&region);

    if let Some((_, payload)) = region
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        resume_unwind(payload);
    }
    outputs
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|o| o.expect("settled task produced no output"))
        .collect()
}

/// Builds `workers` uniform worker closures (via `make`, called with each
/// worker's serial position) and runs them as one task batch at the given
/// injector [`Priority`]. This is the common shape for sweeps whose workers
/// all run the same loop over a shared [`IndexQueue`]: it hides the
/// `Box<dyn FnOnce>` ceremony [`run_tasks`] needs from heterogeneous call
/// sites.
#[must_use]
pub fn run_workers_prio<'env, T, F, M>(workers: usize, priority: Priority, mut make: M) -> Vec<T>
where
    T: Send + 'env,
    F: FnOnce() -> T + Send + 'env,
    M: FnMut(usize) -> F,
{
    let tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>> = (0..workers)
        .map(|w| Box::new(make(w)) as Box<dyn FnOnce() -> T + Send + 'env>)
        .collect();
    run_tasks_prio(workers, priority, tasks)
}

/// Convenience for the ubiquitous "fan `0..len` items across `workers`
/// with chunked claiming" shape: runs `work(range)` for every claimed
/// chunk on each of `min(workers, len)` tasks and returns the per-task
/// outputs (task order). `make_worker` is called once per task with the
/// task's serial position to build per-worker state.
#[must_use]
pub fn run_chunked<T, W, F>(
    workers: usize,
    len: usize,
    mut make_worker: W,
    work: F,
) -> Vec<T>
where
    T: Send,
    W: FnMut(usize) -> T,
    F: Fn(&mut T, Range<usize>) + Sync,
{
    let workers = workers.min(len).max(1);
    let queue = IndexQueue::new(len, workers);
    let queue = &queue;
    let work = &work;
    let tasks: Vec<Box<dyn FnOnce() -> T + Send + '_>> = (0..workers)
        .map(|w| {
            let mut state = make_worker(w);
            let f: Box<dyn FnOnce() -> T + Send + '_> = Box::new(move || {
                while let Some(range) = queue.claim() {
                    work(&mut state, range);
                }
                state
            });
            f
        })
        .collect();
    run_tasks(workers, tasks)
}

// ---------------------------------------------------------------------------
// DagBuilder — pool-native completion-count DAGs
// ---------------------------------------------------------------------------

/// A handle to a task spawned on a [`DagBuilder`], used to declare
/// dependency edges. Handles only exist for already-spawned tasks, so
/// every edge points backwards and the graph is acyclic by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskHandle(usize);

impl TaskHandle {
    /// The node's index — also its output slot in [`DagBuilder::run`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

struct DagNode<'env, T> {
    body: Box<dyn FnOnce() -> T + Send + 'env>,
    deps: Vec<usize>,
    priority: Priority,
}

/// A batch of tasks with explicit completion-count dependency edges,
/// executed with pool-native unblocking: the task that settles the last
/// dependency of node `d` submits `d` to the injector itself (at `d`'s
/// [`Priority`]), so an unblocked node starts the moment its inputs exist
/// instead of at a chain-level barrier.
///
/// Execution is as deterministic as [`run_tasks`]: outputs land in spawn
/// order, the serial path (`workers <= 1` or a single node) runs nodes
/// inline in (priority, spawn-order) topological order, and the first
/// panic in spawn order is resumed on the calling thread after every node
/// settles. Nodes communicate values along edges through caller-frame
/// slots (e.g. `Mutex<Option<V>>`); a dependency edge is exactly the
/// happens-before the read needs.
pub struct DagBuilder<'env, T: Send + 'env> {
    nodes: Vec<DagNode<'env, T>>,
}

impl<'env, T: Send + 'env> Default for DagBuilder<'env, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'env, T: Send + 'env> DagBuilder<'env, T> {
    /// An empty DAG.
    #[must_use]
    pub fn new() -> Self {
        DagBuilder { nodes: Vec::new() }
    }

    /// Number of spawned nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been spawned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Spawns a root node (no dependencies).
    pub fn spawn<F>(&mut self, priority: Priority, body: F) -> TaskHandle
    where
        F: FnOnce() -> T + Send + 'env,
    {
        self.spawn_dependent(priority, &[], body)
    }

    /// Spawns a node that may only start after every task in `deps` has
    /// completed. Completion of the last dependency submits this node to
    /// the pool injector at `priority`.
    pub fn spawn_dependent<F>(
        &mut self,
        priority: Priority,
        deps: &[TaskHandle],
        body: F,
    ) -> TaskHandle
    where
        F: FnOnce() -> T + Send + 'env,
    {
        let index = self.nodes.len();
        for d in deps {
            assert!(d.0 < index, "dependency handle from a different DAG");
        }
        self.nodes.push(DagNode {
            body: Box::new(body),
            deps: deps.iter().map(|d| d.0).collect(),
            priority,
        });
        TaskHandle(index)
    }

    /// Runs the DAG to completion and returns node outputs in spawn order.
    #[must_use]
    pub fn run(self, workers: usize) -> Vec<T> {
        let n = self.nodes.len();
        if n == 0 {
            return Vec::new();
        }
        if workers <= 1 || n == 1 {
            return run_dag_serial(self.nodes);
        }
        run_dag_steal(self.nodes, workers)
    }
}

/// Builds the reverse edge lists and initial pending-dependency counts.
fn dag_edges<T>(nodes: &[DagNode<'_, T>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut dependents = vec![Vec::new(); nodes.len()];
    let mut pending = vec![0usize; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        pending[i] = node.deps.len();
        for &d in &node.deps {
            dependents[d].push(i);
        }
    }
    (dependents, pending)
}

/// Position of the next node to run from `ready`: highest priority, then
/// lowest spawn index — the same rule the parallel paths use to order
/// their ready queues, so the serial path is the canonical linearisation.
fn dag_pick(ready: &[usize], priorities: &[Priority]) -> Option<usize> {
    ready
        .iter()
        .enumerate()
        .min_by_key(|(_, &i)| (priorities[i].rank(), i))
        .map(|(pos, _)| pos)
}

/// Inline execution in (priority, spawn-order) topological order; panics
/// propagate directly, mirroring [`run_tasks`]'s serial path.
fn run_dag_serial<'env, T: Send + 'env>(nodes: Vec<DagNode<'env, T>>) -> Vec<T> {
    let (dependents, mut pending) = dag_edges(&nodes);
    let priorities: Vec<Priority> = nodes.iter().map(|n| n.priority).collect();
    let n = nodes.len();
    let mut bodies: Vec<Option<Box<dyn FnOnce() -> T + Send + 'env>>> =
        nodes.into_iter().map(|node| Some(node.body)).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    while let Some(pos) = dag_pick(&ready, &priorities) {
        let i = ready.swap_remove(pos);
        let body = bodies[i].take().expect("node runs once");
        out[i] = Some(body());
        for &d in &dependents[i] {
            pending[d] -= 1;
            if pending[d] == 0 {
                ready.push(d);
            }
        }
    }
    out.into_iter()
        .map(|o| o.expect("acyclic DAG settles every node"))
        .collect()
}

/// Shared coordination state for the parallel DAG path.
struct DagState {
    ready: Vec<usize>,
    pending: Vec<usize>,
    /// Nodes handed to an executor (or cancelled); used to settle
    /// never-started nodes exactly once when a panic cancels the DAG.
    started: Vec<bool>,
    /// Nodes not yet settled (run, panicked, or cancelled).
    remaining: usize,
    /// First panic payload by node index.
    panic: Option<(usize, Box<dyn Any + Send>)>,
    cancelled: bool,
}

impl DagState {
    fn new(pending: Vec<usize>) -> Self {
        let n = pending.len();
        let ready = (0..n).filter(|&i| pending[i] == 0).collect();
        DagState {
            ready,
            pending,
            started: vec![false; n],
            remaining: n,
            panic: None,
            cancelled: false,
        }
    }

    /// Records a panic from node `i` and cancels every node that has not
    /// started: their dependencies will never settle, so they are marked
    /// settled here or `remaining` would never reach zero.
    fn record_panic(&mut self, i: usize, payload: Box<dyn Any + Send>) {
        if self.panic.as_ref().is_none_or(|(j, _)| i < *j) {
            self.panic = Some((i, payload));
        }
        self.cancelled = true;
        self.ready.clear();
        for j in 0..self.started.len() {
            if !self.started[j] {
                self.started[j] = true;
                self.remaining -= 1;
            }
        }
    }

    /// Settles node `i` after a successful run and returns the dependents
    /// it unblocked.
    fn settle_ok(&mut self, i: usize, dependents: &[Vec<usize>]) -> Vec<usize> {
        self.remaining -= 1;
        let mut unblocked = Vec::new();
        if !self.cancelled {
            for &d in &dependents[i] {
                self.pending[d] -= 1;
                if self.pending[d] == 0 {
                    unblocked.push(d);
                }
            }
        }
        unblocked
    }
}

/// One-shot DAG node bodies, each taken under its mutex exactly once.
type DagBodies<'env, T> = Vec<Mutex<Option<Box<dyn FnOnce() -> T + Send + 'env>>>>;

/// Pool-native DAG execution: every node is its own single-task region at
/// the node's priority, and the thread that settles the last dependency of
/// node `d` submits `d`'s region itself. No coordinator blocks: pool
/// threads between DAG nodes serve whatever other regions exist (the
/// nodes' own nested sweeps included), and the calling thread helps
/// through [`Pool::try_run_one`] until the DAG settles.
fn run_dag_steal<'env, T: Send + 'env>(nodes: Vec<DagNode<'env, T>>, workers: usize) -> Vec<T> {
    struct Shared<'env, T: Send + 'env> {
        bodies: DagBodies<'env, T>,
        outputs: Mutex<Vec<Option<T>>>,
        dependents: Vec<Vec<usize>>,
        priorities: Vec<Priority>,
        state: Mutex<DagState>,
        done_cv: Condvar,
        regions: Mutex<Vec<Arc<Region>>>,
        helpers: usize,
    }

    /// Executes node `i`: runs the body, settles it, and submits every
    /// dependent whose pending count reached zero.
    fn exec_node<'env, T: Send + 'env>(shared: &Shared<'env, T>, i: usize) {
        let body = shared.bodies[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("node runs once");
        let result = catch_unwind(AssertUnwindSafe(body));
        let unblocked = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            match result {
                Ok(v) => {
                    shared.outputs.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(v);
                    let unblocked = st.settle_ok(i, &shared.dependents);
                    for &d in &unblocked {
                        st.started[d] = true;
                    }
                    unblocked
                }
                Err(payload) => {
                    st.remaining -= 1;
                    st.record_panic(i, payload);
                    Vec::new()
                }
            }
        };
        for d in unblocked {
            submit_node(shared, d);
        }
        shared.done_cv.notify_all();
    }

    /// Publishes node `d` as a single-task region at its priority.
    fn submit_node<'env, T: Send + 'env>(shared: &Shared<'env, T>, d: usize) {
        let f: Box<dyn FnOnce() + Send + '_> = Box::new(move || exec_node(shared, d));
        // SAFETY: lifetime erasure only, with the same protocol as
        // `run_tasks_steal`: `run_dag_steal` does not return until every
        // node settles (the `done_cv` wait below), each erased closure is
        // consumed by then, and all node regions are retired from the pool
        // registry before `Shared` leaves scope.
        let f: ErasedTask = unsafe { std::mem::transmute::<_, ErasedTask>(f) };
        let region = Arc::new(Region::new(vec![f], shared.priorities[d]));
        shared
            .regions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&region));
        Pool::get().submit(region, shared.helpers);
    }

    let (dependents, pending) = dag_edges(&nodes);
    let priorities: Vec<Priority> = nodes.iter().map(|n| n.priority).collect();
    let n = nodes.len();
    let shared = Shared {
        bodies: nodes
            .into_iter()
            .map(|node| Mutex::new(Some(node.body)))
            .collect(),
        outputs: Mutex::new((0..n).map(|_| None).collect()),
        dependents,
        priorities,
        state: Mutex::new(DagState::new(pending)),
        done_cv: Condvar::new(),
        regions: Mutex::new(Vec::new()),
        helpers: workers.saturating_sub(1),
    };

    let roots: Vec<usize> = {
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        let roots = std::mem::take(&mut st.ready);
        for &i in &roots {
            st.started[i] = true;
        }
        roots
    };
    for i in roots {
        submit_node(&shared, i);
    }

    // The caller is always a worker: it drains DAG nodes and any other
    // region (nested sweeps) until the DAG settles, so even an otherwise
    // saturated pool makes progress — the nesting argument of
    // `run_tasks_steal` carried over.
    let pool = Pool::get();
    loop {
        {
            let st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.remaining == 0 {
                break;
            }
        }
        if !pool.try_run_one() {
            let st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.remaining == 0 {
                break;
            }
            // Timed wait: a nested sweep published after the scan above
            // notifies the pool, not `done_cv`, so don't sleep through it.
            let (st, _) = shared
                .done_cv
                .wait_timeout(st, std::time::Duration::from_millis(2))
                .unwrap_or_else(PoisonError::into_inner);
            drop(st);
        }
    }

    for region in shared
        .regions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
    {
        region.wait_settled();
        pool.retire(&region);
    }

    if let Some((_, payload)) = shared
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .panic
        .take()
    {
        resume_unwind(payload);
    }
    shared
        .outputs
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|o| o.expect("settled node produced no output"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envcfg::force_worker_cap;

    fn boxed<'env, T: Send + 'env>(
        fs: Vec<impl FnOnce() -> T + Send + 'env>,
    ) -> Vec<Box<dyn FnOnce() -> T + Send + 'env>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> T + Send + 'env>)
            .collect()
    }

    #[test]
    fn outputs_land_in_task_order() {
        let tasks = boxed((0..37).map(|k| move || k * k).collect::<Vec<_>>());
        let out = run_tasks(8, tasks);
        assert_eq!(out, (0..37).map(|k| k * k).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        let tasks = boxed(
            (0..5)
                .map(|k| {
                    let order = &order;
                    move || {
                        order.lock().unwrap().push(k);
                        k
                    }
                })
                .collect::<Vec<_>>(),
        );
        let out = run_tasks(1, tasks);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn borrows_from_callers_frame() {
        let data: Vec<usize> = (0..1000).collect();
        let slice = &data[..];
        let tasks = boxed(
            (0..4)
                .map(|w| move || slice.iter().skip(w).step_by(4).sum::<usize>())
                .collect::<Vec<_>>(),
        );
        let out = run_tasks(4, tasks);
        assert_eq!(out.iter().sum::<usize>(), 1000 * 999 / 2);
    }

    #[test]
    fn nested_run_tasks_completes() {
        let tasks = boxed(
            (0..4)
                .map(|outer| {
                    move || {
                        let inner = (0..4)
                            .map(|k| {
                                let f: Box<dyn FnOnce() -> usize + Send> =
                                    Box::new(move || outer * 10 + k);
                                f
                            })
                            .collect::<Vec<_>>();
                        run_tasks(4, inner).into_iter().sum::<usize>()
                    }
                })
                .collect::<Vec<_>>(),
        );
        let out = run_tasks(4, tasks);
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn panic_propagates_lowest_task_index_first() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks = boxed(
                (0..8)
                    .map(|k| {
                        move || {
                            if k % 2 == 1 {
                                panic!("task {k}");
                            }
                            k
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            run_tasks(4, tasks)
        }));
        let payload = result.expect_err("a task panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        // All tasks settled; the recorded panic is a real task panic.
        assert!(msg.starts_with("task "), "unexpected payload {msg:?}");
    }

    #[test]
    fn index_queue_claims_cover_range_in_order() {
        let q = IndexQueue::with_chunk(103, 10);
        let mut seen = Vec::new();
        let mut last_start = 0;
        while let Some(r) = q.claim() {
            assert!(r.start >= last_start, "chunk starts must be monotonic");
            last_start = r.start;
            seen.extend(r);
        }
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
        assert!(q.claim().is_none());
    }

    #[test]
    fn run_chunked_is_deterministic_across_worker_counts() {
        let _cap = force_worker_cap(usize::MAX);
        let serial = run_chunked(1, 257, |_| Vec::new(), |out: &mut Vec<(usize, usize)>, r| {
            for k in r {
                out.push((k, k * 3));
            }
        });
        let merge = |parts: Vec<Vec<(usize, usize)>>| {
            let mut slots = vec![0usize; 257];
            for (k, v) in parts.into_iter().flatten() {
                slots[k] = v;
            }
            slots
        };
        let expect = merge(serial);
        for workers in [2usize, 4, 8] {
            let parts = run_chunked(workers, 257, |_| Vec::new(), |out, r| {
                for k in r {
                    out.push((k, k * 3));
                }
            });
            assert_eq!(merge(parts), expect, "workers={workers}");
        }
    }

    #[test]
    fn region_scan_honours_priority_then_submission_order() {
        let regions = [
            (Priority::Bulk, false),
            (Priority::Normal, false),
            (Priority::High, false),
            (Priority::High, false),
        ];
        // The oldest High region wins.
        assert_eq!(pick_region_slot(&regions), Some(2));
        // Drained regions are skipped.
        let drained_high = [
            (Priority::High, true),
            (Priority::Bulk, false),
            (Priority::Normal, false),
        ];
        assert_eq!(pick_region_slot(&drained_high), Some(2));
        // Nothing to serve.
        assert_eq!(pick_region_slot(&[(Priority::High, true)]), None);
        assert_eq!(pick_region_slot(&[]), None);
    }

    #[test]
    fn dag_outputs_land_in_spawn_order() {
        let _cap = force_worker_cap(usize::MAX);
        for workers in [1usize, 2, 4, 8] {
            let mut dag: DagBuilder<'_, usize> = DagBuilder::new();
            let mut handles = Vec::new();
            for k in 0..13 {
                let deps: Vec<TaskHandle> = if k >= 2 {
                    vec![handles[k - 1], handles[k - 2]]
                } else {
                    Vec::new()
                };
                let prio = match k % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Bulk,
                };
                handles.push(dag.spawn_dependent(prio, &deps, move || k * k));
            }
            let out = dag.run(workers);
            assert_eq!(
                out,
                (0..13).map(|k| k * k).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn dag_completion_counts_gate_dependents() {
        let _cap = force_worker_cap(usize::MAX);
        let slot_a: Mutex<Option<usize>> = Mutex::new(None);
        let slot_b: Mutex<Option<usize>> = Mutex::new(None);
        let mut dag: DagBuilder<'_, ()> = DagBuilder::new();
        let a = dag.spawn(Priority::Normal, || {
            *slot_a.lock().unwrap() = Some(7);
        });
        let b = dag.spawn(Priority::Bulk, || {
            *slot_b.lock().unwrap() = Some(35);
        });
        // The join node must observe both inputs: the completion count is
        // the happens-before edge.
        let joined: Mutex<Option<usize>> = Mutex::new(None);
        let _c = dag.spawn_dependent(Priority::High, &[a, b], || {
            let x = slot_a.lock().unwrap().expect("dep A settled");
            let y = slot_b.lock().unwrap().expect("dep B settled");
            *joined.lock().unwrap() = Some(x + y);
        });
        let _ = dag.run(4);
        assert_eq!(*joined.lock().unwrap(), Some(42));
    }

    #[test]
    fn dag_serial_path_runs_priority_then_spawn_order() {
        let order: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let mut dag: DagBuilder<'_, ()> = DagBuilder::new();
        let push = |name: &'static str| {
            let order = &order;
            move || order.lock().unwrap().push(name)
        };
        let bulk = dag.spawn(Priority::Bulk, push("bulk"));
        let _normal = dag.spawn(Priority::Normal, push("normal"));
        let _high = dag.spawn(Priority::High, push("high"));
        // Not ready until `bulk` settles — and `bulk`, being the lowest
        // class, runs last among the roots, so this lands at the end
        // despite its High class.
        let _tail = dag.spawn_dependent(Priority::High, &[bulk], push("tail"));
        let _ = dag.run(1);
        assert_eq!(*order.lock().unwrap(), vec!["high", "normal", "bulk", "tail"]);
    }

    #[test]
    fn dag_panic_cancels_dependents_and_propagates() {
        let _cap = force_worker_cap(usize::MAX);
        let ran_dependent = Mutex::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut dag: DagBuilder<'_, ()> = DagBuilder::new();
            let boom = dag.spawn(Priority::Normal, || panic!("node failed"));
            let _dep = dag.spawn_dependent(Priority::Normal, &[boom], || {
                *ran_dependent.lock().unwrap() = true;
            });
            dag.run(4)
        }));
        let payload = result.expect_err("DAG node panicked");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "node failed");
        assert!(!*ran_dependent.lock().unwrap());
    }

    #[test]
    fn pool_really_runs_concurrently() {
        use std::sync::atomic::AtomicBool;
        let _cap = force_worker_cap(usize::MAX);
        // Two tasks that can only finish if they run at the same time.
        let a = AtomicBool::new(false);
        let b = AtomicBool::new(false);
        let spin = |mine: &AtomicBool, theirs: &AtomicBool| {
            mine.store(true, Ordering::SeqCst);
            let start = std::time::Instant::now();
            while !theirs.load(Ordering::SeqCst) {
                if start.elapsed().as_secs() > 10 {
                    panic!("peer task never started — pool not concurrent");
                }
                std::hint::spin_loop();
            }
            true
        };
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send + '_>> = vec![
            Box::new(|| spin(&a, &b)),
            Box::new(|| spin(&b, &a)),
        ];
        assert_eq!(run_tasks(2, tasks), vec![true, true]);
    }
}
