//! The deterministic work-stealing scheduler: one persistent FIFO worker
//! pool driving every parallel grain in the workspace.
//!
//! # The four grains
//!
//! Parallelism lives at the level of proof obligations, never inside one
//! relation or term operation. Exactly four call sites submit work:
//!
//! - the five obligation chains of `core::verify` ([`run_tasks`]);
//! - the sufficient-completeness strips of
//!   `algebraic::completeness` ([`run_workers`]);
//! - the per-procedure dynamic-logic units of
//!   `refine::check_dynamic_budget` ([`run_tasks`]);
//! - the fuzz corpus of `core::fuzz::run_corpus` ([`run_tasks`]).
//!
//! Tasks from all of them land in one region list served by one
//! lazily-grown pool, so the completeness strips and dynamic units nested
//! inside the battery's chains interleave with the other obligations on
//! the same threads. Reachability exploration, the cross-level check, PDL
//! denotation and the relation kernels run on their caller's thread:
//! measured on the paper domains, splitting them across workers lost to
//! the serial search.
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
//! # FIFO regions and the waiting rule
//!
//! Each [`run_tasks`] call publishes its tasks as one *region*. A thread
//! looking for work serves the oldest region that still has an unclaimed
//! task, and looks again after every task. The caller claims its own
//! region's tasks first; once all are claimed but some still run on other
//! threads, it runs tasks from any region until its own settles, and parks
//! on the pool condvar only when no region has a task left to claim. The
//! task that settles a region's last slot notifies that condvar under the
//! pool lock, so the wake-up cannot be lost. A waiting caller therefore
//! never sleeps while work it depends on sits unclaimed — say, a nested
//! region opened by one of its own tasks on another thread.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// Count of settled tasks (executed, or panicked-and-recorded). A task
    /// stores its output and any panic payload before its `AcqRel`
    /// increment; the `Acquire` load in [`Region::is_settled`] pairs with
    /// it, so a submitter that reads the full count sees every output.
    settled: AtomicUsize,
    /// First panic payload by task index — replayed to the submitter so a
    /// panicking sweep behaves like its serial equivalent.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Region {
    fn new(tasks: Vec<ErasedTask>) -> Self {
        Region {
            tasks: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            next: AtomicUsize::new(0),
            settled: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    /// Whether every task has been claimed (not necessarily finished).
    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks.len()
    }

    /// Whether every task has settled.
    fn is_settled(&self) -> bool {
        self.settled.load(Ordering::Acquire) >= self.tasks.len()
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
        if self.settled.fetch_add(1, Ordering::AcqRel) + 1 == self.tasks.len() {
            // The submitter checks `settled` while holding the pool lock,
            // so under that lock it has either seen this count or is
            // already parked when the notification lands.
            let pool = Pool::get();
            let _st = pool.lock();
            pool.work_cv.notify_all();
        }
    }
}

struct PoolState {
    /// Active regions in submission order; threads serve the oldest one
    /// with unclaimed work. This is the cross-stage sharing: a thread that
    /// drains one sweep's tasks immediately steals from whatever sweep is
    /// still running.
    regions: VecDeque<Arc<Region>>,
    /// Threads ever spawned (persistent; they park when idle).
    threads: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a region is published and when a region settles.
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

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a region and grows the pool toward `helpers` threads.
    fn submit(&'static self, region: Arc<Region>, helpers: usize) {
        let mut st = self.lock();
        st.regions.push_back(region);
        let want = helpers.min(MAX_POOL_THREADS);
        while st.threads < want {
            st.threads += 1;
            // A pool thread serves regions for the life of the process.
            std::thread::Builder::new()
                .name("eclectic-sched".into())
                .spawn(move || drop(self.serve(|| false)))
                .expect("spawn scheduler worker");
        }
        drop(st);
        self.work_cv.notify_all();
    }

    /// Runs one task at a time from the oldest region with unclaimed work
    /// until `done` holds, parking on the condvar whenever no region has
    /// any. `done` is checked under the pool lock, which is returned held.
    fn serve(&self, done: impl Fn() -> bool) -> MutexGuard<'_, PoolState> {
        let mut st = self.lock();
        while !done() {
            match st.regions.iter().find(|r| !r.drained()).cloned() {
                Some(region) => {
                    drop(st);
                    // The region can drain between the scan and the claim;
                    // the next scan skips it.
                    if let Some(i) = region.claim() {
                        region.run(i);
                    }
                    st = self.lock();
                }
                None => {
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        st
    }
}

// ---------------------------------------------------------------------------
// run_tasks — the single entry point every sweep uses
// ---------------------------------------------------------------------------

/// Runs `tasks` to completion and returns their outputs in task order.
///
/// This is the one parallel primitive in the workspace: every sweep
/// builds its per-worker closures (typically `min(workers, items)` of
/// them, pulling item chunks from a shared [`IndexQueue`]) and hands them
/// here. `workers` is the parallelism the caller wants: it sizes the
/// persistent pool's help (`workers - 1` pool threads; the calling thread
/// always executes tasks too). Outputs are slotted by task index, so
/// results are independent of which thread ran what.
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
    if workers <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    run_tasks_steal(workers, tasks)
}

/// The persistent-pool path.
fn run_tasks_steal<'env, T: Send + 'env>(
    workers: usize,
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
            // panicked-and-recorded — before `serve` below observes the
            // region settled, and the region is retired from the pool
            // registry before this function returns, so no pool thread can
            // observe the closure after `'env` ends. Pool threads may
            // briefly hold the region `Arc` after settlement, but by then
            // every task slot is `None` and the region contains no
            // borrowed data.
            let f: ErasedTask = unsafe { std::mem::transmute::<_, ErasedTask>(f) };
            erased.push(f);
        }
        Arc::new(Region::new(erased))
    };

    let pool = Pool::get();
    pool.submit(Arc::clone(&region), workers.saturating_sub(1));
    // The caller is always a worker: even with an empty pool the region
    // completes, which is what makes nested `run_tasks` deadlock-free.
    while let Some(i) = region.claim() {
        region.run(i);
    }
    // The waiting rule: help any region until this one settles.
    let mut st = pool.serve(|| region.is_settled());
    st.regions.retain(|r| !Arc::ptr_eq(r, &region));
    drop(st);

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
/// worker's serial position) and runs them as one task batch. This is the
/// common shape for sweeps whose workers all run the same loop over a
/// shared [`IndexQueue`]: it hides the `Box<dyn FnOnce>` ceremony
/// [`run_tasks`] needs from heterogeneous call sites.
#[must_use]
pub fn run_workers<'env, T, F, M>(workers: usize, mut make: M) -> Vec<T>
where
    T: Send + 'env,
    F: FnOnce() -> T + Send + 'env,
    M: FnMut(usize) -> F,
{
    let tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>> = (0..workers)
        .map(|w| Box::new(make(w)) as Box<dyn FnOnce() -> T + Send + 'env>)
        .collect();
    run_tasks(workers, tasks)
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
