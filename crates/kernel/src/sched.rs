//! The deterministic task executor: one scoped fan-out per call, driving
//! every parallel grain in the workspace.
//!
//! # The two grains
//!
//! Parallelism lives at the level of proof obligations, never inside one
//! relation or term operation. Two call sites submit work to [`run_tasks`]:
//!
//! - the one task list of `core::verify`'s battery: its four obligation
//!   chains, then the sufficient-completeness plan and one strip per
//!   worker;
//! - the fuzz corpus of `core::fuzz::run_corpus`.
//!
//! `algebraic::completeness::exhaustive_budget` runs the same completeness
//! strips through [`run_workers`] for callers outside the battery. No call
//! nests inside another's task list, except that the fuzz corpus verifies
//! each domain at the worker count of the engine arm under test.
//! Reachability exploration, the cross-level check, the dynamic contracts,
//! PDL denotation and the relation kernels run on their caller's thread:
//! splitting them across workers either lost to the serial loop or won only
//! on shapes no benchmark workload has.
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
//! # Threads
//!
//! A [`run_tasks`] call starts at most `min(workers, tasks, 256) − 1`
//! threads named `eclectic-sched` inside a [`std::thread::scope`]; they and
//! the caller take task indices from one atomic cursor until none is left,
//! and all of them are joined before the call returns. Nothing outlives a
//! call, so tasks may borrow the caller's frame without any lifetime
//! erasure, and a nested call simply starts threads of its own.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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
        IndexQueue {
            next: AtomicUsize::new(0),
            len,
            chunk: len.div_ceil(workers.max(1) * 4).max(1),
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
}

// ---------------------------------------------------------------------------
// run_tasks — the single entry point every sweep uses
// ---------------------------------------------------------------------------

/// Hard cap on the threads of one call — a backstop far above any sane
/// `ECLECTIC_THREADS`, not a tuning knob.
const MAX_THREADS: usize = 256;

/// One task of a [`run_tasks`] batch.
type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// The threads a call with `workers` and `tasks` runs on, the caller's
/// included.
fn thread_count(workers: usize, tasks: usize) -> usize {
    workers.min(tasks).min(MAX_THREADS)
}

/// Runs `tasks` to completion and returns their outputs in task order.
///
/// This is the one parallel primitive in the workspace: every sweep
/// builds its per-worker closures (typically one per worker, pulling item
/// chunks from a shared [`IndexQueue`]) and hands them here. `workers` is
/// the parallelism the caller wants: the calling thread and up to
/// `min(workers, tasks.len(), 256) − 1` scoped threads take task indices
/// in increasing order from one cursor. Outputs are slotted by task index,
/// so results are independent of which thread ran what. A thread that
/// fails to start leaves its share to the others.
///
/// With `workers <= 1` or fewer than two tasks the tasks run inline on
/// the calling thread, in order — the serial path starts no thread and
/// takes no lock.
///
/// If a task panics, the first panic in task order is resumed on the
/// calling thread after all tasks settle, mirroring the serial behaviour.
#[must_use]
pub fn run_tasks<'env, T: Send + 'env>(workers: usize, tasks: Vec<Task<'env, T>>) -> Vec<T> {
    let threads = thread_count(workers, tasks.len());
    if threads <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    // The cursor hands each index to one thread and publishes nothing, so
    // it is `Relaxed`: the slot's mutex hands the task over, and joining
    // the thread hands its outputs back.
    let slots: Vec<Mutex<Option<Task<'env, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut settled = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return settled;
            };
            let task = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            let task = task.expect("the cursor hands out each index once");
            settled.push((i, catch_unwind(AssertUnwindSafe(task))));
        }
    };
    let mut settled = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .map_while(|_| {
                std::thread::Builder::new()
                    .name("eclectic-sched".into())
                    .spawn_scoped(s, work)
                    .ok()
            })
            .collect();
        let mut settled = work();
        for h in helpers {
            settled.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        settled
    });
    settled.sort_unstable_by_key(|(i, _)| *i);
    settled
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(|payload| resume_unwind(payload)))
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
    let tasks: Vec<Task<'env, T>> = (0..workers)
        .map(|w| Box::new(make(w)) as Task<'env, T>)
        .collect();
    run_tasks(workers, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed<'env, T: Send + 'env>(
        fs: Vec<impl FnOnce() -> T + Send + 'env>,
    ) -> Vec<Task<'env, T>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Task<'env, T>)
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
        // All tasks settled; the first panic in task order is resumed.
        assert_eq!(msg, "task 1");
    }

    #[test]
    fn threads_are_clamped_by_workers_tasks_and_the_backstop() {
        assert_eq!(thread_count(1, 10), 1);
        assert_eq!(thread_count(8, 3), 3);
        assert_eq!(thread_count(4, 37), 4);
        assert_eq!(thread_count(100_000, 100_000), MAX_THREADS);
    }

    #[test]
    fn index_queue_claims_cover_range_in_order() {
        // Three workers: chunks of 9.
        let q = IndexQueue::new(103, 3);
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
    fn tasks_really_run_concurrently() {
        use std::sync::atomic::AtomicBool;
        // Two tasks that can only finish if they run at the same time.
        let a = AtomicBool::new(false);
        let b = AtomicBool::new(false);
        let spin = |mine: &AtomicBool, theirs: &AtomicBool| {
            mine.store(true, Ordering::SeqCst);
            let start = std::time::Instant::now();
            while !theirs.load(Ordering::SeqCst) {
                if start.elapsed().as_secs() > 10 {
                    panic!("peer task never started — tasks not concurrent");
                }
                std::hint::spin_loop();
            }
            true
        };
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send + '_>> =
            vec![Box::new(|| spin(&a, &b)), Box::new(|| spin(&b, &a))];
        assert_eq!(run_tasks(2, tasks), vec![true, true]);
    }
}
