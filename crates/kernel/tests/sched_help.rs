//! The waiting rule of `kernel::sched`: a caller whose region still has
//! tasks in flight runs tasks from any region until its own settles,
//! instead of sleeping until it does.
//!
//! Kept in its own integration-test binary so that the process-global pool
//! holds exactly one helper thread. With two threads in all, the nested
//! pair below can only finish together if the outer caller, once its own
//! task is done, claims the nested task that no pool thread is free to run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use eclectic_kernel::run_tasks;

/// Spins until `flag` is set, panicking after 10 s.
fn spin_until(flag: &AtomicBool, what: &str) {
    let start = Instant::now();
    while !flag.load(Ordering::SeqCst) {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{what} never happened"
        );
        std::hint::spin_loop();
    }
}

#[test]
fn a_waiting_caller_runs_tasks_of_a_nested_region() {
    let b_started = AtomicBool::new(false);
    let c_started = AtomicBool::new(false);
    let d_started = AtomicBool::new(false);
    let outer: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
        // `a` holds its thread until `b` runs on the other one.
        Box::new(|| spin_until(&b_started, "the peer outer task")),
        // `b` opens a nested region whose two tasks wait for each other.
        Box::new(|| {
            b_started.store(true, Ordering::SeqCst);
            let nested: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {
                    c_started.store(true, Ordering::SeqCst);
                    spin_until(&d_started, "the peer nested task");
                }),
                Box::new(|| {
                    d_started.store(true, Ordering::SeqCst);
                    spin_until(&c_started, "the peer nested task");
                }),
            ];
            let _: Vec<()> = run_tasks(2, nested);
        }),
    ];
    let _: Vec<()> = run_tasks(2, outer);
}
