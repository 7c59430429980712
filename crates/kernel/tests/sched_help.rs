//! A task that opens a nested `run_tasks` call still gets its nested tasks
//! run side by side: the nested call starts a thread of its own, whatever
//! the outer call's threads are doing.
//!
//! The outer pair holds both of the outer call's threads: `a` spins until
//! `b` has started, and `b` opens a nested pair whose two tasks can only
//! finish together. With nothing shared between calls, the nested pair
//! meets on `b`'s thread and the thread the nested call starts.

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
        // `b` opens a nested call whose two tasks wait for each other.
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
