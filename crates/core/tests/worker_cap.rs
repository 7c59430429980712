//! `verify_with_threads` caps its worker count at the host's parallelism,
//! like every sweep: a request for 64 workers must not grow the scheduler
//! pool past the cores the host has.
//!
//! Kept in its own integration-test binary because the pool is
//! process-global and grows monotonically: tests that lift the cap with
//! `force_worker_cap` would leave extra pool threads behind.

#![cfg(target_os = "linux")]

use eclectic_spec::domains::courses;
use eclectic_spec::{verify_with_threads, VerifyConfig};

/// The number of this process's threads named `eclectic-sched`.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task directory")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "eclectic-sched")
        .count()
}

#[test]
fn verify_caps_requested_workers_at_host_parallelism() {
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let outcome = verify_with_threads(&spec, &VerifyConfig::quick(), 64).unwrap();
    assert!(outcome.is_correct(), "{}", outcome.report);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = pool_threads();
    assert!(
        pool < cores,
        "{pool} scheduler threads after a 64-worker verify on a {cores}-core host"
    );
}
