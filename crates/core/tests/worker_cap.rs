//! `verify_with_threads` caps its worker count at the host's parallelism,
//! like every sweep: a request for 64 workers must not start more
//! scheduler threads than the host has cores.
//!
//! Scheduler threads live only while the call that started them runs, so
//! a second thread samples `/proc/self/task` during the call and the test
//! checks the most `eclectic-sched` threads seen at once. A 2-worker verify
//! with the cap lifted is the positive control: the sampler must see its
//! thread. Kept in its own integration-test binary, so no other test's
//! threads are counted.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};

use eclectic_kernel::force_worker_cap;
use eclectic_spec::domains::courses;
use eclectic_spec::{verify_with_threads, TriLevelSpec, VerifyConfig};

/// The number of this process's threads named `eclectic-sched`.
fn sched_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task directory")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "eclectic-sched")
        .count()
}

/// Verifies `spec` with `workers` workers while a second thread samples the
/// scheduler threads; returns the most seen at once.
fn peak_sched_threads(spec: &TriLevelSpec, workers: usize) -> usize {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(sched_threads());
            }
            peak
        });
        let outcome = verify_with_threads(spec, &VerifyConfig::quick(), workers).unwrap();
        done.store(true, Ordering::SeqCst);
        assert!(outcome.is_correct(), "{}", outcome.report);
        sampler.join().expect("the sampler thread")
    })
}

#[test]
fn verify_caps_requested_workers_at_host_parallelism() {
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    {
        let _cap = force_worker_cap(usize::MAX);
        let seen = peak_sched_threads(&spec, 2);
        assert!(seen >= 1, "no scheduler thread seen in a 2-worker verify");
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let seen = peak_sched_threads(&spec, 64);
    assert!(
        seen < cores,
        "{seen} scheduler threads during a 64-worker verify on a {cores}-core host"
    );
}
