//! `ECLECTIC_THREADS` is read only at the top, by `spec::verify` and
//! `fuzz::run_corpus`. Below them every sweep runs at the worker count its
//! caller passes, or at one worker when it takes none, whatever the
//! environment says: a 1-worker verification and the temporal closure must
//! start no scheduler thread even with `ECLECTIC_THREADS=8` set and the
//! host-core cap lifted.
//!
//! Scheduler threads live only while the call that started them runs, so
//! a second thread samples `/proc/self/task` during each call and the test
//! checks the most `eclectic-sched` threads seen at once. A 2-worker verify
//! under the same settings is the positive control: the sampler must see
//! its thread. It runs first, so a thread that outlived it would also be
//! counted below. Kept in its own integration-test binary, like
//! `crates/core/tests/worker_cap.rs`, so no other test's threads are
//! counted.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eclectic::logic::{Domains, Elem, Signature, Structure};
use eclectic::spec::domains::courses;
use eclectic::spec::{verify_with_threads, VerifyConfig};
use eclectic::temporal::Universe;
use eclectic_kernel::force_worker_cap;

/// The number of this process's threads named `eclectic-sched`.
fn sched_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task directory")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "eclectic-sched")
        .count()
}

/// Runs `f` while a second thread samples the scheduler threads; returns
/// its result and the most threads seen at once.
fn with_peak_sched_threads<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(sched_threads());
            }
            peak
        });
        let r = f();
        done.store(true, Ordering::SeqCst);
        (r, sampler.join().expect("the sampler thread"))
    })
}

/// A chain universe over every subset of an 8-element carrier for one
/// unary predicate: 256 states, state `i` holding the elements of the bits
/// of `i`, with an edge from each state to the next.
fn chain_universe() -> Universe {
    let mut sig = Signature::new();
    let elem = sig.add_sort("elem").unwrap();
    let marked = sig.add_db_predicate("marked", &[elem]).unwrap();
    let names = ["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"];
    let dom = Domains::from_names(&sig, &[("elem", &names)]).unwrap();
    let (sig, dom) = (Arc::new(sig), Arc::new(dom));
    let mut u = Universe::new(sig.clone(), dom.clone());
    let mut prev = None;
    for subset in 0u32..256 {
        let mut st = Structure::new(sig.clone(), dom.clone());
        for bit in (0..8).filter(|b| subset & (1 << b) != 0) {
            st.insert_pred(marked, vec![Elem(bit)]).unwrap();
        }
        let (idx, fresh) = u.add_state(st).unwrap();
        assert!(fresh);
        if let Some(p) = prev {
            u.add_edge(p, idx);
        }
        prev = Some(idx);
    }
    u
}

#[test]
fn explicit_and_implicit_single_worker_sweeps_ignore_eclectic_threads() {
    let _cap = force_worker_cap(usize::MAX);
    std::env::set_var("ECLECTIC_THREADS", "8");
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let verify = |workers| {
        let (outcome, seen) = with_peak_sched_threads(|| {
            verify_with_threads(&spec, &VerifyConfig::quick(), workers).unwrap()
        });
        assert!(outcome.is_correct(), "{}", outcome.report);
        seen
    };

    assert!(
        verify(2) >= 1,
        "no scheduler thread seen in a 2-worker verify"
    );
    assert_eq!(verify(1), 0, "scheduler threads during a 1-worker verify");

    let mut u = chain_universe();
    assert_eq!(u.state_count(), 256);
    let ((), seen) = with_peak_sched_threads(|| u.close_reflexive_transitive());
    assert_eq!(u.edge_count(), 256 * 257 / 2, "the chain's closure");
    assert_eq!(seen, 0, "scheduler threads while closing 256 states");
}
