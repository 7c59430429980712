//! `ECLECTIC_THREADS` is read only at the top, by `spec::verify` and
//! `fuzz::run_corpus`. Below them every sweep runs at the worker count its
//! caller passes, or at one worker when it takes none, whatever the
//! environment says: a 1-worker verification and the temporal closure must
//! start no scheduler thread even with `ECLECTIC_THREADS=8` set and the
//! host-core cap lifted.
//!
//! Kept in its own integration-test binary, like
//! `crates/core/tests/worker_cap.rs`: the scheduler pool is process-global
//! and only grows, so a test that starts pool workers would leave them
//! behind for the count below.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use eclectic::logic::{Domains, Elem, Signature, Structure};
use eclectic::spec::domains::courses;
use eclectic::spec::{verify_with_threads, VerifyConfig};
use eclectic::temporal::Universe;
use eclectic_kernel::force_worker_cap;

/// The number of this process's threads named `eclectic-sched`.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task directory")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "eclectic-sched")
        .count()
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
    let outcome = verify_with_threads(&spec, &VerifyConfig::quick(), 1).unwrap();
    assert!(outcome.is_correct(), "{}", outcome.report);
    assert_eq!(
        pool_threads(),
        0,
        "scheduler threads after a 1-worker verify"
    );

    let mut u = chain_universe();
    assert_eq!(u.state_count(), 256);
    u.close_reflexive_transitive();
    assert_eq!(u.edge_count(), 256 * 257 / 2, "the chain's closure");
    assert_eq!(
        pool_threads(),
        0,
        "scheduler threads after closing 256 states"
    );
}
