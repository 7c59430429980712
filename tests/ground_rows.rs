//! `GroundSpace` keeps its states as parent-linked rows (§4.2: every ground
//! state term past an initial constant is an update applied to an earlier
//! state). Checked against the tree-level reference `induction::state_terms`
//! on the paper domains and on factory specs, at depths 0–3: each row
//! rebuilds the reference tree at the same index, and interning a row as one
//! application over its parent's id gives the id of the interned reference
//! tree, whether or not the parent's id is cached yet.

use eclectic::algebraic::induction::{self, GroundSpace, StateIds};
use eclectic::algebraic::{AlgSpec, Rewriter};
use eclectic::spec::domains::{bank, courses, library, BankConfig, CoursesConfig, LibraryConfig};
use eclectic::spec::fuzz::{build_domain, FuzzConfig};

fn check(label: &str, spec: &AlgSpec) {
    let sig = spec.signature();
    for depth in 0..=3 {
        let reference = induction::state_terms(sig, depth).unwrap();
        let space = GroundSpace::new(sig, depth).unwrap();
        assert_eq!(
            space.states().len(),
            reference.len(),
            "{label} depth {depth}"
        );
        for (i, t) in reference.iter().enumerate() {
            assert_eq!(&space.state_term(i), t, "{label} depth {depth} state {i}");
        }
        // Backwards first, so each state interns its uncached ancestors;
        // then forwards with fresh ids, so each parent is cached before its
        // children ask for it.
        let mut rw = Rewriter::new(spec);
        let mut ids = StateIds::default();
        for (i, t) in reference.iter().enumerate().rev() {
            let by_row = space.state_id(&mut rw, &mut ids, i);
            assert_eq!(by_row, rw.intern(t), "{label} depth {depth} state {i}");
        }
        let nodes = rw.store().len();
        let mut ids = StateIds::default();
        for (i, t) in reference.iter().enumerate() {
            let by_row = space.state_id(&mut rw, &mut ids, i);
            assert_eq!(by_row, rw.intern(t), "{label} depth {depth} state {i}");
        }
        assert_eq!(
            rw.store().len(),
            nodes,
            "{label} depth {depth}: nothing new"
        );
    }
}

#[test]
fn state_rows_rebuild_and_intern_the_paper_domains_state_terms() {
    check(
        "courses",
        &courses(&CoursesConfig::default()).unwrap().functions,
    );
    check(
        "library",
        &library(&LibraryConfig::default()).unwrap().functions,
    );
    check("bank", &bank(&BankConfig::default()).unwrap().functions);
}

#[test]
fn state_rows_rebuild_and_intern_the_factory_state_terms() {
    let fuzz = FuzzConfig::default();
    for seed in 0..8 {
        let spec = build_domain(seed, &fuzz).unwrap();
        check(&format!("factory seed {seed}"), &spec.functions);
    }
}
