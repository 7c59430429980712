//! The exhaustive completeness sweep's work, pinned (§4.1, sufficient
//! completeness): on each paper domain at depth 3, over one rewriter, the
//! ground instances evaluated, the rule applications, the memo hits and
//! misses and the store's node count are fixed numbers. They are
//! deterministic counters, so a change that speeds the sweep up by doing
//! different work (or less of it) fails here rather than showing up only as
//! a benchmark counter diff.

use eclectic::algebraic::induction::GroundSpace;
use eclectic::algebraic::{completeness, AlgSpec, Rewriter};
use eclectic::spec::domains::{bank, courses, library, BankConfig, CoursesConfig, LibraryConfig};
use eclectic_kernel::Budget;

/// What one sweep did: instances evaluated, rule applications, memo hits,
/// memo misses, store nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Work {
    evaluated: usize,
    steps: usize,
    hits: usize,
    misses: usize,
    nodes: usize,
}

/// The depth-3 sweep over one fresh rewriter, as the benchmark's traced
/// replay runs it (at most 20 stuck instances reported).
fn sweep(spec: &AlgSpec) -> Work {
    let space = GroundSpace::new(spec.signature(), 3).unwrap();
    let mut rw = Rewriter::new(spec);
    let report =
        completeness::exhaustive_budget_with(&mut rw, &space, 20, &Budget::unlimited()).unwrap();
    assert!(report.is_sufficiently_complete(), "{report:?}");
    let stats = rw.stats();
    Work {
        evaluated: report.evaluated,
        steps: stats.steps,
        hits: stats.cache_hits,
        misses: stats.cache_misses,
        nodes: rw.store().len(),
    }
}

#[test]
fn the_depth_3_sweep_does_the_same_work_on_every_paper_domain() {
    let work = |evaluated, steps, hits, misses, nodes| Work {
        evaluated,
        steps,
        hits,
        misses,
        nodes,
    };
    let cases = [
        (
            "courses",
            courses(&CoursesConfig::default()).unwrap().functions,
            work(26_214, 26_214, 145_231, 41_509, 41_559),
        ),
        (
            "library",
            library(&LibraryConfig::default()).unwrap().functions,
            work(34_952, 34_952, 164_317, 39_327, 39_414),
        ),
        (
            "bank",
            bank(&BankConfig::default()).unwrap().functions,
            work(7_020, 7_024, 56_359, 7_617, 7_663),
        ),
    ];
    let mut total = Work::default();
    for (name, spec, expected) in &cases {
        let got = sweep(spec);
        assert_eq!(got, *expected, "{name}");
        total.evaluated += got.evaluated;
        total.steps += got.steps;
        total.hits += got.hits;
        total.misses += got.misses;
        total.nodes += got.nodes;
    }
    // The paper-1w benchmark workload's traced rewriter counters.
    assert_eq!(total, work(68_186, 68_190, 365_907, 88_453, 88_636));
}
