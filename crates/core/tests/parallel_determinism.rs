//! Determinism of the parallel engines: on every packaged domain, the
//! level-synchronous parallel exploration, the parallel cross-level check
//! and the parallel RPR reachability must reproduce the serial results
//! bit-for-bit at every thread count.

use std::sync::Arc;

use eclectic_algebraic::{
    completeness, confluence, parse_equations, AlgSignature, AlgSpec,
};
use eclectic_kernel::{Budget, BudgetExceeded};
use eclectic_logic::{Domains, Elem, Formula, Signature, Term as LogicTerm};
use eclectic_refine::{
    check_dynamic_budget, check_dynamic_threads, check_equations_budget,
    check_refinement_1_2_budget, check_valid_reachable, cross_check_budget, cross_check_threads,
    explore_algebraic_budget, explore_algebraic_threads, random_ops, AlgExploreLimits,
    CrossCheckStats, FullReport, InducedAlgebra, ValidReachableReport,
};
use eclectic_rpr::{check_batch_budget, wgrammar, DbState, FiniteUniverse, Pdl, Stmt};
use eclectic_spec::domains::{bank, courses, library};
use eclectic_spec::fuzz::Fingerprint;
use eclectic_spec::{
    verify, verify_with_threads, StageStats, TriLevelSpec, VerificationOutcome, VerifyConfig,
};

const THREADS: [usize; 3] = [2, 4, 8];

fn domains() -> Vec<(&'static str, TriLevelSpec, usize)> {
    vec![
        (
            "courses",
            courses::courses(&courses::CoursesConfig::default()).unwrap(),
            6,
        ),
        (
            "library",
            library::library(&library::LibraryConfig::default()).unwrap(),
            6,
        ),
        ("bank", bank::bank(&bank::BankConfig::default()).unwrap(), 8),
    ]
}

#[test]
fn parallel_exploration_matches_serial_on_every_domain() {
    for (name, spec, depth) in domains() {
        let limits = AlgExploreLimits {
            max_depth: depth,
            max_states: 10_000,
        };
        let serial = explore_algebraic_threads(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            limits,
            1,
        )
        .unwrap();
        for threads in THREADS {
            let par = explore_algebraic_threads(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
                threads,
            )
            .unwrap();
            assert_eq!(
                par.universe.state_count(),
                serial.universe.state_count(),
                "{name}: state count at {threads} threads"
            );
            assert_eq!(
                par.witnesses, serial.witnesses,
                "{name}: witness order at {threads} threads"
            );
            assert_eq!(
                par.depth, serial.depth,
                "{name}: witness depths at {threads} threads"
            );
            assert_eq!(
                par.truncated, serial.truncated,
                "{name}: truncation at {threads} threads"
            );
            assert_eq!(
                par.abstraction_collision, serial.abstraction_collision,
                "{name}: collision flag at {threads} threads"
            );
            assert_eq!(
                par.universe.edge_count(),
                serial.universe.edge_count(),
                "{name}: edge count at {threads} threads"
            );
            for s in serial.universe.state_indices() {
                assert_eq!(
                    par.universe.successors(s),
                    serial.universe.successors(s),
                    "{name}: successor sets at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn truncated_parallel_exploration_matches_serial() {
    // Limits low enough to trip both the depth and the state bound.
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    for limits in [
        AlgExploreLimits {
            max_depth: 1,
            max_states: 10_000,
        },
        AlgExploreLimits {
            max_depth: 6,
            max_states: 3,
        },
    ] {
        let serial = explore_algebraic_threads(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            limits,
            1,
        )
        .unwrap();
        assert!(serial.truncated);
        for threads in THREADS {
            let par = explore_algebraic_threads(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
                threads,
            )
            .unwrap();
            assert_eq!(par.witnesses, serial.witnesses);
            assert_eq!(par.depth, serial.depth);
            assert_eq!(par.truncated, serial.truncated);
            assert_eq!(par.universe.edge_count(), serial.universe.edge_count());
        }
    }
}

#[test]
fn parallel_cross_check_matches_serial_on_every_domain() {
    for (name, spec, _) in domains() {
        let mut ind = InducedAlgebra::new(
            &spec.functions,
            &spec.representation,
            &spec.interp_k,
            spec.empty_state(),
        )
        .unwrap();
        let mut state = 0x5eed_cafe_u64;
        let mut rng = move |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
        };
        let ops = random_ops(&spec.functions, &ind, "initiate", 20, &mut rng).unwrap();
        let (m1, s1) = cross_check_threads(&spec.functions, &mut ind, &ops, 1).unwrap();
        for threads in THREADS {
            let (m, s) = cross_check_threads(&spec.functions, &mut ind, &ops, threads).unwrap();
            assert_eq!(m, m1, "{name}: mismatch report at {threads} threads");
            assert_eq!(s, s1, "{name}: stats at {threads} threads");
        }
    }
}

/// Syntactically covered but semantically incomplete: `offer` on a
/// different course has no equation, so those ground instances get stuck.
fn stuck_spec() -> AlgSpec {
    let mut a = AlgSignature::new().unwrap();
    let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
    a.add_query("offered", &[course], None).unwrap();
    a.add_update("initiate", &[], false).unwrap();
    a.add_update("offer", &[course], true).unwrap();
    a.add_update("cancel", &[course], true).unwrap();
    a.add_param_var("c", course).unwrap();
    a.add_param_var("c'", course).unwrap();
    let eqs = parse_equations(
        &mut a,
        &[
            ("eq1", "offered(c, initiate) = False"),
            ("eq3", "offered(c, offer(c, U)) = True"),
            ("eq6", "offered(c, cancel(c, U)) = False"),
            ("eq7", "c != c' ==> offered(c, cancel(c', U)) = offered(c, U)"),
        ],
    )
    .unwrap();
    AlgSpec::new(a, eqs).unwrap()
}

/// Two rules that genuinely disagree on ground instances.
fn conflicting_spec() -> AlgSpec {
    let mut a = AlgSignature::new().unwrap();
    let course = a.add_param_sort("course", &["db"]).unwrap();
    a.add_query("offered", &[course], None).unwrap();
    a.add_update("initiate", &[], false).unwrap();
    a.add_update("offer", &[course], true).unwrap();
    a.add_param_var("c", course).unwrap();
    let eqs = parse_equations(
        &mut a,
        &[
            ("good", "offered(c, offer(c, U)) = True"),
            ("evil", "offered(c, offer(c, U)) = False"),
            ("base", "offered(c, initiate) = False"),
        ],
    )
    .unwrap();
    AlgSpec::new(a, eqs).unwrap()
}

/// A single catch-all equation: no two left-hand sides overlap.
fn overlap_free_spec() -> AlgSpec {
    let mut a = AlgSignature::new().unwrap();
    let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
    a.add_query("offered", &[course], None).unwrap();
    a.add_update("initiate", &[], false).unwrap();
    a.add_update("offer", &[course], true).unwrap();
    a.add_param_var("c", course).unwrap();
    let eqs = parse_equations(&mut a, &[("all", "offered(c, U) = False")]).unwrap();
    AlgSpec::new(a, eqs).unwrap()
}

#[test]
fn parallel_confluence_matches_serial_on_every_domain() {
    for (name, spec, _) in domains() {
        let alg = &spec.functions;
        let serial = confluence::critical_overlaps_threads(alg, 1).unwrap();
        for threads in THREADS {
            let par = confluence::critical_overlaps_threads(alg, threads).unwrap();
            assert_eq!(par, serial, "{name}: overlap report at {threads} threads");
        }
        for o in &serial {
            let e1 = alg.equation(&o.first).unwrap();
            let e2 = alg.equation(&o.second).unwrap();
            let r1 = confluence::resolve_overlap_on_ground_threads(alg, e1, e2, 2, 1).unwrap();
            for threads in THREADS {
                let r = confluence::resolve_overlap_on_ground_threads(alg, e1, e2, 2, threads)
                    .unwrap();
                assert_eq!(
                    r, r1,
                    "{name}: {}/{} ground resolution at {threads} threads",
                    o.first, o.second
                );
            }
        }

        // Pair-level parallelism: the whole overlap list resolved against a
        // shared ground space, workers striding over pairs.
        let space = eclectic_algebraic::induction::GroundSpace::new(alg.signature(), 2).unwrap();
        let pairs: Vec<_> = serial
            .iter()
            .map(|o| {
                (
                    alg.equation(&o.first).unwrap(),
                    alg.equation(&o.second).unwrap(),
                )
            })
            .collect();
        let batch1 = confluence::resolve_overlaps_in(alg, &space, &pairs, 1).unwrap();
        for threads in THREADS {
            let batch = confluence::resolve_overlaps_in(alg, &space, &pairs, threads).unwrap();
            assert_eq!(batch, batch1, "{name}: pair batch at {threads} threads");
        }
        // And it agrees with the one-pair-at-a-time entry point.
        for (pair, r) in pairs.iter().zip(&batch1) {
            let single =
                confluence::resolve_overlap_in(alg, &space, pair.0, pair.1, 1).unwrap();
            assert_eq!(&single, r, "{name}: batch vs single-pair resolution");
        }
    }
}

#[test]
fn parallel_confluence_edge_specs_match_serial() {
    // No overlaps at all: every thread count agrees on the empty report.
    let empty = overlap_free_spec();
    for threads in [1, 2, 4, 8] {
        assert!(confluence::critical_overlaps_threads(&empty, threads)
            .unwrap()
            .is_empty());
    }

    // A genuine disagreement: the stop event (fired count + rendering) must
    // be bit-identical at every thread count.
    let bad = conflicting_spec();
    let e1 = bad.equation("good").unwrap();
    let e2 = bad.equation("evil").unwrap();
    let serial = confluence::resolve_overlap_on_ground_threads(&bad, e1, e2, 2, 1).unwrap();
    assert!(serial.1.is_some());
    for threads in THREADS {
        let par = confluence::resolve_overlap_on_ground_threads(&bad, e1, e2, 2, threads).unwrap();
        assert_eq!(par, serial, "disagreement at {threads} threads");
    }
}

#[test]
fn parallel_completeness_matches_serial_on_every_domain() {
    for (name, spec, _) in domains() {
        let serial = completeness::exhaustive_threads(&spec.functions, 3, 20, 1).unwrap();
        assert!(serial.is_sufficiently_complete(), "{name}");
        for threads in THREADS {
            let par = completeness::exhaustive_threads(&spec.functions, 3, 20, threads).unwrap();
            assert_eq!(par, serial, "{name}: completeness report at {threads} threads");
        }
    }
}

#[test]
fn parallel_completeness_early_stop_matches_serial() {
    // The stuck spec trips the failure cap; the replay must stop at the
    // same instance (same `stuck` prefix, same `evaluated`) as serial.
    let spec = stuck_spec();
    for max_failures in [1, 3, 50] {
        let serial = completeness::exhaustive_threads(&spec, 3, max_failures, 1).unwrap();
        assert!(!serial.is_sufficiently_complete());
        for threads in THREADS {
            let par = completeness::exhaustive_threads(&spec, 3, max_failures, threads).unwrap();
            assert_eq!(
                par, serial,
                "stuck spec, cap {max_failures}, {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_pdl_batch_obligations_match_serial_on_every_domain() {
    // The dynamic-logic obligations run through the batched PDL model
    // checker; verdicts must not depend on the worker count. (The bank
    // universe exceeds the cap and exercises the graceful-skip path.)
    for (name, spec, _) in domains() {
        let serial =
            check_dynamic_threads(&spec.representation, &spec.empty_state(), 1_024, 1).unwrap();
        assert!(serial.is_correct(), "{name}: {:?}", serial.failures);
        for threads in THREADS {
            let par =
                check_dynamic_threads(&spec.representation, &spec.empty_state(), 1_024, threads)
                    .unwrap();
            assert_eq!(par.failures, serial.failures, "{name} at {threads} threads");
            assert_eq!(par.checked, serial.checked, "{name} at {threads} threads");
            assert_eq!(
                par.universe_states, serial.universe_states,
                "{name} at {threads} threads"
            );
            assert_eq!(
                par.unchecked_procs, serial.unchecked_procs,
                "{name} at {threads} threads"
            );
            assert_eq!(par.skipped, serial.skipped, "{name} at {threads} threads");
            // Each procedure owns its denotation cache, so the counters are
            // worker-invariant too.
            assert_eq!(par.cache_stats, serial.cache_stats, "{name} at {threads} threads");
        }
    }
}

#[test]
fn parallel_rpr_reachability_matches_serial_on_every_domain() {
    for (name, spec, depth) in domains() {
        let mk = || {
            InducedAlgebra::new(
                &spec.functions,
                &spec.representation,
                &spec.interp_k,
                spec.empty_state(),
            )
            .unwrap()
        };
        let (serial, t1) = mk().reachable_states_threads(depth, 10_000, 1).unwrap();
        for threads in THREADS {
            let (par, t) = mk()
                .reachable_states_threads(depth, 10_000, threads)
                .unwrap();
            assert_eq!(par, serial, "{name}: state order at {threads} threads");
            assert_eq!(t, t1, "{name}: truncation at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------------
// Budget exhaustion: every governed sweep must produce the SAME partial
// report at every thread count when the (deterministic) node axis trips.
// ---------------------------------------------------------------------------

const BUDGET_THREADS: [usize; 4] = [1, 2, 4, 8];

fn node_budget(cap: usize) -> Budget {
    Budget::unlimited().with_max_nodes(cap)
}

#[test]
fn node_capped_exploration_partial_report_is_thread_invariant() {
    for (name, spec, depth) in domains() {
        let limits = AlgExploreLimits {
            max_depth: depth,
            max_states: 10_000,
        };
        let budget = node_budget(200);
        let base = explore_algebraic_budget(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            limits,
            &budget,
            1,
        )
        .unwrap();
        assert!(base.truncated, "{name}: cap 200 must trip");
        let exhausted = base.exhausted.clone().expect(name);
        assert_eq!(exhausted.stage, "explore", "{name}");
        assert_eq!(exhausted.reason, BudgetExceeded::Nodes, "{name}");
        for threads in BUDGET_THREADS {
            let par = explore_algebraic_budget(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
                &budget,
                threads,
            )
            .unwrap();
            assert_eq!(par.exhausted, base.exhausted, "{name} at {threads} threads");
            assert_eq!(
                par.universe.state_count(),
                base.universe.state_count(),
                "{name}: partial state count at {threads} threads"
            );
            assert_eq!(
                par.witnesses, base.witnesses,
                "{name}: partial witnesses at {threads} threads"
            );
            assert_eq!(par.depth, base.depth, "{name} at {threads} threads");
        }
    }
}

#[test]
fn node_capped_rpr_reachability_partial_report_is_thread_invariant() {
    for (name, spec, depth) in domains() {
        let mk = || {
            InducedAlgebra::new(
                &spec.functions,
                &spec.representation,
                &spec.interp_k,
                spec.empty_state(),
            )
            .unwrap()
        };
        let budget = node_budget(4);
        let base = mk()
            .reachable_states_budget(depth, 10_000, &budget, 1)
            .unwrap();
        assert!(base.1, "{name}: cap 4 must truncate");
        assert!(base.2.is_some(), "{name}: cap 4 must trip");
        assert_eq!(base.2.as_ref().unwrap().stage, "reach", "{name}");
        for threads in BUDGET_THREADS {
            let par = mk()
                .reachable_states_budget(depth, 10_000, &budget, threads)
                .unwrap();
            assert_eq!(par, base, "{name}: partial reach at {threads} threads");
        }
    }
}

#[test]
fn op_capped_cross_check_partial_report_is_thread_invariant() {
    for (name, spec, _) in domains() {
        let mut ind = InducedAlgebra::new(
            &spec.functions,
            &spec.representation,
            &spec.interp_k,
            spec.empty_state(),
        )
        .unwrap();
        let mut state = 0x5eed_cafe_u64;
        let mut rng = move |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
        };
        let ops = random_ops(&spec.functions, &ind, "initiate", 20, &mut rng).unwrap();
        let budget = node_budget(7);
        let base = cross_check_budget(&spec.functions, &mut ind, &ops, &budget, 1).unwrap();
        assert!(base.2.is_some(), "{name}: cap 7 must trip on 20 ops");
        let e = base.2.as_ref().unwrap();
        assert_eq!((e.stage, e.completed_units), ("cross", 7), "{name}");
        for threads in BUDGET_THREADS {
            let par =
                cross_check_budget(&spec.functions, &mut ind, &ops, &budget, threads).unwrap();
            assert_eq!(par, base, "{name}: partial cross-check at {threads} threads");
        }
    }
}

#[test]
fn instance_capped_completeness_partial_report_is_thread_invariant() {
    for (name, spec, _) in domains() {
        let budget = node_budget(50);
        let base = completeness::exhaustive_budget(&spec.functions, 3, 20, &budget, 1).unwrap();
        let e = base.exhausted.clone().expect(name);
        assert_eq!(
            (e.stage, e.completed_units),
            ("completeness", 50),
            "{name}"
        );
        for threads in BUDGET_THREADS {
            let par =
                completeness::exhaustive_budget(&spec.functions, 3, 20, &budget, threads)
                    .unwrap();
            assert_eq!(par, base, "{name}: partial completeness at {threads} threads");
        }
    }
}

#[test]
fn pair_capped_confluence_partial_report_is_thread_invariant() {
    for (name, spec, _) in domains() {
        let alg = &spec.functions;
        let overlaps = confluence::critical_overlaps_threads(alg, 1).unwrap();
        if overlaps.is_empty() {
            continue;
        }
        let space = eclectic_algebraic::induction::GroundSpace::new(alg.signature(), 2).unwrap();
        let pairs: Vec<_> = overlaps
            .iter()
            .map(|o| {
                (
                    alg.equation(&o.first).unwrap(),
                    alg.equation(&o.second).unwrap(),
                )
            })
            .collect();
        for cap in [0, pairs.len().saturating_sub(1)] {
            let budget = node_budget(cap);
            let base = confluence::resolve_overlaps_budget_in(alg, &space, &pairs, &budget, 1)
                .unwrap();
            let e = base.1.clone().expect(name);
            assert_eq!((e.stage, e.completed_units), ("confluence", cap), "{name}");
            assert_eq!(base.0.len(), cap, "{name}: resolved prefix length");
            for threads in BUDGET_THREADS {
                let par =
                    confluence::resolve_overlaps_budget_in(alg, &space, &pairs, &budget, threads)
                        .unwrap();
                assert_eq!(
                    par, base,
                    "{name}: partial confluence, cap {cap}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn application_capped_dynamic_partial_report_is_thread_invariant() {
    for (name, spec, _) in domains() {
        let budget = node_budget(5);
        let base =
            check_dynamic_budget(&spec.representation, &spec.empty_state(), 1_024, &budget, 1)
                .unwrap();
        if base.skipped.is_none() {
            let e = base.exhausted.clone().expect(name);
            assert_eq!((e.stage, e.completed_units), ("dynamic", 5), "{name}");
            assert_eq!(base.checked, 5, "{name}");
        }
        for threads in BUDGET_THREADS {
            let par = check_dynamic_budget(
                &spec.representation,
                &spec.empty_state(),
                1_024,
                &budget,
                threads,
            )
            .unwrap();
            assert_eq!(par.failures, base.failures, "{name} at {threads} threads");
            assert_eq!(par.checked, base.checked, "{name} at {threads} threads");
            assert_eq!(par.exhausted, base.exhausted, "{name} at {threads} threads");
            assert_eq!(par.skipped, base.skipped, "{name} at {threads} threads");
        }
    }
}

/// The tiny universe and formula batch of the rpr PDL unit tests: three
/// distinct programs to denote, four formulas to judge.
fn pdl_fixture() -> (FiniteUniverse, Vec<Pdl>) {
    let mut sig = Signature::new();
    let course = sig.add_sort("course").unwrap();
    let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
    let x = sig.add_constant("x", course).unwrap();
    let dom = Domains::from_names(&sig, &[("course", &["db"])]).unwrap();
    let sig = Arc::new(sig);
    let mut template = DbState::new(sig.clone(), Arc::new(dom));
    template.set_scalar(x, Elem(0)).unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered], &[x], 100).unwrap();
    let insert = Stmt::Insert(offered, vec![LogicTerm::constant(x)]);
    let atom = Pdl::Atom(Formula::Pred(offered, vec![LogicTerm::constant(x)]));
    let formulas = vec![
        Pdl::after_all(insert.clone(), atom.clone()),
        Pdl::after_some(insert.clone(), atom.clone()),
        Pdl::after_all(Stmt::Skip, atom.clone()),
        Pdl::after_all(insert.seq(Stmt::Skip), atom),
    ];
    (u, formulas)
}

#[test]
fn unit_capped_pdl_batch_partial_report_is_thread_invariant() {
    let (u, formulas) = pdl_fixture();
    // Cap 2 trips during the denotation phase (3 distinct programs): no
    // verdicts. Cap 5 trips during the judgement phase (units 3 + j): a
    // two-formula verdict prefix survives.
    for (cap, verdicts) in [(2, 0), (5, 2)] {
        let budget = node_budget(cap);
        let base = check_batch_budget(&formulas, &u, &budget, 1).unwrap();
        let e = base.exhausted.clone().expect("cap must trip");
        assert_eq!((e.stage, e.completed_units), ("pdl", cap));
        assert_eq!(base.valid.len(), verdicts, "verdict prefix at cap {cap}");
        for threads in BUDGET_THREADS {
            let par = check_batch_budget(&formulas, &u, &budget, threads).unwrap();
            assert_eq!(par.satisfying, base.satisfying, "cap {cap}, {threads} threads");
            assert_eq!(par.valid, base.valid, "cap {cap}, {threads} threads");
            assert_eq!(par.exhausted, base.exhausted, "cap {cap}, {threads} threads");
        }
    }
}

#[test]
fn instance_capped_equation_check_reports_exhaustion() {
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let mk = || {
        InducedAlgebra::new(
            &spec.functions,
            &spec.representation,
            &spec.interp_k,
            spec.empty_state(),
        )
        .unwrap()
    };
    let budget = node_budget(100);
    let base = check_equations_budget(&mut mk(), 3, 2_000, 20, &budget).unwrap();
    let e = base.exhausted.clone().expect("cap 100 must trip");
    assert_eq!((e.stage, e.completed_units), ("equations", 100));
    assert_eq!(base.instances, 100);
    // Replay: the instance axis is deterministic.
    let again = check_equations_budget(&mut mk(), 3, 2_000, 20, &budget).unwrap();
    assert_eq!(again.exhausted, base.exhausted);
    assert_eq!(again.instances, base.instances);
    assert_eq!(again.failures, base.failures);
}

#[test]
fn deadline_interrupts_oversized_exploration_instead_of_hanging() {
    // A carrier far too large to finish in 100 ms: the budget's deadline
    // axis must stop the (iterative, level-synchronous) sweep gracefully,
    // on both the serial and the parallel path.
    let spec = bank::bank(&bank::BankConfig::sized(5, 6)).unwrap();
    let limits = AlgExploreLimits {
        max_depth: 1_000_000,
        max_states: 1_000_000,
    };
    for threads in [1, 4] {
        let budget = Budget::unlimited().with_deadline_ms(100);
        let started = std::time::Instant::now();
        let out = explore_algebraic_budget(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            limits,
            &budget,
            threads,
        )
        .unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "deadline ignored at {threads} threads"
        );
        let e = out.exhausted.expect("deadline must trip");
        assert_eq!(e.stage, "explore");
        assert_eq!(e.reason, BudgetExceeded::Deadline);
        assert!(out.truncated);
    }
}

#[test]
fn verify_under_tiny_node_cap_reports_deterministic_partial_outcome() {
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let mut config = VerifyConfig::quick();
    config.max_nodes = Some(200);
    let run = || {
        let outcome = verify(&spec, &config).unwrap();
        assert!(outcome.exhausted().is_some(), "cap 200 must trip");
        assert!(!outcome.is_correct(), "a partial run never claims success");
        outcome
            .stages
            .iter()
            .map(|s| (s.name, s.exhausted.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "per-stage exhaustion must replay identically");
}

#[test]
fn parallel_binrel_star_and_compose_match_serial() {
    use eclectic_rpr::BinRel;
    // Sizes straddling the kernel's serial threshold: small relations take
    // the serial path regardless of the thread argument, the 300/512 cases
    // genuinely fan rows across workers.
    let mut state = 0x05ee_d0b1_75e7_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for n in [3usize, 64, 300, 512] {
        let mut r = BinRel::with_dim(n);
        for _ in 0..n * 2 {
            let (a, b) = (next(n), next(n));
            r.insert(a, b);
        }
        let star = r.star(n);
        let comp = r.compose(&r);
        for threads in [2, 4, 8] {
            assert_eq!(r.star_threads(n, threads), star, "star n={n} t={threads}");
            assert_eq!(
                r.compose_threads(&r, threads),
                comp,
                "compose n={n} t={threads}"
            );
        }
        // Governed variants under an unlimited budget are the same code
        // path with live polls; they must not perturb the output either.
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                r.star_governed(n, &Budget::unlimited(), threads).unwrap(),
                star,
                "governed star n={n} t={threads}"
            );
            assert_eq!(
                r.compose_governed(&r, &Budget::unlimited(), threads).unwrap(),
                comp,
                "governed compose n={n} t={threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler-specific cases. The tests above run under `effective_workers`,
// which clamps to the host's cores — on a small CI box "8 threads" can mean
// one real worker. Here the cap override lifts that clamp so 2/4/8 workers
// GENUINELY run on the shared pool, and every worker count is compared
// against the 1-worker run bit for bit. The override guards serialize these
// tests against each other.
// ---------------------------------------------------------------------------

#[test]
fn work_stealing_matches_one_worker_reference_at_real_worker_counts() {
    use eclectic_kernel::force_worker_cap;
    let _cap = force_worker_cap(usize::MAX);
    for (name, spec, depth) in domains() {
        let limits = AlgExploreLimits {
            // Bound the deepest domain: the point is scheduling, not volume.
            max_depth: depth.min(6),
            max_states: 10_000,
        };
        let explore = |threads: usize| {
            explore_algebraic_threads(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
                threads,
            )
            .unwrap()
        };
        let reference = explore(1);
        let ref_dynamic =
            check_dynamic_threads(&spec.representation, &spec.empty_state(), 1_024, 1).unwrap();
        let ref_complete = completeness::exhaustive_threads(&spec.functions, 3, 20, 1).unwrap();
        // Work-stealing at every worker count must reproduce the 1-worker
        // reference.
        for threads in [2, 4, 8] {
            let par = explore(threads);
            assert_eq!(
                par.witnesses, reference.witnesses,
                "{name}: witnesses at {threads} workers"
            );
            assert_eq!(
                par.universe.edge_count(),
                reference.universe.edge_count(),
                "{name}: edges at {threads} workers"
            );
            assert_eq!(
                par.truncated, reference.truncated,
                "{name}: truncation at {threads} workers"
            );
            let dynamic =
                check_dynamic_threads(&spec.representation, &spec.empty_state(), 1_024, threads)
                    .unwrap();
            assert_eq!(
                dynamic.failures, ref_dynamic.failures,
                "{name}: PDL verdicts at {threads} workers"
            );
            assert_eq!(
                dynamic.checked, ref_dynamic.checked,
                "{name}: PDL volume at {threads} workers"
            );
            assert_eq!(
                dynamic.cache_stats, ref_dynamic.cache_stats,
                "{name}: PDL cache counters at {threads} workers"
            );
            let complete =
                completeness::exhaustive_threads(&spec.functions, 3, 20, threads).unwrap();
            assert_eq!(
                complete, ref_complete,
                "{name}: completeness at {threads} workers"
            );
        }
    }
}

#[test]
fn node_capped_partials_are_bit_identical_under_real_stealing() {
    use eclectic_kernel::force_worker_cap;
    let _cap = force_worker_cap(usize::MAX);
    for (name, spec, depth) in domains() {
        let limits = AlgExploreLimits {
            max_depth: depth,
            max_states: 10_000,
        };
        let budget = node_budget(200);
        let base = explore_algebraic_budget(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            limits,
            &budget,
            1,
        )
        .unwrap();
        assert!(base.truncated, "{name}: cap 200 must trip under stealing");
        assert_eq!(
            base.exhausted.as_ref().map(|e| e.reason),
            Some(BudgetExceeded::Nodes),
            "{name}"
        );
        for threads in [2, 4, 8] {
            let par = explore_algebraic_budget(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
                &budget,
                threads,
            )
            .unwrap();
            assert_eq!(
                par.exhausted, base.exhausted,
                "{name}: exhaustion at {threads} real workers"
            );
            assert_eq!(
                par.witnesses, base.witnesses,
                "{name}: partial witnesses at {threads} real workers"
            );
            assert_eq!(
                par.universe.state_count(),
                base.universe.state_count(),
                "{name}: partial states at {threads} real workers"
            );
        }
    }
    // The PDL batch's serial-unit cap must also replay exactly with real
    // workers stealing denotation and judgement items.
    let (u, formulas) = pdl_fixture();
    for (cap, verdicts) in [(2, 0), (5, 2)] {
        let budget = node_budget(cap);
        let base = check_batch_budget(&formulas, &u, &budget, 1).unwrap();
        assert_eq!(base.valid.len(), verdicts, "verdict prefix at cap {cap}");
        for threads in [2, 4, 8] {
            let par = check_batch_budget(&formulas, &u, &budget, threads).unwrap();
            assert_eq!(par.valid, base.valid, "cap {cap} at {threads} real workers");
            assert_eq!(
                par.exhausted, base.exhausted,
                "cap {cap} at {threads} real workers"
            );
        }
    }
}

#[test]
fn mid_sweep_cancel_leaves_shared_memos_unpoisoned() {
    use eclectic_kernel::{force_worker_cap, CancelToken};
    let _cap = force_worker_cap(usize::MAX);
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let mk_ind = || {
        InducedAlgebra::new(
            &spec.functions,
            &spec.representation,
            &spec.interp_k,
            spec.empty_state(),
        )
        .unwrap()
    };
    let mut state = 0x5eed_cafe_u64;
    let mut rng = move |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    };
    let ops = random_ops(&spec.functions, &mk_ind(), "initiate", 20, &mut rng).unwrap();

    // Pristine reference: a fresh algebra, no cancellation anywhere.
    let mut pristine = mk_ind();
    let expected =
        cross_check_budget(&spec.functions, &mut pristine, &ops, &Budget::unlimited(), 4).unwrap();
    assert!(expected.2.is_none(), "reference run must complete");

    let mut ind = mk_ind();
    // An already-flipped token trips at the first poll: a deterministic
    // partial at every real worker count.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Budget::unlimited().with_cancel(token);
    for threads in [1, 2, 4, 8] {
        let out = cross_check_budget(&spec.functions, &mut ind, &ops, &cancelled, threads).unwrap();
        assert_eq!(
            out.2.as_ref().map(|e| e.reason),
            Some(BudgetExceeded::Cancelled),
            "pre-tripped token at {threads} workers"
        );
    }
    // A token flipped WHILE the sweep runs: whether or not workers observe
    // it in time, the run must not corrupt the shared rewrite memos.
    let racing = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(racing.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_micros(200));
        racing.cancel();
    });
    let _ = cross_check_budget(&spec.functions, &mut ind, &ops, &budget, 8).unwrap();
    canceller.join().unwrap();

    // The same (warmed, repeatedly interrupted) algebra must now finish the
    // sweep and agree bit-for-bit with the pristine reference: cancellation
    // may cut a sweep short but never poisons what the memos retain.
    let redo =
        cross_check_budget(&spec.functions, &mut ind, &ops, &Budget::unlimited(), 4).unwrap();
    assert_eq!(redo, expected, "memos must be unpoisoned after cancellation");
}

// ---------------------------------------------------------------------------
// The obligation-DAG battery. `verify` decomposes the battery into
// per-obligation pool tasks (refine12 obligations with dependency edges into
// witness enumeration, per-procedure dynamic units); its reports must be
// bit-identical to an independent serial reference at every genuine worker
// count, including budget-capped partials.
// ---------------------------------------------------------------------------

/// An independent reference for the DAG's assembly: the public obligation
/// functions called one after another in the canonical serial order, at one
/// worker, sharing one budget and `verify`'s cross-check seed.
fn reference_outcome(spec: &TriLevelSpec, config: &VerifyConfig) -> VerificationOutcome {
    let budget = config.budget();
    let (grammar_ok, grammar_error) = match wgrammar::check_schema(&spec.representation) {
        Ok(_) => (true, None),
        Err(e) => (false, Some(e.to_string())),
    };
    let refine12 = check_refinement_1_2_budget(
        &spec.information,
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        config.refine12,
        &budget,
        1,
    )
    .unwrap();
    // Obligation (c) is skipped over a budget-truncated universe.
    let valid_reachable = if refine12.exploration.exhausted.is_some() {
        ValidReachableReport {
            candidates: 0,
            valid: 0,
            reachable_valid: 0,
            unreachable: Vec::new(),
            exploration_truncated: true,
        }
    } else {
        check_valid_reachable(
            &spec.information,
            &refine12.exploration,
            config.candidate_cap,
        )
        .unwrap()
    };
    let mut induced = InducedAlgebra::new(
        &spec.functions,
        &spec.representation,
        &spec.interp_k,
        spec.empty_state(),
    )
    .unwrap();
    let equations = check_equations_budget(
        &mut induced,
        config.eq_depth,
        config.eq_max_states,
        20,
        &budget,
    )
    .unwrap();
    let dynamic = check_dynamic_budget(
        &spec.representation,
        &spec.empty_state(),
        config.pdl_universe_cap,
        &budget,
        1,
    )
    .unwrap();

    // `verify`'s xorshift64* trace generator, one trace at a time, stopping
    // at the first mismatch or budget stop.
    let mut state: u64 = 0x5eed_1234_abcd_0001;
    let mut choose = move |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    };
    let mut cross_mismatch = None;
    let mut cross_stats = CrossCheckStats::default();
    let mut cross_exhausted = None;
    for _ in 0..config.random_traces {
        let ops = random_ops(
            &spec.functions,
            &induced,
            "initiate",
            config.trace_len,
            &mut choose,
        )
        .unwrap();
        let (mismatch, stats, exhausted) =
            cross_check_budget(&spec.functions, &mut induced, &ops, &budget, 1).unwrap();
        cross_stats.ops += stats.ops;
        cross_stats.comparisons += stats.comparisons;
        if mismatch.is_some() {
            cross_mismatch = mismatch;
            break;
        }
        if exhausted.is_some() {
            cross_exhausted = exhausted;
            break;
        }
    }

    let stage = |name, exhausted| StageStats {
        name,
        elapsed_ms: 0,
        exhausted,
    };
    let stages = vec![
        stage("refine12", refine12.exhausted().cloned()),
        stage("witness", None),
        stage("equations", equations.exhausted.clone()),
        stage("dynamic", dynamic.exhausted.clone()),
        stage("cross", cross_exhausted),
    ];
    VerificationOutcome {
        grammar_ok,
        grammar_error,
        report: FullReport {
            refine12,
            valid_reachable,
            equations,
        },
        cross_mismatch,
        cross_stats,
        dynamic,
        stages,
    }
}

/// Asserts that `verify_with_threads` at 1/2/4/8 genuine workers reproduces
/// [`reference_outcome`]'s fingerprint on every packaged domain; returns the
/// reference fingerprints.
fn assert_battery_matches_reference(config: &VerifyConfig) -> Vec<(&'static str, Fingerprint)> {
    use eclectic_kernel::force_worker_cap;
    let _cap = force_worker_cap(usize::MAX);
    let mut references = Vec::new();
    for (name, spec, _) in domains() {
        let reference = Fingerprint::of(&reference_outcome(&spec, config));
        for workers in BUDGET_THREADS {
            let outcome = Fingerprint::of(&verify_with_threads(&spec, config, workers).unwrap());
            if let Some(detail) = outcome.first_difference(&reference) {
                panic!(
                    "{name}: battery at {workers} workers diverged from the reference: {detail}"
                );
            }
        }
        references.push((name, reference));
    }
    references
}

#[test]
fn obligation_dag_battery_matches_serial_reference_on_every_domain() {
    assert_battery_matches_reference(&VerifyConfig::quick());
}

#[test]
fn node_capped_exhaustion_partial_is_worker_invariant() {
    // A node cap tripping mid-grid inside refine12: the partial outcome —
    // which stages ran, which stage recorded the Exhaustion, and the
    // truncated exploration itself — must not depend on the number of
    // genuine workers, because the cap is polled at serial slot indices and
    // the merge replays slots in serial order.
    let mut config = VerifyConfig::quick();
    config.max_nodes = Some(200);
    for (name, reference) in assert_battery_matches_reference(&config) {
        assert!(
            reference.stages.iter().any(|(_, e)| e.is_some()),
            "{name}: cap 200 must trip a stage"
        );
        assert!(
            !reference.correct,
            "{name}: a partial run never claims success"
        );
    }
}

#[test]
fn mid_sweep_cancel_trips_dynamic_units_without_poisoning_shared_state() {
    // The per-procedure dynamic units of the obligation DAG under a
    // CancelToken: a pre-tripped token stops every unit at its first slot
    // and the merge reports the cancellation at slot 0; a token flipped
    // while units are in flight may cut the sweep anywhere, but must leave
    // the schema and template reusable — a fresh uncancelled run must
    // reproduce the pristine report bit for bit.
    use eclectic_kernel::{force_worker_cap, CancelToken};
    use eclectic_refine::{plan_dynamic, DynamicPrep};
    let _cap = force_worker_cap(usize::MAX);
    let spec = courses::courses(&courses::CoursesConfig::default()).unwrap();
    let pristine =
        check_dynamic_budget(&spec.representation, &spec.empty_state(), 1_024, &Budget::unlimited(), 4)
            .unwrap();
    assert!(pristine.exhausted.is_none(), "reference run must complete");

    let plan = |budget: &Budget| match plan_dynamic(
        &spec.representation,
        &spec.empty_state(),
        1_024,
        budget,
    )
    .unwrap()
    {
        DynamicPrep::Plan(p) => p,
        DynamicPrep::Done(r) => panic!("courses must leave per-procedure units, got {r:?}"),
    };

    // Pre-tripped token: every unit stops at the first slot of its range,
    // so the merged stop replays at global slot 0 with nothing checked.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Budget::unlimited().with_cancel(token);
    let p = plan(&Budget::unlimited());
    let outcomes: Vec<_> = (0..p.procs())
        .map(|i| p.run_proc(i, &cancelled, 1).unwrap())
        .collect();
    let report = p.merge(outcomes, &cancelled);
    assert_eq!(
        report.exhausted.as_ref().map(|e| e.reason),
        Some(BudgetExceeded::Cancelled),
        "pre-tripped token must surface as a cancellation partial"
    );
    assert_eq!(report.checked, 0, "no slot may complete under a tripped token");
    assert!(report.failures.is_empty());

    // Token flipped WHILE units run on the pool: whatever prefix survives,
    // the shared inputs must not be poisoned.
    let racing = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(racing.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_micros(200));
        racing.cancel();
    });
    let p = plan(&budget);
    let outcomes: Vec<_> = (0..p.procs())
        .map(|i| p.run_proc(i, &budget, 4).unwrap())
        .collect();
    let _ = p.merge(outcomes, &budget);
    canceller.join().unwrap();

    // A fresh uncancelled plan over the same schema and template must agree
    // with the monolithic pristine reference exactly.
    let p = plan(&Budget::unlimited());
    let outcomes: Vec<_> = (0..p.procs())
        .map(|i| p.run_proc(i, &Budget::unlimited(), 4).unwrap())
        .collect();
    let redo = p.merge(outcomes, &Budget::unlimited());
    assert_eq!(redo.failures, pristine.failures, "verdicts after cancellation");
    assert_eq!(redo.checked, pristine.checked, "volume after cancellation");
    assert_eq!(redo.universe_states, pristine.universe_states);
    assert_eq!(redo.unchecked_procs, pristine.unchecked_procs);
    assert_eq!(redo.skipped, pristine.skipped);
    assert!(redo.exhausted.is_none(), "uncancelled replay must complete");
}

#[test]
fn sparse_backend_star_compose_and_capped_pdl_are_thread_invariant() {
    use eclectic_kernel::{force_rel_backend, RelChoice};
    use eclectic_rpr::BinRel;
    // Pin every relation to the sparse adjacency backend: the same
    // bit-identity guarantees the dense kernel gives must hold on the
    // semi-naive sparse kernels at every worker count.
    let _g = force_rel_backend(RelChoice::Sparse);
    let mut state = 0x0005_a7e1_117e_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    // 512 straddles the parallel threshold: rows genuinely fan out.
    for n in [64usize, 512] {
        let mut r = BinRel::with_dim(n);
        for _ in 0..n * 2 {
            let (a, b) = (next(n), next(n));
            r.insert(a, b);
        }
        let star = r.star_threads(n, 1);
        let comp = r.compose_threads(&r, 1);
        for threads in BUDGET_THREADS {
            assert_eq!(r.star_threads(n, threads), star, "star n={n} t={threads}");
            assert_eq!(
                r.compose_threads(&r, threads),
                comp,
                "compose n={n} t={threads}"
            );
        }
    }
    // Node caps are enforced at serial-order units in the PDL batch, so
    // the partial report stays bit-identical on the sparse backend too.
    let (u, formulas) = pdl_fixture();
    for (cap, verdicts) in [(2, 0), (5, 2)] {
        let budget = node_budget(cap);
        let base = check_batch_budget(&formulas, &u, &budget, 1).unwrap();
        let e = base.exhausted.clone().expect("cap must trip on sparse");
        assert_eq!((e.stage, e.completed_units), ("pdl", cap));
        assert_eq!(base.valid.len(), verdicts, "sparse verdict prefix, cap {cap}");
        for threads in BUDGET_THREADS {
            let par = check_batch_budget(&formulas, &u, &budget, threads).unwrap();
            assert_eq!(par.satisfying, base.satisfying, "cap {cap}, {threads} threads");
            assert_eq!(par.valid, base.valid, "cap {cap}, {threads} threads");
            assert_eq!(par.exhausted, base.exhausted, "cap {cap}, {threads} threads");
        }
    }
}

#[test]
fn compressed_backend_closure_and_capped_pdl_are_thread_invariant() {
    use eclectic_kernel::{force_rel_backend, RelChoice};
    use eclectic_rpr::BinRel;
    // Pin every relation to the compressed container backend: the chunked
    // row representation must give the same bit-identity guarantees the
    // dense and sparse kernels do, at every worker count, including for
    // the semi-naive closure's row fan-out and node-capped PDL partials.
    let _g = force_rel_backend(RelChoice::Compressed);
    let mut state = 0x000c_a7e1_117e_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    // 512 straddles the parallel threshold: rows genuinely fan out across
    // workers; 64 stays serial — both must agree with the 1-worker run.
    for n in [64usize, 512] {
        let mut r = BinRel::with_dim(n);
        for _ in 0..n * 2 {
            let (a, b) = (next(n), next(n));
            r.insert(a, b);
        }
        let star = r.star_threads(n, 1);
        let comp = r.compose_threads(&r, 1);
        for threads in BUDGET_THREADS {
            assert_eq!(r.star_threads(n, threads), star, "star n={n} t={threads}");
            assert_eq!(
                r.compose_threads(&r, threads),
                comp,
                "compose n={n} t={threads}"
            );
        }
    }
    // The node-capped partial must stop after the same serial unit and
    // report bit-identically at 1/2/4/8 workers on this backend too.
    let (u, formulas) = pdl_fixture();
    for (cap, verdicts) in [(2, 0), (5, 2)] {
        let budget = node_budget(cap);
        let base = check_batch_budget(&formulas, &u, &budget, 1).unwrap();
        let e = base.exhausted.clone().expect("cap must trip on compressed");
        assert_eq!((e.stage, e.completed_units), ("pdl", cap));
        assert_eq!(
            base.valid.len(),
            verdicts,
            "compressed verdict prefix, cap {cap}"
        );
        for threads in BUDGET_THREADS {
            let par = check_batch_budget(&formulas, &u, &budget, threads).unwrap();
            assert_eq!(par.satisfying, base.satisfying, "cap {cap}, {threads} threads");
            assert_eq!(par.valid, base.valid, "cap {cap}, {threads} threads");
            assert_eq!(par.exhausted, base.exhausted, "cap {cap}, {threads} threads");
        }
    }
}
