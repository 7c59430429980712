//! Determinism of the parallel grains: on every packaged domain, the
//! obligation battery and the completeness strips must reproduce the serial
//! results bit-for-bit at every thread count, and every governed sweep must
//! stop a capped run at the same serial slot. (`fuzz::run_corpus`, the third
//! grain, is checked by the fuzz grid's worker arms.)

use eclectic_algebraic::{completeness, parse_equations, AlgSignature, AlgSpec};
use eclectic_kernel::{Budget, BudgetExceeded};
use eclectic_refine::{
    check_dynamic_budget, check_equations_budget, check_refinement_1_2_budget,
    check_valid_reachable, cross_check_budget, explore_algebraic_budget, random_ops,
    AlgExploreLimits, CrossCheckStats, FullReport, InducedAlgebra, ValidReachableReport,
};
use eclectic_rpr::wgrammar;
use eclectic_spec::domains::{bank, courses, library};
use eclectic_spec::fuzz::Fingerprint;
use eclectic_spec::{
    verify, verify_with_threads, StageStats, TriLevelSpec, VerificationOutcome, VerifyConfig,
};

const THREADS: [usize; 3] = [2, 4, 8];

/// The unbudgeted completeness sweep at `depth` with `threads` workers.
fn exhaustive(
    spec: &AlgSpec,
    depth: usize,
    max_failures: usize,
    threads: usize,
) -> completeness::CompletenessReport {
    completeness::exhaustive_budget(spec, depth, max_failures, &Budget::unlimited(), threads)
        .unwrap()
}

fn domains() -> Vec<(&'static str, TriLevelSpec)> {
    vec![
        (
            "courses",
            courses::courses(&courses::CoursesConfig::default()).unwrap(),
        ),
        (
            "library",
            library::library(&library::LibraryConfig::default()).unwrap(),
        ),
        ("bank", bank::bank(&bank::BankConfig::default()).unwrap()),
    ]
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

#[test]
fn parallel_completeness_matches_serial_on_every_domain() {
    for (name, spec) in domains() {
        let serial = exhaustive(&spec.functions, 3, 20, 1);
        assert!(serial.is_sufficiently_complete(), "{name}");
        for threads in THREADS {
            let par = exhaustive(&spec.functions, 3, 20, threads);
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
        let serial = exhaustive(&spec, 3, max_failures, 1);
        assert!(!serial.is_sufficiently_complete());
        for threads in THREADS {
            let par = exhaustive(&spec, 3, max_failures, threads);
            assert_eq!(
                par, serial,
                "stuck spec, cap {max_failures}, {threads} threads"
            );
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
fn instance_capped_completeness_partial_report_is_thread_invariant() {
    for (name, spec) in domains() {
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
fn application_capped_dynamic_partial_report_stops_at_the_capped_slot() {
    // The dynamic stage polls the node cap before each application's serial
    // slot, so cap 5 stops after exactly five applications. (The bank
    // universe exceeds the cap of 1,024 and takes the graceful-skip path.)
    for (name, spec) in domains() {
        let budget = node_budget(5);
        let base =
            check_dynamic_budget(&spec.representation, &spec.empty_state(), 1_024, &budget, 1)
                .unwrap();
        if base.skipped.is_none() {
            let e = base.exhausted.clone().expect(name);
            assert_eq!((e.stage, e.completed_units), ("dynamic", 5), "{name}");
            assert_eq!(base.checked, 5, "{name}");
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
    // axis must stop the (iterative, breadth-first) search gracefully.
    let spec = bank::bank(&bank::BankConfig::sized(5, 6)).unwrap();
    let limits = AlgExploreLimits {
        max_depth: 1_000_000,
        max_states: 1_000_000,
    };
    let budget = Budget::unlimited().with_deadline_ms(100);
    let started = std::time::Instant::now();
    let out = explore_algebraic_budget(
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        limits,
        &budget,
    )
    .unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "deadline ignored"
    );
    let e = out.exhausted.expect("deadline must trip");
    assert_eq!(e.stage, "explore");
    assert_eq!(e.reason, BudgetExceeded::Deadline);
    assert!(out.truncated);
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
    for (name, spec) in domains() {
        let ref_complete = exhaustive(&spec.functions, 3, 20, 1);
        // Work-stealing at every worker count must reproduce the 1-worker
        // reference.
        for threads in [2, 4, 8] {
            let complete = exhaustive(&spec.functions, 3, 20, threads);
            assert_eq!(
                complete, ref_complete,
                "{name}: completeness at {threads} workers"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The obligation battery. `verify` runs five chains of obligations as pool
// tasks (exploration followed by witness enumeration and the axiom sweep,
// equations followed by the cross check); its
// reports must be bit-identical to an independent serial reference at every
// genuine worker count, including budget-capped partials.
// ---------------------------------------------------------------------------

/// An independent reference for the battery's assembly: the public obligation
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
    for (name, spec) in domains() {
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
