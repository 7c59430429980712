//! One-call verification of a tri-level specification: every refinement
//! obligation of the paper, plus the W-grammar syntax check and randomized
//! cross-formalism testing.
//!
//! The battery is one [`run_tasks`] task list at every worker count. The
//! paper's obligations share data along three edges only — witness
//! enumeration (§4.4 (c)) and the axiom sweep (§4.4 (b), (d)) read the
//! universe the exploration builds, and the cross check reuses the algebra
//! induced by interpretation `K` for the §5.4 equations — so each edge is a
//! sequence inside one task, and the list is:
//!
//! 1. termination;
//! 2. exploration, then witness, then axioms;
//! 3. equations, then cross;
//! 4. dynamic;
//! 5. the completeness plan (the ground space, enumerated once);
//! 6. one completeness strip per worker.
//!
//! No task opens a task list of its own, and the divisible work — the
//! strips, which claim instance chunks from one queue — comes last, so it
//! fills whatever threads the chains leave idle. At one worker the tasks
//! run inline in that order: termination, explore, witness, axioms,
//! equations, cross, dynamic, completeness.
//!
//! Every governed sweep owns its term store and polls deterministic budget
//! axes at serial slot indices, so reports are bit-identical across worker
//! counts; the reported stage order stays canonical.

use std::sync::Mutex;

use eclectic_algebraic::completeness::Strip;
use eclectic_algebraic::termination;
use eclectic_kernel::{effective_workers, env_threads, run_tasks, Budget, Exhaustion};
use eclectic_refine::{
    check_dynamic_budget, check_equations_budget, check_valid_reachable, completeness_sweep,
    cross_check_budget, obligation_axioms, obligation_exploration, obligation_termination,
    random_ops, AlgebraicExploration, CrossCheckStats, DynamicReport, EquationCheckReport,
    FullReport, InducedAlgebra, Mismatch, Refine12Config, Refine12Report, StateViolation,
    ValidReachableReport,
};
use eclectic_rpr::wgrammar;

use crate::error::Result;
use crate::spec::TriLevelSpec;

/// Bounds and knobs for a verification run.
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// Configuration of the 1→2 obligations (exploration depth, policy,
    /// completeness depth).
    pub refine12: Refine12Config,
    /// Trace-length bound for the 2→3 equation check.
    pub eq_depth: usize,
    /// State cap for the 2→3 equation check.
    pub eq_max_states: usize,
    /// Cap on candidate-state enumeration for obligation (c).
    pub candidate_cap: usize,
    /// Number of random traces for the cross-formalism check.
    pub random_traces: usize,
    /// Length of each random trace.
    pub trace_len: usize,
    /// State cap for the dynamic-logic (PDL) obligations over the
    /// representation universe; larger universes are gracefully skipped.
    pub pdl_universe_cap: usize,
    /// Optional wall-clock deadline for the whole run, in milliseconds.
    /// When it passes, the stage in flight stops at its next poll point and
    /// reports a partial result; later stages trip at entry.
    pub deadline_ms: Option<u64>,
    /// Optional cap on interned term-store nodes per governed stage (a
    /// memory budget). Deterministic at every thread count.
    pub max_nodes: Option<usize>,
}

impl VerifyConfig {
    /// Quick bounds suitable for unit tests and small carriers.
    #[must_use]
    pub fn quick() -> Self {
        VerifyConfig {
            refine12: Refine12Config::quick(),
            eq_depth: 3,
            eq_max_states: 2_000,
            candidate_cap: 100_000,
            random_traces: 5,
            trace_len: 12,
            pdl_universe_cap: 1_024,
            deadline_ms: None,
            max_nodes: None,
        }
    }

    /// Thorough bounds for integration tests and experiment regeneration.
    #[must_use]
    pub fn thorough() -> Self {
        VerifyConfig {
            refine12: Refine12Config::thorough(),
            eq_depth: 4,
            eq_max_states: 5_000,
            candidate_cap: 1_000_000,
            random_traces: 20,
            trace_len: 30,
            pdl_universe_cap: 1 << 16,
            deadline_ms: None,
            max_nodes: None,
        }
    }

    /// The resource budget shared by every stage of [`verify`].
    #[must_use]
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline_ms(ms);
        }
        if let Some(n) = self.max_nodes {
            b = b.with_max_nodes(n);
        }
        b
    }
}

/// Timing and budget record for one stage of [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage label (`refine12`, `witness`, `equations`, `dynamic`, `cross`).
    pub name: &'static str,
    /// Wall-clock time spent in the stage, in milliseconds.
    pub elapsed_ms: u64,
    /// Budget exhaustion recorded by the stage, if it was cut short.
    pub exhausted: Option<Exhaustion>,
}

/// The outcome of a full verification run.
#[derive(Debug)]
pub struct VerificationOutcome {
    /// Whether the schema derivation validated against the RPR W-grammar.
    pub grammar_ok: bool,
    /// The grammar error, if any.
    pub grammar_error: Option<String>,
    /// The refinement obligations.
    pub report: FullReport,
    /// First cross-formalism disagreement found by random traces, if any.
    pub cross_mismatch: Option<Mismatch>,
    /// Volume of the cross-formalism testing performed.
    pub cross_stats: CrossCheckStats,
    /// The dynamic-logic (PDL) obligations over the representation
    /// universe, batch-model-checked with a shared denotation cache.
    pub dynamic: DynamicReport,
    /// Per-stage elapsed time and budget exhaustion, in canonical order
    /// (`refine12`, `witness`, `equations`, `dynamic`, `cross`).
    pub stages: Vec<StageStats>,
}

impl VerificationOutcome {
    /// Whether everything holds. A budget-exhausted (partial) run never
    /// claims correctness: only a completed battery counts.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.grammar_ok
            && self.report.is_correct()
            && self.cross_mismatch.is_none()
            && self.dynamic.is_correct()
            && self.exhausted().is_none()
    }

    /// The first budget exhaustion recorded by any stage, if the run was
    /// cut short.
    #[must_use]
    pub fn exhausted(&self) -> Option<&Exhaustion> {
        self.stages.iter().find_map(|s| s.exhausted.as_ref())
    }
}

/// Everything [`verify`] computes after the grammar check, in one bundle:
/// the refinement report, the PDL report, the cross-check result and the
/// per-stage records in canonical order.
type VerifyBody = (
    FullReport,
    DynamicReport,
    Option<Mismatch>,
    CrossCheckStats,
    Vec<StageStats>,
);

/// Runs the whole battery against a specification.
///
/// # Errors
/// Propagates evaluation errors (bounded-verification *failures* are
/// reported in the outcome, not as errors).
pub fn verify(spec: &TriLevelSpec, config: &VerifyConfig) -> Result<VerificationOutcome> {
    verify_with_threads(spec, config, env_threads())
}

/// As [`verify`], but with an explicit worker count instead of the
/// `ECLECTIC_THREADS` environment axis — the entry point for harnesses
/// (differential fuzzing, benchmarks) that sweep thread counts within one
/// process without touching the environment. Like every sweep, the count
/// is capped at the host's parallelism ([`effective_workers`]).
///
/// # Errors
/// See [`verify`].
pub fn verify_with_threads(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    threads: usize,
) -> Result<VerificationOutcome> {
    let threads = effective_workers(threads);
    spec.check_shape()?;

    // One budget, shared by every stage: the deadline persists across
    // stages, while the node cap governs each stage's own term store.
    let budget = config.budget();

    // Syntactic correctness under the W-grammar (paper §5.4 step 1).
    let (grammar_ok, grammar_error) = match wgrammar::check_schema(&spec.representation) {
        Ok(_) => (true, None),
        Err(e) => (false, Some(e.to_string())),
    };

    let (report, dynamic, cross_mismatch, cross_stats, stages) =
        run_battery(spec, config, &budget, threads)?;

    Ok(VerificationOutcome {
        grammar_ok,
        grammar_error,
        report,
        cross_mismatch,
        cross_stats,
        dynamic,
        stages,
    })
}

/// Obligation (c). Candidate enumeration is meaningless over a partial
/// universe, so an exhausted exploration skips it (inconclusively).
fn stage_witness(
    spec: &TriLevelSpec,
    exploration: &AlgebraicExploration,
    config: &VerifyConfig,
) -> Result<ValidReachableReport> {
    if exploration.exhausted.is_some() {
        Ok(ValidReachableReport {
            candidates: 0,
            valid: 0,
            reachable_valid: 0,
            unreachable: Vec::new(),
            exploration_truncated: true,
        })
    } else {
        Ok(check_valid_reachable(
            &spec.information,
            exploration,
            config.candidate_cap,
        )?)
    }
}

/// The algebra induced by interpretation `K` over the representation level,
/// shared by the `equations` and `cross` stages.
fn make_induced(spec: &TriLevelSpec) -> Result<InducedAlgebra<'_>> {
    Ok(InducedAlgebra::new(
        &spec.functions,
        &spec.representation,
        &spec.interp_k,
        spec.empty_state(),
    )?)
}

/// Randomised cross-formalism testing with a deterministic xorshift64*
/// trace generator.
fn stage_cross(
    spec: &TriLevelSpec,
    induced: &mut InducedAlgebra<'_>,
    config: &VerifyConfig,
    budget: &Budget,
) -> Result<(Option<Mismatch>, CrossCheckStats, Option<Exhaustion>)> {
    let initial_name = initial_update_name(spec)?;
    let mut rng_state: u64 = 0x5eed_1234_abcd_0001;
    let mut choose = move |n: usize| {
        // xorshift64*.
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        (rng_state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    };
    let mut cross_mismatch = None;
    let mut cross_stats = CrossCheckStats::default();
    let mut cross_exhausted = None;
    for _ in 0..config.random_traces {
        let ops = random_ops(
            &spec.functions,
            induced,
            &initial_name,
            config.trace_len,
            &mut choose,
        )?;
        let (mismatch, stats, exhausted) =
            cross_check_budget(&spec.functions, induced, &ops, budget, 1)?;
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
    Ok((cross_mismatch, cross_stats, cross_exhausted))
}

/// Stores a chain's result in its slot.
fn put<T>(slot: &Mutex<Option<T>>, value: T) {
    *slot.lock().expect("a slot is locked only to store a value") = Some(value);
}

/// Takes a stage's result out of its slot once the battery has run.
fn take<T>(slot: Mutex<Option<T>>, stage: &str) -> T {
    slot.into_inner()
        .expect("a slot is locked only to store a value")
        .unwrap_or_else(|| panic!("the {stage} stage did not run"))
}

/// Runs `f`, returning its result and the milliseconds it took on the
/// shared budget clock.
fn timed<T>(budget: &Budget, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = budget.elapsed();
    let r = f();
    let ms = budget.elapsed().saturating_sub(t0).as_millis();
    (r, u64::try_from(ms).unwrap_or(u64::MAX))
}

/// The obligation battery: one [`run_tasks`] task list, each data edge a
/// sequence inside its task, and the completeness sweep split into its
/// plan and one strip per worker:
///
/// ```text
///   termination
///   explore ──► witness ──► axioms
///   equations ──► cross
///   dynamic
///   completeness plan
///   completeness strip × threads
/// ```
///
/// Tasks write into caller-frame slots, and `run_tasks` returning is the
/// happens-before the assembly reads need; the strips are merged after it
/// returns. Every obligation computes exactly its serial result, so the
/// assembled reports are bit-identical at every worker count; errors
/// surface in canonical order (termination, completeness, exploration,
/// axioms, witness, equations, dynamic, cross) whatever order the tasks ran
/// in. Completeness's elapsed time is the sum of its plan, strips and
/// merge.
#[allow(clippy::too_many_lines)]
fn run_battery(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
) -> Result<VerifyBody> {
    type RR<T> = std::result::Result<T, eclectic_refine::RefineError>;
    type Timed<T> = Option<(T, u64)>;
    type Violations = (Vec<StateViolation>, Vec<StateViolation>);
    type CrossOut = (Option<Mismatch>, CrossCheckStats, Option<Exhaustion>);
    let term_slot: Mutex<Timed<RR<termination::TerminationReport>>> = Mutex::new(None);
    let explore_slot: Mutex<Timed<RR<AlgebraicExploration>>> = Mutex::new(None);
    let axioms_slot: Mutex<Timed<RR<Violations>>> = Mutex::new(None);
    let witness_slot: Mutex<Timed<Result<ValidReachableReport>>> = Mutex::new(None);
    let equations_slot: Mutex<Timed<Result<EquationCheckReport>>> = Mutex::new(None);
    let cross_slot: Mutex<Timed<Result<CrossOut>>> = Mutex::new(None);
    let dynamic_slot: Mutex<Timed<RR<DynamicReport>>> = Mutex::new(None);
    let plan_slot: Mutex<Timed<()>> = Mutex::new(None);
    let strips: Mutex<Vec<(Strip, u64)>> = Mutex::new(Vec::new());
    let sweep = completeness_sweep(&spec.functions, config.refine12.completeness_depth, threads);

    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
        Box::new(|| {
            let r = timed(budget, || obligation_termination(&spec.functions));
            put(&term_slot, r);
        }),
        Box::new(|| {
            let (explored, explore_ms) = timed(budget, || {
                obligation_exploration(
                    &spec.functions,
                    &spec.interp_i,
                    spec.info_signature(),
                    &spec.info_domains,
                    config.refine12.limits,
                    budget,
                    1,
                )
            });
            if let Ok(e) = &explored {
                put(&witness_slot, timed(budget, || stage_witness(spec, e, config)));
                let (info, policy) = (&spec.information, config.refine12.policy);
                let r = timed(budget, || obligation_axioms(info, &spec.functions, policy, e));
                put(&axioms_slot, r);
            }
            put(&explore_slot, (explored, explore_ms));
        }),
        Box::new(|| {
            // 2→3 equation validity in the induced algebra.
            let (r, equations_ms) = timed(budget, || -> Result<_> {
                let mut induced = make_induced(spec)?;
                let (depth, states) = (config.eq_depth, config.eq_max_states);
                let eqs = check_equations_budget(&mut induced, depth, states, 20, budget)?;
                Ok((eqs, induced))
            });
            let eqs = r.map(|(eqs, mut induced)| {
                let r = timed(budget, || stage_cross(spec, &mut induced, config, budget));
                put(&cross_slot, r);
                eqs
            });
            put(&equations_slot, (eqs, equations_ms));
        }),
        Box::new(|| {
            // §5.1.2/§5.3 dynamic-logic obligations over the representation
            // universe (batched PDL model checking).
            let (schema, cap) = (&spec.representation, config.pdl_universe_cap);
            let empty = spec.empty_state();
            let r = timed(budget, || check_dynamic_budget(schema, &empty, cap, budget, 1));
            put(&dynamic_slot, r);
        }),
        Box::new(|| put(&plan_slot, timed(budget, || sweep.plan()))),
    ];
    for _ in 0..threads {
        tasks.push(Box::new(|| {
            let strip = timed(budget, || sweep.strip(budget));
            strips.lock().expect("a slot is locked only to store a value").push(strip);
        }));
    }
    let _: Vec<()> = run_tasks(threads, tasks);

    let ((), plan_ms) = take(plan_slot, "completeness plan");
    let (strips, strip_ms): (Vec<Strip>, Vec<u64>) = strips
        .into_inner()
        .expect("a slot is locked only to store a value")
        .into_iter()
        .unzip();
    let (completeness, merge_ms) = timed(budget, || sweep.merge(strips, budget));
    let compl_ms = strip_ms
        .into_iter()
        .fold(plan_ms.saturating_add(merge_ms), u64::saturating_add);

    // Assemble in canonical order, so the error surfaced (and the
    // partial-report semantics) do not depend on the execution order.
    let (termination, term_ms) = take(term_slot, "termination");
    let termination = termination?;
    let completeness = completeness.map_err(eclectic_refine::RefineError::Alg)?;
    let (exploration, explore_ms) = take(explore_slot, "exploration");
    let exploration = exploration?;
    let (axioms, axioms_ms) = take(axioms_slot, "axioms");
    let (static_violations, transition_violations) = axioms?;
    let (witness, witness_ms) = take(witness_slot, "witness");
    let valid_reachable = witness?;
    let (equations, equations_ms) = take(equations_slot, "equations");
    let equations = equations?;
    let (dynamic, dynamic_ms) = take(dynamic_slot, "dynamic");
    let dynamic = dynamic?;
    let (cross, cross_ms) = take(cross_slot, "cross");
    let (cross_mismatch, cross_stats, cross_exhausted) = cross?;

    let refine12 = Refine12Report {
        termination,
        completeness,
        static_violations,
        transition_violations,
        exploration,
    };

    let refine12_ms = term_ms
        .saturating_add(compl_ms)
        .saturating_add(explore_ms)
        .saturating_add(axioms_ms);
    let stages = vec![
        StageStats {
            name: "refine12",
            elapsed_ms: refine12_ms,
            exhausted: refine12.exhausted().cloned(),
        },
        StageStats {
            name: "witness",
            elapsed_ms: witness_ms,
            exhausted: None,
        },
        StageStats {
            name: "equations",
            elapsed_ms: equations_ms,
            exhausted: equations.exhausted.clone(),
        },
        StageStats {
            name: "dynamic",
            elapsed_ms: dynamic_ms,
            exhausted: dynamic.exhausted.clone(),
        },
        StageStats {
            name: "cross",
            elapsed_ms: cross_ms,
            exhausted: cross_exhausted,
        },
    ];
    Ok((
        FullReport {
            refine12,
            valid_reachable,
            equations,
        },
        dynamic,
        cross_mismatch,
        cross_stats,
        stages,
    ))
}

/// The name of the specification's initial update constant.
fn initial_update_name(spec: &TriLevelSpec) -> Result<String> {
    let alg = spec.functions.signature();
    for u in alg.updates() {
        if !alg.update_takes_state(u).map_err(crate::error::SpecError::Alg)? {
            return Ok(alg.logic().func(u).name.clone());
        }
    }
    Err(crate::error::SpecError::Incomplete(
        "no initial state constant".into(),
    ))
}
