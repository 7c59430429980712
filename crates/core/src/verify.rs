//! One-call verification of a tri-level specification: every refinement
//! obligation of the paper, plus the W-grammar syntax check and randomized
//! cross-formalism testing.
//!
//! When more than one thread is configured, the battery runs as a task DAG
//! on the shared [`eclectic_kernel::sched`] pool, in one of two shapes
//! (see [`DagShape`]):
//!
//! - **Fine** (the default): every proof obligation is its own pool task
//!   at obligation granularity — termination, the completeness sweep, the
//!   universe exploration, the axiom sweep, witness enumeration, the
//!   equation check, per-procedure dynamic obligations and the cross
//!   check — with completion-count edges (`explore → {axioms, witness}`,
//!   `equations → cross`) so each task unblocks the moment its inputs
//!   exist. Latency-critical tasks run at [`Priority::High`]; wide grid
//!   sweeps at [`Priority::Bulk`] so they cannot starve the critical path.
//! - **Chain**: the three coarse chains `{refine12 → witness}`,
//!   `{equations → cross}` and `{dynamic}` as single tasks — the A/B
//!   baseline for `bench_sched` and differential fuzzing.
//!
//! Both shapes compute exactly what the serial battery computes — every
//! governed sweep owns its term store and polls deterministic budget axes
//! at serial slot indices — so reports are bit-identical across shapes and
//! worker counts; the reported stage order stays canonical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use eclectic_algebraic::{completeness, termination};
use eclectic_kernel::{env_threads, run_tasks, run_tasks_prio, Budget, DagBuilder, Exhaustion, Priority};
use eclectic_refine::{
    check_dynamic_budget, check_equations_budget, check_refinement_1_2_budget,
    check_valid_reachable,
    cross_check_budget, obligation_axioms, obligation_completeness, obligation_exploration,
    obligation_termination, plan_dynamic, random_ops, AlgebraicExploration, CrossCheckStats,
    DynamicPrep, DynamicReport, DynamicUnitOutcome, EquationCheckReport, FullReport,
    InducedAlgebra, Mismatch, Refine12Config, Refine12Report, StateViolation,
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
    /// Print a per-stage elapsed/budget line to stdout as each stage ends.
    pub print_stages: bool,
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
            print_stages: false,
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
            print_stages: false,
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

/// Closes the current stage: records elapsed time since `start`, advances
/// `start`, and optionally prints the per-stage line.
fn record_stage(
    print: bool,
    budget: &Budget,
    stages: &mut Vec<StageStats>,
    start: &mut Duration,
    name: &'static str,
    exhausted: Option<Exhaustion>,
) {
    let now = budget.elapsed();
    let elapsed_ms = u64::try_from(now.saturating_sub(*start).as_millis()).unwrap_or(u64::MAX);
    *start = now;
    let stats = StageStats {
        name,
        elapsed_ms,
        exhausted,
    };
    if print {
        print_stage_line(&stats);
    }
    stages.push(stats);
}

/// Prints one `  stage <name> <ms>` line (the `print_stages` format).
fn print_stage_line(s: &StageStats) {
    let StageStats {
        name,
        elapsed_ms,
        exhausted,
    } = s;
    match exhausted {
        Some(e) => println!("  stage {name:<9} {elapsed_ms:>6} ms  {e}"),
        None => println!("  stage {name:<9} {elapsed_ms:>6} ms"),
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

/// Which task decomposition the staged battery (`threads > 1`) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagShape {
    /// Obligation-granularity tasks with completion-count unblock edges —
    /// the default.
    Fine,
    /// The three coarse chains `{refine12 → witness}`, `{equations →
    /// cross}`, `{dynamic}` as single tasks — the A/B baseline.
    Chain,
}

/// Process-global shape override: 0 = none, 1 = fine, 2 = chain.
static SHAPE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes holders of [`force_dag_shape`] guards.
static SHAPE_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard for a forced battery shape; restores the default on drop.
/// Holding it excludes every other forced-shape section in the process.
pub struct DagShapeGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for DagShapeGuard {
    fn drop(&mut self) {
        SHAPE_OVERRIDE.store(0, Ordering::SeqCst);
    }
}

/// Forces the staged battery's [`DagShape`] for the lifetime of the
/// returned guard. Intended for tests, benches and the differential fuzzer,
/// which A/B the two decompositions in one process.
#[must_use]
pub fn force_dag_shape(shape: DagShape) -> DagShapeGuard {
    let lock = SHAPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let code = match shape {
        DagShape::Fine => 1,
        DagShape::Chain => 2,
    };
    SHAPE_OVERRIDE.store(code, Ordering::SeqCst);
    DagShapeGuard { _lock: lock }
}

/// The battery shape in effect: a [`force_dag_shape`] override wins,
/// otherwise [`DagShape::Fine`].
#[must_use]
pub fn dag_shape() -> DagShape {
    match SHAPE_OVERRIDE.load(Ordering::SeqCst) {
        2 => DagShape::Chain,
        _ => DagShape::Fine,
    }
}

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
/// (differential fuzzing, scheduler benchmarks) that sweep thread counts
/// within one process without touching the environment.
///
/// # Errors
/// See [`verify`].
pub fn verify_with_threads(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    threads: usize,
) -> Result<VerificationOutcome> {
    spec.check_shape()?;

    // One budget, shared by every stage: the deadline and cancellation axes
    // persist across stages, while the node cap governs each stage's own
    // term store.
    let budget = config.budget();
    let threads = threads.max(1);

    // Syntactic correctness under the W-grammar (paper §5.4 step 1).
    let (grammar_ok, grammar_error) = match wgrammar::check_schema(&spec.representation) {
        Ok(_) => (true, None),
        Err(e) => (false, Some(e.to_string())),
    };

    let (report, dynamic, cross_mismatch, cross_stats, stages) = if threads > 1 {
        match dag_shape() {
            DagShape::Fine => verify_staged_fine(spec, config, &budget, threads)?,
            DagShape::Chain => verify_staged(spec, config, &budget, threads)?,
        }
    } else {
        verify_serial(spec, config, &budget, threads)?
    };

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

/// 1→2 obligations (a), (b), (d).
fn stage_refine12(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
) -> Result<Refine12Report> {
    Ok(check_refinement_1_2_budget(
        &spec.information,
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        config.refine12,
        budget,
        threads,
    )?)
}

/// Obligation (c). Candidate enumeration is meaningless over a partial
/// universe, so an exhausted exploration skips it (inconclusively).
fn stage_witness(
    spec: &TriLevelSpec,
    refine12: &Refine12Report,
    config: &VerifyConfig,
) -> Result<ValidReachableReport> {
    stage_witness_from(spec, &refine12.exploration, config)
}

/// [`stage_witness`] against the bare exploration — what the obligation
/// DAG's witness task actually needs, so its unblock edge is `explore →
/// witness` rather than the whole refine12 chain.
fn stage_witness_from(
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

/// 2→3 equation validity in the induced algebra.
fn stage_equations(
    induced: &mut InducedAlgebra<'_>,
    config: &VerifyConfig,
    budget: &Budget,
) -> Result<EquationCheckReport> {
    Ok(check_equations_budget(
        induced,
        config.eq_depth,
        config.eq_max_states,
        20,
        budget,
    )?)
}

/// §5.1.2/§5.3 dynamic-logic obligations over the representation universe
/// (batched PDL model checking with one denotation cache).
fn stage_dynamic(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
) -> Result<DynamicReport> {
    Ok(check_dynamic_budget(
        &spec.representation,
        &spec.empty_state(),
        config.pdl_universe_cap,
        budget,
        threads,
    )?)
}

/// Randomised cross-formalism testing with a deterministic xorshift64*
/// trace generator.
fn stage_cross(
    spec: &TriLevelSpec,
    induced: &mut InducedAlgebra<'_>,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
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
            cross_check_budget(&spec.functions, induced, &ops, budget, threads)?;
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

/// The sequential battery: one stage after another in canonical order, with
/// per-stage lines printed as each stage closes.
fn verify_serial(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
) -> Result<VerifyBody> {
    let mut stages = Vec::new();
    let mut stage_start = budget.elapsed();

    let refine12 = stage_refine12(spec, config, budget, threads)?;
    record_stage(
        config.print_stages,
        budget,
        &mut stages,
        &mut stage_start,
        "refine12",
        refine12.exhausted().cloned(),
    );

    let valid_reachable = stage_witness(spec, &refine12, config)?;
    record_stage(
        config.print_stages,
        budget,
        &mut stages,
        &mut stage_start,
        "witness",
        None,
    );

    let mut induced = make_induced(spec)?;
    let equations = stage_equations(&mut induced, config, budget)?;
    record_stage(
        config.print_stages,
        budget,
        &mut stages,
        &mut stage_start,
        "equations",
        equations.exhausted.clone(),
    );

    let dynamic = stage_dynamic(spec, config, budget, threads)?;
    record_stage(
        config.print_stages,
        budget,
        &mut stages,
        &mut stage_start,
        "dynamic",
        dynamic.exhausted.clone(),
    );

    let (cross_mismatch, cross_stats, cross_exhausted) =
        stage_cross(spec, &mut induced, config, budget, threads)?;
    record_stage(
        config.print_stages,
        budget,
        &mut stages,
        &mut stage_start,
        "cross",
        cross_exhausted,
    );

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

/// Result of the `refine12 → witness` chain.
type ChainAOut = Result<(Refine12Report, ValidReachableReport, Vec<StageStats>)>;
/// Result of the `equations → cross` chain (they share the induced algebra).
type ChainBOut = Result<(
    EquationCheckReport,
    Option<Mismatch>,
    CrossCheckStats,
    Vec<StageStats>,
)>;
/// Result of the independent `dynamic` chain.
type ChainCOut = Result<(DynamicReport, StageStats)>;

/// Per-chain results of the staged battery. Each chain carries its own
/// stage records, timed against the shared budget clock from the moment the
/// chain starts running.
enum ChainOut {
    A(Box<ChainAOut>),
    B(Box<ChainBOut>),
    C(Box<ChainCOut>),
}

/// The staged battery: the three independent chains run concurrently as
/// tasks on the shared scheduler pool; their inner sweeps enqueue work on
/// the same pool, so idle chain workers steal sweep items from busy ones.
///
/// Every stage computes exactly what it computes serially — the chains
/// share no mutable state (each governed stage owns its term store, and the
/// node-cap axis is checked per store), so reports are bit-identical to the
/// serial schedule. Only wall-clock-dependent behaviour (deadline trips,
/// `elapsed_ms`) is schedule-sensitive, exactly as at any other worker
/// count. When several chains fail hard, the error surfaced follows the
/// fixed chain priority A, B, C.
fn verify_staged(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
) -> Result<VerifyBody> {
    let chain_a = || {
        let mut stages = Vec::new();
        let mut start = budget.elapsed();
        let refine12 = stage_refine12(spec, config, budget, threads)?;
        let exhausted = refine12.exhausted().cloned();
        record_stage(false, budget, &mut stages, &mut start, "refine12", exhausted);
        let valid_reachable = stage_witness(spec, &refine12, config)?;
        record_stage(false, budget, &mut stages, &mut start, "witness", None);
        Ok((refine12, valid_reachable, stages))
    };
    let chain_b = || {
        let mut stages = Vec::new();
        let mut start = budget.elapsed();
        let mut induced = make_induced(spec)?;
        let equations = stage_equations(&mut induced, config, budget)?;
        let exhausted = equations.exhausted.clone();
        record_stage(false, budget, &mut stages, &mut start, "equations", exhausted);
        let (cross_mismatch, cross_stats, cross_exhausted) =
            stage_cross(spec, &mut induced, config, budget, threads)?;
        record_stage(false, budget, &mut stages, &mut start, "cross", cross_exhausted);
        Ok((equations, cross_mismatch, cross_stats, stages))
    };
    let chain_c = || {
        let mut stages = Vec::new();
        let mut start = budget.elapsed();
        let dynamic = stage_dynamic(spec, config, budget, threads)?;
        let exhausted = dynamic.exhausted.clone();
        record_stage(false, budget, &mut stages, &mut start, "dynamic", exhausted);
        let stage = stages.pop().expect("dynamic stage recorded");
        Ok((dynamic, stage))
    };

    let tasks: Vec<Box<dyn FnOnce() -> ChainOut + Send + '_>> = vec![
        Box::new(|| ChainOut::A(Box::new(chain_a()))),
        Box::new(|| ChainOut::B(Box::new(chain_b()))),
        Box::new(|| ChainOut::C(Box::new(chain_c()))),
    ];
    let (mut a, mut b, mut c) = (None, None, None);
    for out in run_tasks(threads.min(3), tasks) {
        match out {
            ChainOut::A(r) => a = Some(r),
            ChainOut::B(r) => b = Some(r),
            ChainOut::C(r) => c = Some(r),
        }
    }
    let (refine12, valid_reachable, stages_a) = (*a.expect("chain A ran"))?;
    let (equations, cross_mismatch, cross_stats, stages_b) = (*b.expect("chain B ran"))?;
    let (dynamic, dynamic_stage) = (*c.expect("chain C ran"))?;

    // Reassemble the canonical stage order: refine12, witness, equations,
    // dynamic, cross.
    let mut stages = Vec::with_capacity(5);
    stages.extend(stages_a);
    let mut chain_b_stages = stages_b.into_iter();
    stages.push(chain_b_stages.next().expect("equations stage recorded"));
    stages.push(dynamic_stage);
    stages.extend(chain_b_stages);
    if config.print_stages {
        for s in &stages {
            print_stage_line(s);
        }
    }

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

/// Milliseconds elapsed on the shared budget clock since `start`.
fn span_ms(budget: &Budget, start: Duration) -> u64 {
    u64::try_from(budget.elapsed().saturating_sub(start).as_millis()).unwrap_or(u64::MAX)
}

/// The obligation-granularity battery: every proof obligation is its own
/// pool task, wired with completion-count edges so a task unblocks the
/// moment its actual inputs exist:
///
/// ```text
///   term (High)      compl (Bulk)      explore (High)      equations (High)      dynamic (Bulk)
///                                        /        \              |
///                                axioms (Bulk)  witness (High)  cross (High)
/// ```
///
/// In particular `witness` depends on `explore` *only* — it starts while
/// the axiom sweep is still grinding, where the chain shape held it behind
/// the whole refine12 chain. Bulk tasks (wide grid sweeps, and the
/// per-procedure dynamic units spawned inside the `dynamic` task) drain
/// after High ones under the priority-aware injector, keeping the
/// latency-critical `explore → witness` and `equations → cross` paths
/// short.
///
/// Nodes communicate through caller-frame slots; the dependency edges are
/// the happens-before each read needs, and the DAG barrier covers the
/// assembly reads. Every obligation computes exactly its serial result, so
/// the assembled reports are bit-identical to [`verify_serial`] and
/// [`verify_staged`]; errors surface in canonical serial order.
#[allow(clippy::too_many_lines)]
fn verify_staged_fine(
    spec: &TriLevelSpec,
    config: &VerifyConfig,
    budget: &Budget,
    threads: usize,
) -> Result<VerifyBody> {
    use std::sync::Arc;
    type RR<T> = std::result::Result<T, eclectic_refine::RefineError>;

    type Timed<T> = Option<(T, u64)>;
    let term_slot: Mutex<Timed<RR<termination::TerminationReport>>> = Mutex::new(None);
    let compl_slot: Mutex<Timed<RR<completeness::CompletenessReport>>> = Mutex::new(None);
    let explore_slot: Mutex<Timed<RR<Arc<AlgebraicExploration>>>> = Mutex::new(None);
    type Violations = (Vec<StateViolation>, Vec<StateViolation>);
    let axioms_slot: Mutex<Timed<Option<RR<Violations>>>> = Mutex::new(None);
    let witness_slot: Mutex<Timed<Option<Result<ValidReachableReport>>>> = Mutex::new(None);
    let equations_slot: Mutex<Timed<Result<EquationCheckReport>>> = Mutex::new(None);
    let induced_slot: Mutex<Option<InducedAlgebra<'_>>> = Mutex::new(None);
    type CrossOut = (Option<Mismatch>, CrossCheckStats, Option<Exhaustion>);
    let cross_slot: Mutex<Timed<Option<Result<CrossOut>>>> = Mutex::new(None);
    let dynamic_slot: Mutex<Timed<Result<DynamicReport>>> = Mutex::new(None);

    // A successfully explored universe, cloned out of the slot by each
    // downstream task (cheap: it is behind an `Arc`).
    let explored = || -> Option<Arc<AlgebraicExploration>> {
        match explore_slot.lock().unwrap().as_ref() {
            Some((Ok(e), _)) => Some(e.clone()),
            _ => None,
        }
    };

    let mut dag: DagBuilder<'_, ()> = DagBuilder::new();
    dag.spawn(Priority::High, || {
        let t0 = budget.elapsed();
        let r = obligation_termination(&spec.functions);
        *term_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    dag.spawn(Priority::Bulk, || {
        let t0 = budget.elapsed();
        let r = obligation_completeness(
            &spec.functions,
            config.refine12.completeness_depth,
            budget,
            threads,
        );
        *compl_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    let explore = dag.spawn(Priority::High, || {
        let t0 = budget.elapsed();
        let r = obligation_exploration(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            config.refine12.limits,
            budget,
            threads,
        );
        *explore_slot.lock().unwrap() = Some((r.map(Arc::new), span_ms(budget, t0)));
    });
    dag.spawn_dependent(Priority::Bulk, &[explore], || {
        let t0 = budget.elapsed();
        let r = explored().map(|e| {
            obligation_axioms(&spec.information, &spec.functions, config.refine12.policy, &e)
        });
        *axioms_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    dag.spawn_dependent(Priority::High, &[explore], || {
        let t0 = budget.elapsed();
        let r = explored().map(|e| stage_witness_from(spec, &e, config));
        *witness_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    let equations = dag.spawn(Priority::High, || {
        let t0 = budget.elapsed();
        let r = (|| {
            let mut induced = make_induced(spec)?;
            let eqs = stage_equations(&mut induced, config, budget)?;
            *induced_slot.lock().unwrap() = Some(induced);
            Ok(eqs)
        })();
        *equations_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    dag.spawn_dependent(Priority::High, &[equations], || {
        let t0 = budget.elapsed();
        let taken = induced_slot.lock().unwrap().take();
        let r = taken.map(|mut induced| stage_cross(spec, &mut induced, config, budget, threads));
        *cross_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    dag.spawn(Priority::Bulk, || {
        let t0 = budget.elapsed();
        let r = (|| {
            let template = spec.empty_state();
            match plan_dynamic(&spec.representation, &template, config.pdl_universe_cap, budget)? {
                DynamicPrep::Done(report) => Ok(report),
                DynamicPrep::Plan(plan) => {
                    let n = plan.procs();
                    if n == 0 {
                        return Ok(plan.merge(Vec::new(), budget));
                    }
                    // Per-procedure obligation units as Bulk pool tasks;
                    // each owns its denotation cache and processes its
                    // contiguous slot range in serial order, so the merge
                    // replays the exact serial verdicts.
                    let plan_ref = &plan;
                    let units: Vec<Box<dyn FnOnce() -> RR<DynamicUnitOutcome> + Send + '_>> =
                        (0..n)
                            .map(|i| {
                                Box::new(move || plan_ref.run_proc(i, budget, 1))
                                    as Box<dyn FnOnce() -> _ + Send + '_>
                            })
                            .collect();
                    let outcomes = run_tasks_prio(threads.min(n), Priority::Bulk, units)
                        .into_iter()
                        .collect::<RR<Vec<_>>>()?;
                    Ok(plan.merge(outcomes, budget))
                }
            }
        })();
        *dynamic_slot.lock().unwrap() = Some((r, span_ms(budget, t0)));
    });
    let _: Vec<()> = dag.run(threads);

    // Assemble in canonical serial order, so the error surfaced (and the
    // partial-report semantics) match `verify_serial` exactly: termination,
    // completeness, exploration, axioms, witness, equations, dynamic,
    // cross.
    let (term_r, term_ms) = term_slot.into_inner().unwrap().expect("termination task ran");
    let termination = term_r?;
    let (compl_r, compl_ms) = compl_slot.into_inner().unwrap().expect("completeness task ran");
    let completeness = compl_r?;
    let (explore_r, explore_ms) = explore_slot.into_inner().unwrap().expect("exploration task ran");
    let exploration_arc = explore_r?;
    let (axioms_r, axioms_ms) = axioms_slot.into_inner().unwrap().expect("axioms task ran");
    let (static_violations, transition_violations) =
        axioms_r.expect("axioms ran after successful exploration")?;
    let (witness_r, witness_ms) = witness_slot.into_inner().unwrap().expect("witness task ran");
    let valid_reachable = witness_r.expect("witness ran after successful exploration")?;
    let (equations_r, equations_ms) = equations_slot.into_inner().unwrap().expect("equations task ran");
    let equations = equations_r?;
    let (dynamic_r, dynamic_ms) = dynamic_slot.into_inner().unwrap().expect("dynamic task ran");
    let dynamic = dynamic_r?;
    let (cross_r, cross_ms) = cross_slot.into_inner().unwrap().expect("cross task ran");
    let (cross_mismatch, cross_stats, cross_exhausted) =
        cross_r.expect("cross ran after successful equations")?;

    // Every other `Arc` clone died with its task; a failed unwrap can only
    // mean a leaked clone, so fall back to a deep clone rather than panic.
    let exploration =
        Arc::try_unwrap(exploration_arc).unwrap_or_else(|a| a.as_ref().clone());
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
    if config.print_stages {
        for s in &stages {
            print_stage_line(s);
        }
    }

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
