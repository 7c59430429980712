//! The §4.4 proof obligations, mechanised as bounded verification:
//!
//! (a) sufficient completeness (termination + exhaustive evaluation);
//! (b) every reachable state is valid (static consistency);
//! (c) every valid state is reachable (see [`crate::witness`]);
//! (d) transition consistency.

use std::sync::Arc;

use eclectic_algebraic::{completeness, termination, AlgSpec};
use eclectic_kernel::{Budget, BudgetExceeded, Exhaustion};
use eclectic_logic::{Domains, Elem, Formula, Signature, Theory, Valuation};
use eclectic_rpr::pdl::Pdl;
use eclectic_rpr::{denote, pdl, DbState, DenoteCache, FiniteUniverse, RprError, Schema};
use eclectic_temporal::{constraints, satisfaction, AccessibilityPolicy, StateIdx};

use crate::error::Result;
use crate::interp1::InterpretationI;
use crate::reach::{explore_algebraic_budget, AlgExploreLimits, AlgebraicExploration};

/// One axiom violation, with a replayable witness trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StateViolation {
    /// Name of the violated axiom.
    pub axiom: String,
    /// Universe state index.
    pub state: StateIdx,
    /// Rendering of the witness trace term reaching the state.
    pub witness: String,
}

/// Configuration for the 1→2 refinement check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Refine12Config {
    /// Exploration bounds.
    pub limits: AlgExploreLimits,
    /// How accessibility is interpreted for the modal axioms.
    pub policy: AccessibilityPolicy,
    /// Depth for the exhaustive sufficient-completeness pass.
    pub completeness_depth: usize,
}

impl Refine12Config {
    /// Reasonable defaults: exploration depth 6, single-step accessibility,
    /// completeness depth 3.
    #[must_use]
    pub fn quick() -> Self {
        Refine12Config {
            limits: AlgExploreLimits::default(),
            policy: AccessibilityPolicy::AsIs,
            completeness_depth: 3,
        }
    }

    /// Thorough bounds: exploration depth 10, otherwise as [`quick`].
    ///
    /// [`quick`]: Refine12Config::quick
    #[must_use]
    pub fn thorough() -> Self {
        Refine12Config {
            limits: AlgExploreLimits {
                max_depth: 10,
                ..AlgExploreLimits::default()
            },
            ..Refine12Config::quick()
        }
    }
}

/// The outcome of checking that `T2` correctly refines `T1`.
#[derive(Debug, Clone)]
pub struct Refine12Report {
    /// (a) circularity analysis of the Q-equations.
    pub termination: termination::TerminationReport,
    /// (a) coverage + exhaustive evaluation.
    pub completeness: completeness::CompletenessReport,
    /// (b) static-axiom violations at reachable states.
    pub static_violations: Vec<StateViolation>,
    /// (d) transition-axiom violations at reachable states.
    pub transition_violations: Vec<StateViolation>,
    /// The exploration that produced the universe `M(T2)`.
    pub exploration: AlgebraicExploration,
}

impl Refine12Report {
    /// Whether every checked obligation holds.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.termination.is_terminating()
            && self.completeness.is_sufficiently_complete()
            && self.static_violations.is_empty()
            && self.transition_violations.is_empty()
    }

    /// The first budget exhaustion hit while producing this report, if any,
    /// in canonical obligation order: the completeness pass's before the
    /// exploration's, whichever of the two ran first.
    #[must_use]
    pub fn exhausted(&self) -> Option<&Exhaustion> {
        self.completeness
            .exhausted
            .as_ref()
            .or(self.exploration.exhausted.as_ref())
    }
}

/// Checks obligations (a), (b) and (d) for `T2` against `T1` under `I`,
/// governed by `budget` (shared with other stages by the caller), with
/// `threads` workers for the completeness sweep. When the completeness
/// pass or the exploration exhausts the budget, the remaining obligations
/// are skipped and the partial report carries the exhaustion — see
/// [`Refine12Report::exhausted`].
///
/// # Errors
/// Propagates exploration and evaluation errors; budget exhaustion is *not*
/// an error.
#[allow(clippy::too_many_arguments)]
pub fn check_refinement_1_2_budget(
    theory: &Theory,
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    config: Refine12Config,
    budget: &Budget,
    threads: usize,
) -> Result<Refine12Report> {
    let termination = obligation_termination(spec)?;
    let completeness =
        obligation_completeness(spec, config.completeness_depth, budget, threads)?;
    let exploration =
        obligation_exploration(spec, interp, info_sig, domains, config.limits, budget, 1)?;
    let (static_violations, transition_violations) =
        obligation_axioms(theory, spec, config.policy, &exploration)?;
    Ok(Refine12Report {
        termination,
        completeness,
        static_violations,
        transition_violations,
        exploration,
    })
}

/// Obligation (a), circularity half: the Q-equation termination analysis.
/// A per-obligation entry point, so the verification battery can run it
/// as its own task.
///
/// # Errors
/// Propagates analysis errors.
pub fn obligation_termination(spec: &AlgSpec) -> Result<termination::TerminationReport> {
    Ok(termination::check_termination(spec)?)
}

/// Stuck terms the completeness obligation reports at most.
const STUCK_REPORTED: usize = 20;

/// Obligation (a), coverage half: the exhaustive sufficient-completeness
/// sweep at `depth`, reporting up to 20 stuck terms; independent of the
/// other refine12 obligations.
///
/// # Errors
/// Propagates evaluation errors; budget exhaustion is *not* an error.
pub fn obligation_completeness(
    spec: &AlgSpec,
    depth: usize,
    budget: &Budget,
    threads: usize,
) -> Result<completeness::CompletenessReport> {
    Ok(completeness::exhaustive_budget(spec, depth, STUCK_REPORTED, budget, threads)?)
}

/// [`obligation_completeness`]'s sweep split into plan, strips and merge,
/// with its claim queue sized for `workers` strips: the form the
/// verification battery puts into its own task list.
#[must_use]
pub fn completeness_sweep(
    spec: &AlgSpec,
    depth: usize,
    workers: usize,
) -> completeness::ExhaustiveSweep<'_> {
    completeness::ExhaustiveSweep::new(spec, depth, STUCK_REPORTED, workers)
}

/// The universe construction `M(T2)`: bounded exploration of the
/// algebraic transition system. A per-obligation entry point; the
/// verification battery runs the axiom sweep (obligations (b)/(d)) and the
/// witness enumeration (obligation (c)) on its result.
///
/// `_threads` is ignored: the exploration runs on the calling thread (see
/// [`explore_algebraic_budget`]). The parameter stays only because the
/// benchmark package (`perfbench/`) calls this function by name with a
/// worker count; it goes at the next change to the benchmark. Callers in
/// this workspace pass 1.
///
/// # Errors
/// Propagates exploration errors; budget exhaustion is *not* an error.
pub fn obligation_exploration(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
    _threads: usize,
) -> Result<AlgebraicExploration> {
    explore_algebraic_budget(spec, interp, info_sig, domains, limits, budget)
}

/// Obligations (b) and (d): the per-axiom per-state satisfaction sweep
/// over an explored universe, split into `(static, transition)`
/// violations. When the exploration was truncated by a budget the sweep
/// is skipped (a prefix universe would report spurious partial-model
/// violations) and both lists come back empty — the caller surfaces the
/// exploration's exhaustion instead.
///
/// # Errors
/// Propagates evaluation errors.
pub fn obligation_axioms(
    theory: &Theory,
    spec: &AlgSpec,
    policy: AccessibilityPolicy,
    exploration: &AlgebraicExploration,
) -> Result<(Vec<StateViolation>, Vec<StateViolation>)> {
    if exploration.exhausted.is_some() {
        return Ok((Vec::new(), Vec::new()));
    }

    let universe;
    let u = match policy {
        AccessibilityPolicy::AsIs => &exploration.universe,
        AccessibilityPolicy::TransitiveClosure => {
            let mut c = exploration.universe.clone();
            c.close_reflexive_transitive();
            universe = c;
            &universe
        }
    };

    let mut static_violations = Vec::new();
    let mut transition_violations = Vec::new();
    for ax in &theory.axioms {
        for s in u.state_indices() {
            if !satisfaction::models_at(u, s, &ax.formula)? {
                let v = StateViolation {
                    axiom: ax.name.clone(),
                    state: s,
                    witness: format!(
                        "{}",
                        eclectic_logic::term_display(
                            spec.signature().logic(),
                            &exploration.witnesses[s.index()]
                        )
                    ),
                };
                match ax.kind() {
                    eclectic_logic::ConstraintKind::Static => static_violations.push(v),
                    eclectic_logic::ConstraintKind::Transition => transition_violations.push(v),
                }
            }
        }
    }
    Ok((static_violations, transition_violations))
}

/// One failed dynamic-logic contract: a procedure application whose
/// denotation is not a total function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicFailure {
    /// Procedure name.
    pub proc: String,
    /// The concrete parameter values.
    pub args: Vec<Elem>,
    /// What went wrong (`not total` / `not functional`).
    pub reason: String,
}

/// Outcome of the §5.1.2/§5.3 dynamic-logic obligations: every procedure
/// body without `while`, union or star (see
/// [`eclectic_rpr::Stmt::is_loop_and_choice_free`]) denotes a *total
/// function* on the universe — totality is the PDL validity of
/// `⟨body⟩True`, checked through the batched model checker; functionality
/// is read off the cached denotation. A bare test in such a body can fail
/// totality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynamicReport {
    /// Contract violations found.
    pub failures: Vec<DynamicFailure>,
    /// (proc, args) applications checked.
    pub checked: usize,
    /// Size of the enumerated universe (0 when skipped).
    pub universe_states: usize,
    /// Procedures outside the contract's fragment (containing `while`,
    /// union or star), listed by name and left unchecked.
    pub unchecked_procs: Vec<String>,
    /// Set when the universe exceeded the cap and the check was skipped.
    pub skipped: Option<String>,
    /// Denotation-cache counters, summed over the per-procedure caches
    /// (every functionality read reuses the totality phase's denotation).
    pub cache_stats: eclectic_rpr::CacheStats,
    /// Set when a [`Budget`] tripped: `checked` then counts the
    /// applications verified before stopping.
    pub exhausted: Option<Exhaustion>,
}

impl DynamicReport {
    /// Whether every checked contract holds.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks the dynamic-logic obligations over the representation schema,
/// governed by a [`Budget`]. One serial loop runs every checkable
/// procedure's applications in order, with one denotation cache per
/// procedure; the budget is polled before each application with its
/// serial slot index, so a node cap stops after exactly that many
/// applications, while the denotation itself polls only the timing axes.
/// Exhaustion returns the partial report with `exhausted` set instead of
/// failing.
///
/// `_threads` is ignored: the loop runs on the calling thread. The
/// parameter stays only because the benchmark package (`perfbench/`)
/// calls this function by name with a worker count; it goes at the next
/// change to the benchmark. Callers in this workspace pass 1.
///
/// # Errors
/// Propagates enumeration/evaluation errors (a universe over `cap` is a
/// graceful skip, not an error); budget exhaustion is *not* an error.
pub fn check_dynamic_budget(
    schema: &Schema,
    template: &DbState,
    cap: usize,
    budget: &Budget,
    _threads: usize,
) -> Result<DynamicReport> {
    if let Some(reason) = budget.check(0) {
        return Ok(DynamicReport {
            exhausted: Some(budget.exhaustion("dynamic", reason, 0)),
            ..DynamicReport::default()
        });
    }
    let u = match FiniteUniverse::enumerate(template, schema.relations(), &[], cap) {
        Ok(u) => u,
        Err(RprError::UniverseTooLarge { required, cap }) => {
            return Ok(DynamicReport {
                skipped: Some(format!(
                    "universe of {required} states exceeds the cap of {cap}"
                )),
                ..DynamicReport::default()
            });
        }
        Err(e) => return Err(e.into()),
    };

    let (checkable, unchecked): (Vec<_>, Vec<_>) = schema
        .procs()
        .iter()
        .partition(|proc| proc.body.is_loop_and_choice_free());
    let mut report = DynamicReport {
        universe_states: u.len(),
        unchecked_procs: unchecked.iter().map(|proc| proc.name.clone()).collect(),
        ..DynamicReport::default()
    };
    let timing = budget.without_node_cap();
    for proc in checkable {
        let mut cache = DenoteCache::new();
        let stop = check_proc(&u, proc, &mut cache, budget, &timing, &mut report);
        let stats = cache.stats();
        report.cache_stats.computed += stats.computed;
        report.cache_stats.hits += stats.hits;
        if let Some(reason) = stop? {
            report.exhausted = Some(budget.exhaustion("dynamic", reason, report.checked));
            break;
        }
    }
    Ok(report)
}

/// Runs one procedure's applications, one per argument tuple, into
/// `report`, polling `budget` before each with its serial slot index
/// (`report.checked`). Returns the axis that stopped the loop, if any.
fn check_proc(
    u: &FiniteUniverse,
    proc: &eclectic_rpr::ProcDecl,
    cache: &mut DenoteCache,
    budget: &Budget,
    timing: &Budget,
    report: &mut DynamicReport,
) -> Result<Option<BudgetExceeded>> {
    for args in arg_tuples(u.signature(), u.domains(), &proc.params) {
        if let Some(reason) = budget.check(report.checked) {
            return Ok(Some(reason));
        }
        let mut env = Valuation::new();
        for (&param, &value) in proc.params.iter().zip(&args) {
            env.set(param, value);
        }
        match check_application(u, proc, &args, &env, cache, timing) {
            Ok(failures) => report.failures.extend(failures),
            Err(e) => return crate::reach::budget_stop(&e).map(Some).ok_or(e),
        }
        report.checked += 1;
    }
    Ok(None)
}

/// Checks one procedure application's contracts: totality is the PDL
/// validity of `⟨body⟩True` through the batched model checker;
/// functionality is read off the (now cached) denotation.
fn check_application(
    u: &FiniteUniverse,
    proc: &eclectic_rpr::ProcDecl,
    args: &[Elem],
    env: &Valuation,
    cache: &mut DenoteCache,
    timing: &Budget,
) -> Result<Vec<DynamicFailure>> {
    let mut failures = Vec::new();
    let total = Pdl::after_some(proc.body.clone(), Pdl::Atom(Formula::True));
    let batch = pdl::check_batch_budget_with(std::slice::from_ref(&total), u, env, cache, timing)?;
    if let Some(ex) = batch.exhausted {
        // Re-raise as an error so the application loop unwinds;
        // `check_proc` converts it back into a graceful budget stop.
        return Err(crate::reach::budget_err(ex.reason));
    }
    if !batch.valid[0] {
        failures.push(DynamicFailure {
            proc: proc.name.clone(),
            args: args.to_vec(),
            reason: "not total: some state has no successor".into(),
        });
    }
    // The totality phase cached m(body); this lookup is free.
    let m = denote::meaning_cached(u, &proc.body, env, cache)?;
    if !m.is_functional() {
        failures.push(DynamicFailure {
            proc: proc.name.clone(),
            args: args.to_vec(),
            reason: "not functional: some state has two successors".into(),
        });
    }
    Ok(failures)
}

/// All argument tuples over the parameter sorts (cartesian product).
fn arg_tuples(
    sig: &Signature,
    domains: &Domains,
    params: &[eclectic_logic::VarId],
) -> Vec<Vec<Elem>> {
    let mut out = vec![Vec::new()];
    for &p in params {
        let elems: Vec<Elem> = domains.elems(sig.var(p).sort).collect();
        let mut next = Vec::with_capacity(out.len() * elems.len().max(1));
        for prefix in &out {
            for &e in &elems {
                let mut t = prefix.clone();
                t.push(e);
                next.push(t);
            }
        }
        out = next;
    }
    out
}

/// The consistent states of the explored universe (models of the static
/// axioms) — used by obligation (c).
///
/// # Errors
/// Propagates evaluation errors.
pub fn consistent_states(
    theory: &Theory,
    exploration: &AlgebraicExploration,
) -> Result<Vec<StateIdx>> {
    Ok(constraints::consistent_states(theory, &exploration.universe)?)
}
