//! The §4.4 proof obligations, mechanised as bounded verification:
//!
//! (a) sufficient completeness (termination + exhaustive evaluation);
//! (b) every reachable state is valid (static consistency);
//! (c) every valid state is reachable (see [`crate::witness`]);
//! (d) transition consistency.

use std::sync::Arc;

use eclectic_algebraic::{completeness, termination, AlgSpec};
use eclectic_kernel::{run_tasks_prio, Budget, BudgetExceeded, Exhaustion, Priority};
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
/// A per-obligation entry point, so an obligation-DAG scheduler can run it
/// as its own pool task.
///
/// # Errors
/// Propagates analysis errors.
pub fn obligation_termination(spec: &AlgSpec) -> Result<termination::TerminationReport> {
    Ok(termination::check_termination(spec)?)
}

/// Obligation (a), coverage half: the exhaustive sufficient-completeness
/// sweep at `depth`, reporting up to 20 stuck terms. A per-obligation
/// entry point for obligation-DAG schedulers; independent of the other
/// refine12 obligations.
///
/// # Errors
/// Propagates evaluation errors; budget exhaustion is *not* an error.
pub fn obligation_completeness(
    spec: &AlgSpec,
    depth: usize,
    budget: &Budget,
    threads: usize,
) -> Result<completeness::CompletenessReport> {
    Ok(completeness::exhaustive_budget(spec, depth, 20, budget, threads)?)
}

/// The universe construction `M(T2)`: bounded exploration of the
/// algebraic transition system. A per-obligation entry point; its
/// completion is what unblocks the axiom sweep (obligations (b)/(d)) and
/// the witness enumeration (obligation (c)) in the obligation DAG.
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
    /// Each procedure owns its cache, so the counters do not depend on the
    /// worker count.
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
/// governed by a [`Budget`] and run with `threads` workers. The obligations
/// run as one [`DynamicPlan::run_proc`] unit per procedure, fanned over the
/// shared pool at [`Priority::Bulk`]; each unit owns its denotation cache
/// and polls the budget before each serial-order application slot with the
/// slot index, so a node cap stops after the same number of applications
/// at every worker count; deadline and cancellation stops report the
/// applications whose serial-order prefix completed. Exhaustion returns the
/// partial report with `exhausted` set instead of failing.
///
/// # Errors
/// Propagates enumeration/evaluation errors (a universe over `cap` is a
/// graceful skip, not an error); budget exhaustion is *not* an error.
pub fn check_dynamic_budget(
    schema: &Schema,
    template: &DbState,
    cap: usize,
    budget: &Budget,
    threads: usize,
) -> Result<DynamicReport> {
    let plan = match plan_dynamic(schema, template, cap, budget)? {
        DynamicPrep::Done(report) => return Ok(report),
        DynamicPrep::Plan(plan) => plan,
    };
    let n = plan.procs();
    let plan_ref = &plan;
    let units: Vec<Box<dyn FnOnce() -> Result<DynamicUnitOutcome> + Send + '_>> = (0..n)
        .map(|i| {
            Box::new(move || plan_ref.run_proc(i, budget))
                as Box<dyn FnOnce() -> Result<DynamicUnitOutcome> + Send + '_>
        })
        .collect();
    let workers = eclectic_kernel::effective_workers(threads).min(n);
    let outcomes = run_tasks_prio(workers, Priority::Bulk, units)
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    Ok(plan.merge(outcomes, budget))
}

/// The per-application results of one dynamic obligation unit: slot-keyed
/// failure lists, the unit's cache counters, and its earliest budget stop
/// (serial slot index + reason), if any.
pub type DynamicUnitOutcome = (
    Vec<(usize, Vec<DynamicFailure>)>,
    eclectic_rpr::CacheStats,
    Option<(usize, BudgetExceeded)>,
);

/// What [`plan_dynamic`] produced: either a finished report (empty budget,
/// oversized universe, or no checkable applications) or a plan whose
/// per-procedure obligations can run as independent pool tasks.
pub enum DynamicPrep<'s> {
    /// The check completed (or was skipped) during planning.
    Done(DynamicReport),
    /// Per-procedure obligations remain; see [`DynamicPlan`]. Boxed: the
    /// plan (universe + flattened applications) dwarfs the `Done` report.
    Plan(Box<DynamicPlan<'s>>),
}

/// The flattened dynamic-obligation workload: the enumerated universe plus
/// every (procedure, argument-tuple) application in serial order, grouped
/// into per-procedure slot ranges, so [`check_dynamic_budget`] can run
/// [`DynamicPlan::run_proc`] units in parallel and [`DynamicPlan::merge`]
/// their outcomes into one report.
pub struct DynamicPlan<'s> {
    u: FiniteUniverse,
    apps: Vec<(&'s eclectic_rpr::ProcDecl, Vec<Elem>, Valuation)>,
    proc_ranges: Vec<std::ops::Range<usize>>,
    base: DynamicReport,
    /// Denotation-level governed ops poll only the timing axes; the node
    /// cap stays at the serial-order application slots, so a capped
    /// partial stops after the same slot at every worker count.
    timing: Budget,
}

/// Enumerates the universe and flattens the checkable applications,
/// producing either a finished report or a [`DynamicPlan`].
///
/// # Errors
/// Propagates enumeration errors (a universe over `cap` is a graceful
/// skip, not an error).
pub fn plan_dynamic<'s>(
    schema: &'s Schema,
    template: &DbState,
    cap: usize,
    budget: &Budget,
) -> Result<DynamicPrep<'s>> {
    if let Some(reason) = budget.check(0) {
        return Ok(DynamicPrep::Done(DynamicReport {
            exhausted: Some(budget.exhaustion("dynamic", reason, 0)),
            ..DynamicReport::default()
        }));
    }
    let u = match FiniteUniverse::enumerate(template, schema.relations(), &[], cap) {
        Ok(u) => u,
        Err(RprError::UniverseTooLarge { required, cap }) => {
            return Ok(DynamicPrep::Done(DynamicReport {
                skipped: Some(format!(
                    "universe of {required} states exceeds the cap of {cap}"
                )),
                ..DynamicReport::default()
            }));
        }
        Err(e) => return Err(e.into()),
    };

    let sig = u.signature().clone();
    let domains = u.domains().clone();
    let mut base = DynamicReport {
        universe_states: u.len(),
        ..DynamicReport::default()
    };

    // Flatten the (procedure, argument-tuple) applications in serial order,
    // remembering each procedure's contiguous slot range.
    let mut apps: Vec<(&eclectic_rpr::ProcDecl, Vec<Elem>, Valuation)> = Vec::new();
    let mut proc_ranges = Vec::new();
    for proc in schema.procs() {
        if !proc.body.is_loop_and_choice_free() {
            base.unchecked_procs.push(proc.name.clone());
            continue;
        }
        let start = apps.len();
        for args in arg_tuples(&sig, &domains, &proc.params) {
            let mut env = Valuation::new();
            for (&param, &value) in proc.params.iter().zip(&args) {
                env.set(param, value);
            }
            apps.push((proc, args, env));
        }
        if apps.len() > start {
            proc_ranges.push(start..apps.len());
        }
    }
    base.checked = apps.len();

    let timing = budget.without_node_cap();
    Ok(DynamicPrep::Plan(Box::new(DynamicPlan {
        u,
        apps,
        proc_ranges,
        base,
        timing,
    })))
}

impl<'s> DynamicPlan<'s> {
    /// Number of per-procedure obligation units.
    #[must_use]
    pub fn procs(&self) -> usize {
        self.proc_ranges.len()
    }

    /// Runs the dynamic obligations of procedure unit `i` (one contiguous
    /// slot range, processed in increasing serial order with a private
    /// denotation cache), polling `budget` at each global slot index. The
    /// prefix invariant of the slot-replay merge holds because a unit only
    /// skips slots at or after its own stop.
    ///
    /// # Errors
    /// Propagates non-budget evaluation errors.
    pub fn run_proc(&self, i: usize, budget: &Budget) -> Result<DynamicUnitOutcome> {
        let mut cache = DenoteCache::new();
        let mut out = Vec::new();
        let mut stop = None;
        for k in self.proc_ranges[i].clone() {
            let (proc, args, env) = &self.apps[k];
            if let Some(reason) = budget.check(k) {
                stop = Some((k, reason));
                break;
            }
            match check_application(&self.u, proc, args, env, &mut cache, &self.timing) {
                Ok(failures) => out.push((k, failures)),
                Err(e) => match crate::reach::budget_stop(&e) {
                    Some(reason) => {
                        stop = Some((k, reason));
                        break;
                    }
                    None => return Err(e),
                },
            }
        }
        Ok((out, cache.stats(), stop))
    }

    /// Replays per-unit outcomes in serial slot order into the final
    /// report: earliest stop wins, every slot below it has a verdict, and
    /// the failure list is bit-identical however the units were scheduled.
    /// Cache counters are summed across units; each unit's counters depend
    /// only on its own slot range, so the sums are worker-invariant too.
    #[must_use]
    pub fn merge(self, outcomes: Vec<DynamicUnitOutcome>, budget: &Budget) -> DynamicReport {
        let mut report = self.base;
        let mut slots: Vec<Option<Vec<DynamicFailure>>> = vec![None; self.apps.len()];
        let mut stop: Option<(usize, BudgetExceeded)> = None;
        for (unit, stats, s) in outcomes {
            report.cache_stats.computed += stats.computed;
            report.cache_stats.hits += stats.hits;
            for (k, failures) in unit {
                slots[k] = Some(failures);
            }
            if s.is_some_and(|(k, _)| stop.is_none_or(|(k0, _)| k < k0)) {
                stop = s;
            }
        }
        // Every slot before the earliest stop has an outcome: a unit only
        // skips slots at or after its own stop, and all stops are >= the
        // earliest one.
        let covered = stop.map_or(self.apps.len(), |(k, _)| k);
        for slot in slots.into_iter().take(covered) {
            report.failures.extend(slot.expect("every application checked"));
        }
        if let Some((k, reason)) = stop {
            report.checked = k;
            report.exhausted = Some(budget.exhaustion("dynamic", reason, k));
        }
        report
    }
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
        // Re-raise as an error so the unit loop unwinds; `run_proc`
        // converts it back into a graceful budget stop.
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
