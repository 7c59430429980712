//! Sufficient-completeness checking.
//!
//! Paper §4.1: a specification is *sufficiently complete* iff every ground
//! query term `q(t1, …, tn)` provably equals a parameter name — intuitively,
//! every query can be evaluated. We check this two ways:
//!
//! 1. a **syntactic coverage** pass: every (query, update) pair must have at
//!    least one defining equation (or a state-variable catch-all);
//! 2. an **exhaustive evaluation** pass: every ground query application over
//!    every state term of bounded depth must normalise to a parameter name.

use std::sync::{Arc, OnceLock};

use eclectic_kernel::{
    effective_workers, run_workers, Budget, BudgetExceeded, Exhaustion, IndexQueue, TermId,
};
use eclectic_logic::{FuncId, Term};

use crate::error::{AlgError, Result};
use crate::induction::{GroundSpace, StateIds};
use crate::printer::term_str;
use crate::rewrite::Rewriter;
use crate::signature::AlgSignature;
use crate::spec::AlgSpec;

/// A (query, update) pair with no defining equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingCase {
    /// Query function name.
    pub query: String,
    /// Update constructor name.
    pub update: String,
}

/// A ground query term that did not reduce to a parameter name.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckTerm {
    /// The original query application.
    pub term: String,
    /// Its (non-parameter-name) normal form, or the error message.
    pub normal_form: String,
}

/// Result of the sufficient-completeness analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompletenessReport {
    /// Pairs with no covering equation (syntactic pass).
    pub missing: Vec<MissingCase>,
    /// Terms that failed to evaluate (exhaustive pass).
    pub stuck: Vec<StuckTerm>,
    /// Ground query applications evaluated.
    pub evaluated: usize,
    /// Set when a resource budget stopped the exhaustive pass early: the
    /// verdicts above cover the serial-order prefix of `evaluated`
    /// instances, and nothing is known about the rest.
    pub exhausted: Option<Exhaustion>,
}

impl CompletenessReport {
    /// Whether the specification passed both passes.
    #[must_use]
    pub fn is_sufficiently_complete(&self) -> bool {
        self.missing.is_empty() && self.stuck.is_empty()
    }
}

/// Syntactic coverage: every (query, update) pair must have an equation
/// whose lhs is `q(…, u(…))`, or a catch-all `q(…, U)` with variable state.
///
/// # Errors
/// Propagates signature errors.
pub fn coverage(spec: &AlgSpec) -> Result<Vec<MissingCase>> {
    let sig = spec.signature();
    let mut missing = Vec::new();
    for q in sig.queries() {
        // Catch-all equation: lhs state argument is a bare variable.
        let catch_all = spec.equations_for(q).any(
            |eq| matches!(&eq.lhs, Term::App(_, args) if matches!(args.last(), Some(Term::Var(_)))),
        );
        if catch_all {
            continue;
        }
        for u in sig.updates() {
            let covered = spec
                .equations_for(q)
                .any(|eq| eq.lhs_inner_update(sig) == Some(u));
            if !covered {
                missing.push(MissingCase {
                    query: sig.logic().func(q).name.clone(),
                    update: sig.logic().func(u).name.clone(),
                });
            }
        }
    }
    Ok(missing)
}

/// The exhaustive pass over a pre-enumerated [`GroundSpace`] against a
/// caller-held rewriter, so the sweep can reuse (and further warm) a
/// normal-form memo the caller shares with other passes over the same
/// space. Stops collecting after `max_failures` stuck terms; a
/// `max_failures` of 0 behaves as 1. The resource [`Budget`] is polled
/// before every ground instance; a budget-aborted normalisation inside an
/// instance ([`AlgError::Budget`]) also stops the sweep at that instance
/// instead of mislabelling the term as stuck.
///
/// This is [`ExhaustiveSweep`]'s strip loop run over the whole instance
/// range as one strip, followed by the same event merge. The sweep stays
/// inside the rewriter's store: each query's parameter tuples are interned
/// once, each state once, as one application over its parent's id
/// ([`GroundSpace::state_id`]), every instance is one interned application
/// normalised by id, and only stuck instances are rendered.
///
/// # Errors
/// Propagates unexpected rewriting errors.
pub fn exhaustive_budget_with(
    rw: &mut Rewriter<'_>,
    space: &GroundSpace,
    max_failures: usize,
    budget: &Budget,
) -> Result<CompletenessReport> {
    let block = query_block(rw.spec().signature(), space)?;
    let sweep = CompletenessSweep::new(rw.spec(), space, &block, max_failures);
    let mut ids = StripIds::new(rw, &block);
    let mut events = Strip(Vec::new());
    sweep.run_range_with(rw, &mut ids, 0..sweep.len(), budget, &mut 0, &mut events);
    sweep.merge(vec![events], budget)
}

/// One exhaustive-pass event, tagged with the ground instance's position in
/// the serial enumeration order.
enum EvalEvent {
    Stuck(usize, StuckTerm),
    Fail(usize, AlgError),
    /// The budget tripped before instance `k` was evaluated.
    Budget(usize, BudgetExceeded),
}

impl EvalEvent {
    fn index(&self) -> usize {
        match self {
            EvalEvent::Stuck(k, _) | EvalEvent::Fail(k, _) | EvalEvent::Budget(k, _) => *k,
        }
    }

    /// Replay priority at equal index: a budget stop *before* instance `k`
    /// precedes any verdict *about* instance `k`.
    fn priority(&self) -> u8 {
        match self {
            EvalEvent::Budget(..) => 0,
            EvalEvent::Stuck(..) | EvalEvent::Fail(..) => 1,
        }
    }
}

/// Exhaustive evaluation of all ground query applications over all state
/// terms with at most `max_steps` updates, with `threads` workers: the
/// [`ExhaustiveSweep`] with one strip per worker on
/// [`run_workers`]. Stops collecting after `max_failures` stuck terms; a
/// `max_failures` of 0 behaves as 1. The sweep polls `budget` before every
/// ground instance (in serial enumeration order) and, when it trips,
/// returns the verdicts for the completed prefix with
/// [`CompletenessReport::exhausted`] set.
///
/// Every worker count runs the same strip loop and the same merge (one
/// worker runs one strip), so reports are bit-identical across worker
/// counts (same `stuck` contents and ordering, same `evaluated` count):
/// workers claim contiguous instance ranges in increasing order, each
/// instance's verdict is order-independent, and the merge replays the
/// events in serial order — including the early stop once `max_failures`
/// stuck terms have accumulated. Workers poll the budget before each of
/// their serial-order slots, so a node-cap stop happens at the same
/// instance index at every worker count; a deadline stop yields a valid
/// serial prefix whose length depends on timing.
///
/// # Errors
/// Propagates unexpected rewriting errors (fuel exhaustion is recorded as a
/// stuck term instead); the earliest error in enumeration order wins.
pub fn exhaustive_budget(
    spec: &AlgSpec,
    max_steps: usize,
    max_failures: usize,
    budget: &Budget,
    threads: usize,
) -> Result<CompletenessReport> {
    let workers = effective_workers(threads);
    let sweep = ExhaustiveSweep::new(spec, max_steps, max_failures, workers);
    let shared = &sweep;
    let strips = run_workers(workers, |_| move || shared.strip(budget));
    sweep.merge(strips, budget)
}

/// The exhaustive pass split into parts a caller can put into its own task
/// list: [`ExhaustiveSweep::plan`] enumerates the ground space once, each
/// [`ExhaustiveSweep::strip`] evaluates the instance chunks it claims on a
/// private rewriter, and [`ExhaustiveSweep::merge`] replays the strips in
/// serial order. The parts may run on any threads in any order: whichever
/// asks first builds the plan through [`OnceLock::get_or_init`], the others
/// wait for it, and a planner that panics leaves the next one to plan
/// again rather than wait forever.
pub struct ExhaustiveSweep<'s> {
    spec: &'s AlgSpec,
    max_steps: usize,
    max_failures: usize,
    workers: usize,
    /// What the strips share: the ground space, its query block and the
    /// claim queue over its instances.
    plan: OnceLock<Result<(GroundSpace, QueryBlock, IndexQueue)>>,
}

/// The events of one [`ExhaustiveSweep::strip`].
pub struct Strip(Vec<EvalEvent>);

impl<'s> ExhaustiveSweep<'s> {
    /// The sweep over the state terms with at most `max_steps` updates,
    /// reporting up to `max_failures` stuck terms (0 behaves as 1), its
    /// claim queue sized for `workers` strips. Nothing is enumerated yet.
    #[must_use]
    pub fn new(spec: &'s AlgSpec, max_steps: usize, max_failures: usize, workers: usize) -> Self {
        ExhaustiveSweep {
            spec,
            max_steps,
            max_failures,
            workers,
            plan: OnceLock::new(),
        }
    }

    /// Builds the plan unless a part already has; a planning error is
    /// reported by [`ExhaustiveSweep::merge`].
    pub fn plan(&self) {
        let _ = self.planned();
    }

    fn planned(&self) -> Result<(CompletenessSweep<'_>, &IndexQueue)> {
        let (spec, max_failures) = (self.spec, self.max_failures);
        let plan = self.plan.get_or_init(|| {
            let space = GroundSpace::new(spec.signature(), self.max_steps)?;
            let block = query_block(spec.signature(), &space)?;
            let len = CompletenessSweep::new(spec, &space, &block, max_failures).len();
            Ok((space, block, IndexQueue::new(len, self.workers)))
        });
        let (space, block, queue) = plan.as_ref().map_err(AlgError::clone)?;
        let sweep = CompletenessSweep::new(spec, space, block, max_failures);
        Ok((sweep, queue))
    }

    /// Claims instance chunks until none is left, or this strip stops, and
    /// evaluates them in increasing order on a private rewriter, which keeps
    /// the ids of the states it has interned across chunks.
    #[must_use]
    pub fn strip(&self, budget: &Budget) -> Strip {
        let mut events = Strip(Vec::new());
        if let Ok((sweep, queue)) = self.planned() {
            let mut rw = Rewriter::new(self.spec);
            rw.set_budget(budget.without_node_cap());
            let mut ids = StripIds::new(&mut rw, sweep.block);
            let mut stuck_seen = 0usize;
            while let Some(range) = queue.claim() {
                if !sweep.run_range_with(
                    &mut rw,
                    &mut ids,
                    range,
                    budget,
                    &mut stuck_seen,
                    &mut events,
                ) {
                    break;
                }
            }
        }
        events
    }

    /// Replays the strips, in any order, into the serial report.
    ///
    /// # Errors
    /// Propagates a planning error, then the earliest rewriting error in
    /// enumeration order.
    pub fn merge(&self, strips: Vec<Strip>, budget: &Budget) -> Result<CompletenessReport> {
        self.planned()?.0.merge(strips, budget)
    }
}

/// One state's block of ground instances in serial order: every query, in
/// signature order, with the ground space's parameter tuples over its sorts.
type QueryBlock = Vec<(FuncId, Arc<Vec<Vec<Term>>>)>;

/// What one strip interns into its rewriter's store: every parameter tuple
/// of the query block, once, and each state it reaches, once.
struct StripIds {
    block: Vec<(FuncId, Vec<Vec<TermId>>)>,
    states: StateIds,
}

impl StripIds {
    fn new(rw: &mut Rewriter<'_>, block: &QueryBlock) -> Self {
        let block = block
            .iter()
            .map(|(q, tuples)| {
                let ids = tuples
                    .iter()
                    .map(|params| params.iter().map(|p| rw.intern(p)).collect())
                    .collect();
                (*q, ids)
            })
            .collect();
        StripIds {
            block,
            states: StateIds::default(),
        }
    }
}

/// The [`QueryBlock`] of `space`.
///
/// # Errors
/// Propagates signature errors.
fn query_block(sig: &AlgSignature, space: &GroundSpace) -> Result<QueryBlock> {
    sig.queries()
        .map(|q| Ok((q, space.tuples(sig, &sig.query_params(q)?)?)))
        .collect()
}

/// The exhaustive-evaluation workload: every ground query application in
/// serial enumeration order (states outer, then queries, then parameter
/// tuples), addressed by slot index without materialising any instance.
/// Strips evaluate contiguous slot ranges; [`CompletenessSweep::merge`]
/// replays any set of strip results covering the serial prefix into the
/// serial report, bit-identical however the ranges were scheduled or
/// partitioned.
struct CompletenessSweep<'s> {
    spec: &'s AlgSpec,
    space: &'s GroundSpace,
    block: &'s QueryBlock,
    /// Ground instances per state: the block's total tuple count.
    per_state: usize,
    max_failures: usize,
}

impl<'s> CompletenessSweep<'s> {
    fn new(
        spec: &'s AlgSpec,
        space: &'s GroundSpace,
        block: &'s QueryBlock,
        max_failures: usize,
    ) -> Self {
        let per_state = block.iter().map(|(_, tuples)| tuples.len()).sum();
        CompletenessSweep {
            spec,
            space,
            block,
            per_state,
            max_failures,
        }
    }

    /// Total number of ground instances.
    fn len(&self) -> usize {
        self.space.states().len() * self.per_state
    }

    /// Slot `k`'s (state, query, tuple) indices. Only called for
    /// `k < self.len()`, where `per_state` is nonzero.
    fn decode(&self, k: usize) -> (usize, usize, usize) {
        let mut tuple = k % self.per_state;
        let mut query = 0;
        while tuple >= self.block[query].1.len() {
            tuple -= self.block[query].1.len();
            query += 1;
        }
        (k / self.per_state, query, tuple)
    }

    /// The shared strip loop: evaluates `range` in increasing slot order
    /// against a caller-held rewriter and the strip's interned ids, carrying
    /// the caller's running stuck count. Returns `false` when the caller
    /// should stop claiming more ranges (budget stop, error event, or local
    /// stuck cap reached).
    fn run_range_with(
        &self,
        rw: &mut Rewriter<'_>,
        ids: &mut StripIds,
        range: std::ops::Range<usize>,
        budget: &Budget,
        stuck_seen: &mut usize,
        out: &mut Strip,
    ) -> bool {
        for k in range {
            // Budget poll at the slot boundary: the instance index stands
            // in for node accounting, so a node-cap stop lands on the same
            // slot at every worker count and strip partition.
            if let Some(reason) = budget.check(k) {
                out.0.push(EvalEvent::Budget(k, reason));
                return false;
            }
            let (s, query, tuple) = self.decode(k);
            // Slots of one state are contiguous: the state is interned on
            // entering its block, and read from the strip's ids after.
            let st = self.space.state_id(rw, &mut ids.states, s);
            let (q, tuples) = &ids.block[query];
            match eval_instance(rw, *q, &tuples[tuple], st) {
                Ok(None) => {}
                Ok(Some(stuck)) => {
                    out.0.push(EvalEvent::Stuck(k, stuck));
                    *stuck_seen += 1;
                    // This strip alone has reached the global cap; the
                    // serial-order replay stops at or before the index
                    // where that happens, and slots within a strip are
                    // processed in increasing order, so everything further
                    // is unreachable.
                    if *stuck_seen >= self.max_failures {
                        return false;
                    }
                }
                Err(AlgError::Budget { reason }) => {
                    out.0.push(EvalEvent::Budget(k, reason));
                    return false;
                }
                Err(e) => {
                    out.0.push(EvalEvent::Fail(k, e));
                    return false;
                }
            }
        }
        true
    }

    /// Replays strip events in serial order into the final report —
    /// including the early stop once `max_failures` stuck terms have
    /// accumulated. Every strip covered its slots at least up to the
    /// globally earliest stop (local early exits happen at or past that
    /// point), so no event below the replay's stop is missing.
    ///
    /// # Errors
    /// Propagates the earliest rewriting error in enumeration order.
    fn merge(&self, strips: Vec<Strip>, budget: &Budget) -> Result<CompletenessReport> {
        let mut report = CompletenessReport {
            missing: coverage(self.spec)?,
            ..CompletenessReport::default()
        };
        let mut events: Vec<EvalEvent> = strips.into_iter().flat_map(|s| s.0).collect();
        events.sort_by_key(|ev| (ev.index(), ev.priority()));
        for ev in events {
            match ev {
                EvalEvent::Fail(_, e) => return Err(e),
                EvalEvent::Budget(k, reason) => {
                    report.evaluated = k;
                    report.exhausted = Some(budget.exhaustion("completeness", reason, k));
                    return Ok(report);
                }
                EvalEvent::Stuck(k, stuck) => {
                    report.stuck.push(stuck);
                    if report.stuck.len() >= self.max_failures {
                        report.evaluated = k + 1;
                        return Ok(report);
                    }
                }
            }
        }
        report.evaluated = self.len();
        Ok(report)
    }
}

/// Evaluates the ground query application `q(params…, state)` by id: `None`
/// when it reduces to a parameter name, `Some` when it is stuck (including
/// fuel exhaustion and a guard that cannot be decided because a side of it
/// is stuck). Only a stuck instance is externed and rendered.
fn eval_instance(
    rw: &mut Rewriter<'_>,
    q: FuncId,
    params: &[TermId],
    state: TermId,
) -> Result<Option<StuckTerm>> {
    let t = rw.app_state(q, params, state);
    let normal_form = match rw.normalize_id(t) {
        Ok(n) if rw.is_param_name(n) => return Ok(None),
        Ok(n) => render(rw, n),
        Err(AlgError::RewriteLimit { at, .. }) => format!("<fuel exhausted at {at}>"),
        Err(AlgError::ConditionUndecided { term }) => format!("<condition undecided: {term}>"),
        Err(e) => return Err(e),
    };
    Ok(Some(StuckTerm {
        term: render(rw, t),
        normal_form,
    }))
}

/// Renders an interned term in the concrete syntax.
fn render(rw: &Rewriter<'_>, t: TermId) -> String {
    term_str(rw.spec().signature(), &rw.extern_term(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_equations;
    use crate::signature::AlgSignature;

    fn exhaustive(
        spec: &AlgSpec,
        max_steps: usize,
        max_failures: usize,
    ) -> Result<CompletenessReport> {
        exhaustive_budget(spec, max_steps, max_failures, &Budget::unlimited(), 1)
    }

    fn sig() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a
    }

    #[test]
    fn complete_spec_passes() {
        let mut a = sig();
        let eqs = parse_equations(
            &mut a,
            &[
                ("eq1", "offered(c, initiate) = False"),
                ("eq3", "offered(c, offer(c, U)) = True"),
                (
                    "eq4",
                    "c != c' ==> offered(c, offer(c', U)) = offered(c, U)",
                ),
                ("eq6", "offered(c, cancel(c, U)) = False"),
                (
                    "eq7",
                    "c != c' ==> offered(c, cancel(c', U)) = offered(c, U)",
                ),
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let report = exhaustive(&spec, 3, 10).unwrap();
        assert!(report.is_sufficiently_complete(), "{report:?}");
        assert!(report.evaluated > 0);
    }

    #[test]
    fn missing_update_case_detected() {
        let mut a = sig();
        let eqs = parse_equations(
            &mut a,
            &[
                ("eq1", "offered(c, initiate) = False"),
                ("eq3", "offered(c, offer(c, U)) = True"),
                (
                    "eq4",
                    "c != c' ==> offered(c, offer(c', U)) = offered(c, U)",
                ),
                // cancel is not covered at all.
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let missing = coverage(&spec).unwrap();
        assert_eq!(
            missing,
            vec![MissingCase {
                query: "offered".into(),
                update: "cancel".into()
            }]
        );
        let report = exhaustive(&spec, 2, 5).unwrap();
        assert!(!report.is_sufficiently_complete());
        assert!(!report.stuck.is_empty());
    }

    #[test]
    fn partial_condition_coverage_detected_only_by_evaluation() {
        // Syntactically covered, but the equation only handles c = c':
        // ground instances with c ≠ c' get stuck. The exhaustive pass
        // catches what the coverage pass cannot.
        let mut a = sig();
        let eqs = parse_equations(
            &mut a,
            &[
                ("eq1", "offered(c, initiate) = False"),
                ("eq3", "offered(c, offer(c, U)) = True"),
                ("eq6", "offered(c, cancel(c, U)) = False"),
                (
                    "eq7",
                    "c != c' ==> offered(c, cancel(c', U)) = offered(c, U)",
                ),
                // eq4 missing: offered(c, offer(c', U)) with c ≠ c' is stuck.
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        assert!(coverage(&spec).unwrap().is_empty());
        let report = exhaustive(&spec, 2, 50).unwrap();
        assert!(!report.is_sufficiently_complete());
        assert!(report.stuck.iter().any(|s| s.term.contains("offer")));
    }

    #[test]
    fn catch_all_counts_as_coverage() {
        let mut a = sig();
        let eqs = parse_equations(&mut a, &[("all", "offered(c, U) = False")]).unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        assert!(coverage(&spec).unwrap().is_empty());
        let report = exhaustive(&spec, 2, 5).unwrap();
        assert!(report.is_sufficiently_complete());
    }
}
