//! The induced mapping `M` from an algebraic specification to a Kripke
//! universe of the information level (paper §4.3's "alternative semantical
//! characterization of correct refinement").
//!
//! Each reachable ground state term (trace of updates) is mapped, through
//! the interpretation `I`, to a structure of `L1`: the table of db-predicate
//! `p` is the set of parameter tuples whose interpreting query evaluates to
//! `True` by rewriting. States are deduplicated by their *full* observation
//! table (observational equality, §4.1); accessibility edges are single
//! update applications.
//!
//! Exploration is one breadth-first search over one [`Rewriter`]; it runs
//! as a single obligation unit of the verification battery and has no
//! worker grain of its own.

use std::sync::Arc;

use eclectic_algebraic::induction::SuccessorPlan;
use eclectic_algebraic::{induction, observe, AlgError, AlgSpec, Rewriter};
use eclectic_kernel::{Budget, BudgetExceeded, Exhaustion, FxHashMap, TermId};
use eclectic_logic::{Domains, Signature, Structure, Term};
use eclectic_temporal::{StateIdx, Universe};

use crate::bridge::ParamBridge;
use crate::error::{RefineError, Result};
use crate::interp1::InterpretationI;

/// Bounds for algebraic exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgExploreLimits {
    /// Maximum update applications from `initiate`.
    pub max_depth: usize,
    /// Maximum distinct (observational) states.
    pub max_states: usize,
}

impl Default for AlgExploreLimits {
    fn default() -> Self {
        AlgExploreLimits {
            max_depth: 6,
            max_states: 10_000,
        }
    }
}

/// The result of exploring an algebraic specification into a universe.
#[derive(Debug, Clone)]
pub struct AlgebraicExploration {
    /// The induced Kripke universe `M(T2)` over the information signature.
    pub universe: Universe,
    /// A witness trace term per universe state, in state-index order.
    pub witnesses: Vec<Term>,
    /// Depth (updates from `initiate`) at which each state was first seen.
    pub depth: Vec<usize>,
    /// Whether exploration hit a limit.
    pub truncated: bool,
    /// Whether two observationally distinct states collapsed onto the same
    /// `L1` structure (the interpretation abstracts information away).
    pub abstraction_collision: bool,
    /// Set when a [`Budget`] tripped: the exploration holds the levels
    /// completed before exhaustion (`truncated` is also set).
    pub exhausted: Option<Exhaustion>,
}

/// Explores the reachable states of `spec` and builds `M(T2)` by a
/// breadth-first search over a private [`eclectic_kernel::TermStore`].
/// States are deduplicated by *packed observation id* (one interned tuple
/// node per observation row — see [`observe::ObsKeys::key_id`]), so
/// frontier lookup is a single id hash.
///
/// The [`Budget`]'s node cap is polled once per BFS level against the term
/// store's node count, so it stops at a level boundary; a deadline trip
/// interrupts the rewriter mid-level and stops at the enclosing level.
/// Exhaustion sets `truncated` and `exhausted` on the partial exploration
/// instead of failing.
///
/// # Errors
/// Propagates rewriting/bridge errors; limit hits set `truncated`, and
/// budget exhaustion `exhausted`, instead of failing.
pub fn explore_algebraic_budget(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
) -> Result<AlgebraicExploration> {
    let mut rw = Rewriter::new(spec);
    let mut ex = Explore::new(info_sig, domains);
    if let Some(reason) = budget.check(rw.store().len()) {
        ex.exhaust(budget, reason, 0);
        return Ok(ex.finish());
    }
    // The search polls the node cap itself at level boundaries; the
    // rewriter only watches the timing axis (the deadline).
    rw.set_budget(budget.without_node_cap());
    let mut level = 0usize;
    if let Err(e) = explore_body(spec, interp, info_sig, domains, limits, budget, &mut rw, &mut ex, &mut level)
    {
        match budget_stop(&e) {
            Some(reason) => ex.exhaust(budget, reason, level),
            None => return Err(e),
        }
    }
    Ok(ex.finish())
}

/// Extracts the budget-trip reason from a propagated rewriting error, if
/// that is what `e` is.
pub(crate) fn budget_stop(e: &RefineError) -> Option<BudgetExceeded> {
    match e {
        RefineError::Alg(AlgError::Budget { reason }) => Some(*reason),
        RefineError::Rpr(eclectic_rpr::RprError::Budget { reason }) => Some(*reason),
        _ => None,
    }
}

/// A budget trip re-raised as an error so the exploration bodies can unwind
/// through `?`; the wrappers convert it back into a graceful partial report.
pub(crate) fn budget_err(reason: BudgetExceeded) -> RefineError {
    RefineError::Alg(AlgError::Budget { reason })
}

/// Shared per-exploration context for state admission.
struct AdmitCtx<'c> {
    keys: &'c observe::ObsKeys,
    interp: &'c InterpretationI,
    bridge: &'c ParamBridge,
    info_sig: &'c Arc<Signature>,
    domains: &'c Arc<Domains>,
}

/// Mutable exploration state.
struct Explore {
    universe: Universe,
    witnesses: Vec<Term>,
    depth: Vec<usize>,
    by_obs: FxHashMap<TermId, StateIdx>,
    truncated: bool,
    abstraction_collision: bool,
    exhausted: Option<Exhaustion>,
}

impl Explore {
    fn new(info_sig: &Arc<Signature>, domains: &Arc<Domains>) -> Self {
        Explore {
            universe: Universe::new(info_sig.clone(), domains.clone()),
            witnesses: Vec::new(),
            depth: Vec::new(),
            by_obs: FxHashMap::default(),
            truncated: false,
            abstraction_collision: false,
            exhausted: None,
        }
    }

    /// Admits an interned ground state term: deduplicates by packed
    /// observation id, computes the induced structure only for fresh
    /// observational states. Returns the state index and whether it is a
    /// fresh frontier entry.
    fn admit(
        &mut self,
        rw: &mut Rewriter<'_>,
        ctx: &AdmitCtx<'_>,
        row: &mut Vec<TermId>,
        term: TermId,
        d: usize,
    ) -> Result<(StateIdx, bool)> {
        let obs = ctx.keys.key_id(rw, term, row)?;
        if let Some(&idx) = self.by_obs.get(&obs) {
            return Ok((idx, false));
        }
        let st = structure_of_id(rw, ctx.interp, ctx.bridge, ctx.info_sig, ctx.domains, term)?;
        let pre_existing = self.universe.find_state(&st).is_some();
        let (idx, fresh) = self.universe.add_state(st)?;
        if pre_existing {
            // Same L1 structure reached from a different observation table.
            self.abstraction_collision = true;
            self.by_obs.insert(obs, idx);
            return Ok((idx, false));
        }
        debug_assert!(fresh);
        self.by_obs.insert(obs, idx);
        self.witnesses.push(rw.extern_term(term));
        self.depth.push(d);
        Ok((idx, true))
    }

    fn finish(self) -> AlgebraicExploration {
        AlgebraicExploration {
            universe: self.universe,
            witnesses: self.witnesses,
            depth: self.depth,
            truncated: self.truncated,
            abstraction_collision: self.abstraction_collision,
            exhausted: self.exhausted,
        }
    }

    /// Records a budget trip: the exploration so far becomes the partial
    /// result, marked truncated.
    fn exhaust(&mut self, budget: &Budget, reason: BudgetExceeded, levels: usize) {
        self.truncated = true;
        self.exhausted = Some(budget.exhaustion("explore", reason, levels));
    }
}

#[allow(clippy::too_many_arguments)]
fn explore_body(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
    rw: &mut Rewriter<'_>,
    ex: &mut Explore,
    level: &mut usize,
) -> Result<()> {
    let bridge = ParamBridge::new(spec.signature(), info_sig, domains)?;
    let keys = observe::ObsKeys::new(rw)?;
    let plan = SuccessorPlan::new(rw)?;
    let ctx = AdmitCtx {
        keys: &keys,
        interp,
        bridge: &bridge,
        info_sig,
        domains,
    };

    let mut row: Vec<TermId> = Vec::with_capacity(keys.arity());
    let mut succs: Vec<TermId> = Vec::with_capacity(plan.count());

    let initials = induction::initial_state_ids(rw)?;
    if initials.is_empty() {
        return Err(RefineError::Alg(
            eclectic_algebraic::AlgError::BadDescription("no initial state constant".into()),
        ));
    }

    let mut queue: std::collections::VecDeque<(StateIdx, TermId, usize)> =
        std::collections::VecDeque::new();
    for t in initials {
        let (idx, fresh) = ex.admit(rw, &ctx, &mut row, t, 0)?;
        if fresh {
            queue.push_back((idx, t, 0));
        }
    }

    while let Some((idx, term, d)) = queue.pop_front() {
        if d >= limits.max_depth {
            ex.truncated = true;
            continue;
        }
        if d > *level {
            // First pop of a new BFS level: every shallower state has been
            // expanded, so the store's node count here is a pure function of
            // the levels completed.
            *level = d;
            if let Some(reason) = budget.check(rw.store().len()) {
                return Err(budget_err(reason));
            }
        }
        plan.successors_into(rw, term, &mut succs);
        for &succ in &succs {
            if ex.universe.state_count() >= limits.max_states {
                ex.truncated = true;
                break;
            }
            let (sidx, fresh) = ex.admit(rw, &ctx, &mut row, succ, d + 1)?;
            ex.universe.add_edge(idx, sidx);
            if fresh {
                queue.push_back((sidx, succ, d + 1));
            }
        }
    }

    Ok(())
}

/// Builds the `L1` structure induced by a ground state term: each
/// db-predicate holds of the tuples whose interpreting query rewrites to
/// `True`.
pub fn structure_of(
    rw: &mut Rewriter<'_>,
    interp: &InterpretationI,
    bridge: &ParamBridge,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    state_term: &Term,
) -> Result<Structure> {
    let state = rw.intern(state_term);
    structure_of_id(rw, interp, bridge, info_sig, domains, state)
}

/// As [`structure_of`], over an already-interned state term — the hot-path
/// variant used by exploration: queries are evaluated by id with no term
/// trees built.
pub fn structure_of_id(
    rw: &mut Rewriter<'_>,
    interp: &InterpretationI,
    bridge: &ParamBridge,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    state: TermId,
) -> Result<Structure> {
    let alg = rw.spec().signature().clone();
    let mut st = Structure::new(info_sig.clone(), domains.clone());
    let tru = rw.true_id();
    let fls = rw.false_id();
    for (p, q) in interp.pairs() {
        let qsorts = alg.query_params(q)?;
        let lsorts: Vec<_> = qsorts
            .iter()
            .map(|&s| bridge.logic_sort(s))
            .collect::<Result<_>>()?;
        for tuple in domains.tuples(&lsorts) {
            let args: Vec<TermId> = tuple
                .iter()
                .zip(&lsorts)
                .map(|(&e, &s)| Ok(rw.app_id(bridge.constant(s, e)?, &[])))
                .collect::<Result<_>>()?;
            let v = rw.eval_query_id(q, &args, state)?;
            if v == tru {
                st.insert_pred(p, tuple)?;
            } else if v != fls {
                return Err(RefineError::Alg(
                    eclectic_algebraic::AlgError::NotSufficientlyComplete {
                        term: eclectic_algebraic::term_str(&alg, &rw.extern_term(v)),
                    },
                ));
            }
        }
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_algebraic::{parse_equations, AlgSignature};

    /// Offered-only courses spec over 2 courses.
    fn setup() -> (AlgSpec, InterpretationI, Arc<Signature>, Arc<Domains>) {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("q_offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        let eqs = parse_equations(
            &mut a,
            &[
                ("eq1", "q_offered(c, initiate) = False"),
                ("eq3", "q_offered(c, offer(c, U)) = True"),
                (
                    "eq4",
                    "c != c' ==> q_offered(c, offer(c', U)) = q_offered(c, U)",
                ),
                ("eq6", "q_offered(c, cancel(c, U)) = False"),
                (
                    "eq7",
                    "c != c' ==> q_offered(c, cancel(c', U)) = q_offered(c, U)",
                ),
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();

        let mut info = Signature::new();
        let icourse = info.add_sort("course").unwrap();
        info.add_db_predicate("offered", &[icourse]).unwrap();
        let dom = Domains::from_names(&info, &[("course", &["db", "ai"])]).unwrap();
        let interp =
            InterpretationI::new(&info, spec.signature(), &[("offered", "q_offered")]).unwrap();
        (spec, interp, Arc::new(info), Arc::new(dom))
    }

    /// An unbudgeted exploration.
    fn explore(
        spec: &AlgSpec,
        interp: &InterpretationI,
        info: &Arc<Signature>,
        dom: &Arc<Domains>,
        limits: AlgExploreLimits,
    ) -> AlgebraicExploration {
        let budget = Budget::unlimited();
        explore_algebraic_budget(spec, interp, info, dom, limits, &budget).unwrap()
    }

    #[test]
    fn explores_the_powerset_of_offers() {
        let (spec, interp, info, dom) = setup();
        let limits = AlgExploreLimits {
            max_depth: 5,
            max_states: 100,
        };
        let exp = explore(&spec, &interp, &info, &dom, limits);
        // offer/cancel generate all 4 subsets of {db, ai}.
        assert_eq!(exp.universe.state_count(), 4);
        assert!(!exp.truncated);
        assert!(!exp.abstraction_collision);
        assert_eq!(exp.witnesses.len(), 4);
        // Every state has 4 outgoing edges (2 offers + 2 cancels), possibly
        // self-looping; count distinct targets ≥ 1.
        for s in exp.universe.state_indices() {
            assert!(!exp.universe.successors(s).is_empty());
        }
        // Depths: initiate at 0; singletons at 1; full set at 2.
        assert_eq!(exp.depth.iter().filter(|&&d| d == 0).count(), 1);
        assert_eq!(exp.depth.iter().filter(|&&d| d == 1).count(), 2);
        assert_eq!(exp.depth.iter().filter(|&&d| d == 2).count(), 1);
    }

    #[test]
    fn depth_limit_truncates() {
        let (spec, interp, info, dom) = setup();
        let limits = AlgExploreLimits {
            max_depth: 1,
            max_states: 100,
        };
        let exp = explore(&spec, &interp, &info, &dom, limits);
        assert!(exp.truncated);
        assert_eq!(exp.universe.state_count(), 3); // {} and the singletons
    }

    #[test]
    fn structures_reflect_queries() {
        let (spec, interp, info, dom) = setup();
        let alg = spec.signature().clone();
        let bridge = ParamBridge::new(&alg, &info, &dom).unwrap();
        let mut rw = Rewriter::new(&spec);
        let initiate = alg.logic().func_id("initiate").unwrap();
        let offer = alg.logic().func_id("offer").unwrap();
        let db = Term::constant(alg.logic().func_id("db").unwrap());
        let t = Term::App(offer, vec![db, Term::constant(initiate)]);
        let st = structure_of(&mut rw, &interp, &bridge, &info, &dom, &t).unwrap();
        let offered = info.pred_id("offered").unwrap();
        assert!(st.pred_holds(offered, &[eclectic_logic::Elem(0)]));
        assert!(!st.pred_holds(offered, &[eclectic_logic::Elem(1)]));
    }

    #[test]
    fn node_cap_zero_exhausts_before_exploring() {
        let (spec, interp, info, dom) = setup();
        let budget = Budget::unlimited().with_max_nodes(0);
        let exp = explore_algebraic_budget(
            &spec,
            &interp,
            &info,
            &dom,
            AlgExploreLimits::default(),
            &budget,
        )
        .unwrap();
        assert_eq!(exp.universe.state_count(), 0);
        assert!(exp.truncated);
        let e = exp.exhausted.expect("node cap 0 must exhaust");
        assert_eq!(e.stage, "explore");
        assert_eq!(e.completed_units, 0);
    }

    #[test]
    fn expired_deadline_returns_partial_exploration() {
        let (spec, interp, info, dom) = setup();
        let budget = Budget::unlimited().with_deadline_ms(0);
        let exp = explore_algebraic_budget(
            &spec,
            &interp,
            &info,
            &dom,
            AlgExploreLimits::default(),
            &budget,
        )
        .unwrap();
        assert!(exp.truncated);
        let e = exp.exhausted.expect("an expired deadline must exhaust");
        assert_eq!(e.reason, eclectic_kernel::BudgetExceeded::Deadline);
    }
}
