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
//! # Parallel exploration
//!
//! [`explore_algebraic_budget`] runs a *level-synchronous* breadth-first
//! search: with more than one worker every BFS level is split across
//! worker threads, each owning a thread-local
//! [`Rewriter`] over a [`StoreHandle`] of one shared
//! [`ConcurrentTermStore`], plus a [`SharedMemo`] so normal forms computed
//! by one worker are reused by all. Workers evaluate observation keys and
//! candidate structures; the main thread then merges discoveries serially
//! in (parent order, successor order) — exactly the order the serial FIFO
//! search admits states — so state numbering, edges, witnesses and depths
//! are **bit-identical** to the single-threaded result.
//!
//! Worker-side structure computation keyed by observation id is sound
//! because the observation key covers *every* query at *every* parameter
//! tuple, and the induced structure is a function of exactly those query
//! values: equal keys imply equal structures.

use std::sync::Arc;

use eclectic_algebraic::induction::SuccessorPlan;
use eclectic_algebraic::{induction, observe, AlgError, AlgSpec, Rewriter};
use eclectic_kernel::{
    run_tasks, Budget, BudgetExceeded, ConcurrentTermStore, Exhaustion, FxHashMap, IndexQueue,
    Interner, SharedMemo, StoreHandle, TermId,
};
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

/// Explores the reachable states of `spec` and builds `M(T2)` with
/// `threads` workers. `threads <= 1` runs the serial search over a private
/// [`eclectic_kernel::TermStore`]; more workers run the level-synchronous
/// parallel search over a shared [`ConcurrentTermStore`]. Both produce
/// bit-identical explorations.
///
/// The [`Budget`] is polled once per BFS level against the term store's
/// node count, so a node cap stops at the same level boundary regardless of
/// worker count; deadline and cancellation trips additionally interrupt
/// workers mid-level and stop at the enclosing level. Exhaustion sets
/// `truncated` and `exhausted` on the partial exploration instead of
/// failing.
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
    threads: usize,
) -> Result<AlgebraicExploration> {
    let threads = eclectic_kernel::effective_workers(threads);
    if threads <= 1 {
        explore_serial(
            spec,
            interp,
            info_sig,
            domains,
            limits,
            budget,
            Rewriter::new(spec),
        )
    } else {
        explore_parallel(spec, interp, info_sig, domains, limits, budget, threads)
    }
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

/// Mutable exploration state shared by admission and merge.
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
    fn admit<S: Interner>(
        &mut self,
        rw: &mut Rewriter<'_, S>,
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
        self.insert_fresh_obs(obs, st, || rw.extern_term(term), d)
    }

    /// Installs a structure for a fresh observation id (not in `by_obs`).
    /// `witness` is only materialised when the structure is genuinely new.
    fn insert_fresh_obs(
        &mut self,
        obs: TermId,
        st: Structure,
        witness: impl FnOnce() -> Term,
        d: usize,
    ) -> Result<(StateIdx, bool)> {
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
        self.witnesses.push(witness());
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

/// The serial search, generic over the term-store backend. States are
/// deduplicated by *packed observation id* (one interned tuple node per
/// observation row — see [`observe::ObsKeys::key_id`]), so frontier lookup
/// is a single id hash. Observation rows and successor lists reuse scratch
/// buffers across states.
fn explore_serial<S: Interner>(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
    mut rw: Rewriter<'_, S>,
) -> Result<AlgebraicExploration> {
    let mut ex = Explore::new(info_sig, domains);
    if let Some(reason) = budget.check(rw.store().len()) {
        ex.exhaust(budget, reason, 0);
        return Ok(ex.finish());
    }
    // The search polls the node cap itself at level boundaries; the
    // rewriter only watches the timing axes (deadline, cancellation).
    rw.set_budget(budget.without_node_cap());
    let mut level = 0usize;
    if let Err(e) = explore_serial_body(spec, interp, info_sig, domains, limits, budget, &mut rw, &mut ex, &mut level)
    {
        match budget_stop(&e) {
            Some(reason) => ex.exhaust(budget, reason, level),
            None => return Err(e),
        }
    }
    Ok(ex.finish())
}

#[allow(clippy::too_many_arguments)]
fn explore_serial_body<S: Interner>(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
    rw: &mut Rewriter<'_, S>,
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
            // the levels completed — the same poll the parallel search makes
            // between levels.
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

/// Per-item worker output: the successors of one frontier state, each with
/// its packed observation id.
type ItemSuccs = Vec<(TermId, TermId)>;

/// One worker task's output: successors keyed by frontier index, the
/// candidate structures for observation keys not yet in the dedup map,
/// the budget trip (if any) that made the worker stop early, and the
/// first hard error (if any), both keyed by the frontier index they
/// occurred at so the merge can replay serial order.
type TaskResult = (
    Vec<(usize, ItemSuccs)>,
    FxHashMap<TermId, Structure>,
    Option<(usize, BudgetExceeded)>,
    Option<(usize, RefineError)>,
);

/// A persistent worker: a rewriter over a shared-store handle plus scratch
/// buffers, reused across BFS levels.
struct Worker<'a> {
    rw: Rewriter<'a, StoreHandle>,
    row: Vec<TermId>,
    succs: Vec<TermId>,
}

/// The level-synchronous parallel search. Every level runs two phases:
///
/// * **Phase A (parallel):** the frontier is split into contiguous chunks,
///   one per worker. Each worker builds the successors of its states,
///   evaluates their packed observation ids, and computes the induced
///   structure for every observation id not already admitted (deduplicated
///   locally). `by_obs` is only *read* during this phase.
/// * **Phase B (serial merge):** discoveries are merged in (parent order,
///   successor order) — the exact order the serial FIFO pops them — so the
///   admitted states, their numbering, edges, witnesses and depths are
///   bit-identical to [`explore_serial`].
fn explore_parallel(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
    threads: usize,
) -> Result<AlgebraicExploration> {
    let store = ConcurrentTermStore::shared();
    let mut ex = Explore::new(info_sig, domains);
    if let Some(reason) = budget.check(store.len()) {
        ex.exhaust(budget, reason, 0);
        return Ok(ex.finish());
    }
    let mut level = 0usize;
    if let Err(e) = explore_parallel_body(
        spec, interp, info_sig, domains, limits, budget, threads, &store, &mut ex, &mut level,
    ) {
        match budget_stop(&e) {
            Some(reason) => ex.exhaust(budget, reason, level),
            None => return Err(e),
        }
    }
    Ok(ex.finish())
}

#[allow(clippy::too_many_arguments)]
fn explore_parallel_body(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
    budget: &Budget,
    threads: usize,
    store: &Arc<ConcurrentTermStore>,
    ex: &mut Explore,
    level: &mut usize,
) -> Result<()> {
    let bridge = ParamBridge::new(spec.signature(), info_sig, domains)?;
    let memo = Arc::new(SharedMemo::default());
    let mut rw0 = Rewriter::with_store(spec, StoreHandle::new(store.clone()));
    rw0.set_shared_memo(memo.clone());
    rw0.set_budget(budget.without_node_cap());
    let keys = observe::ObsKeys::new(&mut rw0)?;
    let plan = SuccessorPlan::new(&mut rw0)?;
    let ctx = AdmitCtx {
        keys: &keys,
        interp,
        bridge: &bridge,
        info_sig,
        domains,
    };

    let mut row: Vec<TermId> = Vec::with_capacity(keys.arity());

    let initials = induction::initial_state_ids(&mut rw0)?;
    if initials.is_empty() {
        return Err(RefineError::Alg(
            eclectic_algebraic::AlgError::BadDescription("no initial state constant".into()),
        ));
    }

    // The BFS frontier, admitted level by level. The serial FIFO queue
    // always holds states of at most two consecutive depths, and the depth
    // limit/truncation checks apply uniformly per level, so a frontier
    // vector per level reproduces its order exactly.
    let mut frontier: Vec<(StateIdx, TermId, usize)> = Vec::new();
    for t in initials {
        let (idx, fresh) = ex.admit(&mut rw0, &ctx, &mut row, t, 0)?;
        if fresh {
            frontier.push((idx, t, 0));
        }
    }

    let mut workers: Vec<Worker<'_>> = (0..threads)
        .map(|_| {
            let mut rw = Rewriter::with_store(spec, StoreHandle::new(store.clone()));
            rw.set_shared_memo(memo.clone());
            rw.set_budget(budget.without_node_cap());
            Worker {
                rw,
                row: Vec::with_capacity(keys.arity()),
                succs: Vec::with_capacity(plan.count()),
            }
        })
        .collect();

    while !frontier.is_empty() {
        let d = frontier[0].2;
        if d >= limits.max_depth {
            // The serial search pops each of these and marks truncation.
            ex.truncated = true;
            break;
        }
        if d > 0 {
            // Level boundary: the shared store holds exactly the nodes the
            // completed levels interned (hash-consing makes the set, hence
            // the count, schedule-independent), so this poll stops at the
            // same level as the serial search for the node axis.
            *level = d;
            if let Some(reason) = budget.check(store.len()) {
                return Err(budget_err(reason));
            }
        }

        // Phase A: expand the level in parallel. Frontier items are
        // claimed in chunks off a shared queue (idle scheduler workers
        // steal the tail of a slow worker's share) and keyed by frontier
        // index, so the merge below replays serial order regardless of
        // which worker expanded what.
        let nworkers = workers.len().min(frontier.len()).max(1);
        let queue = IndexQueue::new(frontier.len(), nworkers);
        let by_obs = &ex.by_obs;
        let task_results: Vec<TaskResult> = {
            let queue = &queue;
            let frontier = &frontier;
            let tasks: Vec<Box<dyn FnOnce() -> TaskResult + Send + '_>> = workers
                .iter_mut()
                .take(nworkers)
                .map(|w| {
                    let ctx = &ctx;
                    let plan = &plan;
                    let f: Box<dyn FnOnce() -> TaskResult + Send + '_> = Box::new(move || {
                        let mut per_item: Vec<(usize, ItemSuccs)> = Vec::new();
                        let mut structs: FxHashMap<TermId, Structure> = FxHashMap::default();
                        while let Some(range) = queue.claim() {
                            for k in range {
                                let (_, term, _) = frontier[k];
                                plan.successors_into(&mut w.rw, term, &mut w.succs);
                                let mut out: ItemSuccs = Vec::with_capacity(w.succs.len());
                                for i in 0..w.succs.len() {
                                    let succ = w.succs[i];
                                    let obs = match ctx.keys.key_id(&mut w.rw, succ, &mut w.row)
                                    {
                                        Ok(obs) => obs,
                                        Err(AlgError::Budget { reason }) => {
                                            return (per_item, structs, Some((k, reason)), None);
                                        }
                                        Err(e) => {
                                            return (per_item, structs, None, Some((k, e.into())));
                                        }
                                    };
                                    if !by_obs.contains_key(&obs) && !structs.contains_key(&obs) {
                                        let st = match structure_of_id(
                                            &mut w.rw,
                                            ctx.interp,
                                            ctx.bridge,
                                            ctx.info_sig,
                                            ctx.domains,
                                            succ,
                                        ) {
                                            Ok(st) => st,
                                            Err(e) => match budget_stop(&e) {
                                                Some(reason) => {
                                                    return (
                                                        per_item,
                                                        structs,
                                                        Some((k, reason)),
                                                        None,
                                                    );
                                                }
                                                None => {
                                                    return (per_item, structs, None, Some((k, e)));
                                                }
                                            },
                                        };
                                        structs.insert(obs, st);
                                    }
                                    out.push((succ, obs));
                                }
                                per_item.push((k, out));
                            }
                        }
                        (per_item, structs, None, None)
                    });
                    f
                })
                .collect();
            run_tasks(nworkers, tasks)
        };

        // Surface the first error in frontier order — the same error the
        // serial search hits first among those its admission order would
        // reach.
        let first_err = task_results
            .iter()
            .filter_map(|(_, _, _, e)| e.as_ref().map(|(k, _)| *k))
            .min();
        if let Some(k0) = first_err {
            let (_, e) = task_results
                .into_iter()
                .filter_map(|(_, _, _, e)| e)
                .find(|(k, _)| *k == k0)
                .expect("error index recorded");
            return Err(e);
        }
        let stop = task_results
            .iter()
            .filter_map(|(_, _, s, _)| s.as_ref().map(|(_, r)| *r))
            .next();
        let mut slots: Vec<Option<ItemSuccs>> = vec![None; frontier.len()];
        let mut fresh_structs: FxHashMap<TermId, Structure> = FxHashMap::default();
        for (items, structs, _, _) in task_results {
            for (k, out) in items {
                slots[k] = Some(out);
            }
            // Workers deduplicate locally; across workers the entries for
            // one observation id are identical structures.
            fresh_structs.extend(structs);
        }
        if let Some(reason) = stop {
            // A timing axis tripped inside a worker: the level is
            // incomplete, so discard it and report the levels that finished.
            *level = d;
            return Err(budget_err(reason));
        }
        let per_item: Vec<ItemSuccs> = slots
            .into_iter()
            .map(|slot| slot.expect("every frontier item expanded"))
            .collect();

        // Phase B: serial merge in (parent, successor) order.
        let mut next: Vec<(StateIdx, TermId, usize)> = Vec::new();
        for (&(pidx, _, _), succs) in frontier.iter().zip(&per_item) {
            for &(succ, obs) in succs {
                if ex.universe.state_count() >= limits.max_states {
                    ex.truncated = true;
                    break;
                }
                if let Some(&sidx) = ex.by_obs.get(&obs) {
                    ex.universe.add_edge(pidx, sidx);
                    continue;
                }
                let st = fresh_structs
                    .remove(&obs)
                    .expect("phase A computed a structure for every fresh observation");
                let (sidx, fresh) =
                    ex.insert_fresh_obs(obs, st, || rw0.extern_term(succ), d + 1)?;
                ex.universe.add_edge(pidx, sidx);
                if fresh {
                    next.push((sidx, succ, d + 1));
                }
            }
        }
        frontier = next;
    }

    Ok(())
}

/// Builds the `L1` structure induced by a ground state term: each
/// db-predicate holds of the tuples whose interpreting query rewrites to
/// `True`.
pub fn structure_of<S: Interner>(
    rw: &mut Rewriter<'_, S>,
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
pub fn structure_of_id<S: Interner>(
    rw: &mut Rewriter<'_, S>,
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

    /// An unbudgeted exploration with `threads` workers.
    fn explore(
        spec: &AlgSpec,
        interp: &InterpretationI,
        info: &Arc<Signature>,
        dom: &Arc<Domains>,
        limits: AlgExploreLimits,
        threads: usize,
    ) -> AlgebraicExploration {
        let budget = Budget::unlimited();
        explore_algebraic_budget(spec, interp, info, dom, limits, &budget, threads).unwrap()
    }

    #[test]
    fn explores_the_powerset_of_offers() {
        let (spec, interp, info, dom) = setup();
        let limits = AlgExploreLimits {
            max_depth: 5,
            max_states: 100,
        };
        let exp = explore(&spec, &interp, &info, &dom, limits, 1);
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
        let exp = explore(&spec, &interp, &info, &dom, limits, 1);
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
        let mut reports = Vec::new();
        for threads in [1, 2, 4] {
            let exp = explore_algebraic_budget(
                &spec,
                &interp,
                &info,
                &dom,
                AlgExploreLimits::default(),
                &budget,
                threads,
            )
            .unwrap();
            assert_eq!(exp.universe.state_count(), 0);
            assert!(exp.truncated);
            let e = exp.exhausted.expect("node cap 0 must exhaust");
            assert_eq!(e.stage, "explore");
            assert_eq!(e.completed_units, 0);
            reports.push(e);
        }
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cancelled_budget_returns_partial_exploration() {
        let (spec, interp, info, dom) = setup();
        let tok = eclectic_kernel::CancelToken::new();
        tok.cancel();
        let budget = Budget::unlimited().with_cancel(tok);
        for threads in [1, 4] {
            let exp = explore_algebraic_budget(
                &spec,
                &interp,
                &info,
                &dom,
                AlgExploreLimits::default(),
                &budget,
                threads,
            )
            .unwrap();
            assert!(exp.truncated);
            let e = exp.exhausted.expect("cancelled budget must exhaust");
            assert_eq!(e.reason, eclectic_kernel::BudgetExceeded::Cancelled);
        }
    }

    #[test]
    fn parallel_exploration_is_bit_identical_to_serial() {
        let (spec, interp, info, dom) = setup();
        let limits = AlgExploreLimits {
            max_depth: 5,
            max_states: 100,
        };
        let serial = explore(&spec, &interp, &info, &dom, limits, 1);
        for threads in [2, 4, 8] {
            let par = explore(&spec, &interp, &info, &dom, limits, threads);
            assert_eq!(par.universe.state_count(), serial.universe.state_count());
            assert_eq!(par.universe.edge_count(), serial.universe.edge_count());
            assert_eq!(par.witnesses, serial.witnesses);
            assert_eq!(par.depth, serial.depth);
            assert_eq!(par.truncated, serial.truncated);
            assert_eq!(par.abstraction_collision, serial.abstraction_collision);
            for s in serial.universe.state_indices() {
                assert_eq!(par.universe.successors(s), serial.universe.successors(s));
            }
        }
    }
}
