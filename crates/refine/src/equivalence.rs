//! Cross-formalism agreement (paper §6): replaying the same update trace at
//! the functions level (term rewriting) and at the representation level
//! (procedure execution) must yield the same answer to every query — the
//! one-to-one correspondence between query functions and relations.

use std::collections::BTreeMap;

use eclectic_algebraic::{induction, AlgError, AlgSpec, Rewriter};
use eclectic_kernel::{Budget, Exhaustion, TermId};
use eclectic_logic::{Elem, FuncId, Term};
use eclectic_rpr::DbState;

use crate::error::{RefineError, Result};
use crate::interp2::{IndValue, InducedAlgebra};
use crate::reach::budget_stop;

/// One operation of a replayable trace: update name plus parameter elements.
pub type Op = (String, Vec<Elem>);

/// A disagreement between the two levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Query name.
    pub query: String,
    /// Rendered parameter tuple.
    pub params: String,
    /// Level-2 (rewriting) answer.
    pub level2: String,
    /// Level-3 (execution) answer.
    pub level3: String,
    /// Number of operations applied before the disagreement.
    pub after_ops: usize,
}

/// Statistics from a cross-check run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossCheckStats {
    /// Operations replayed.
    pub ops: usize,
    /// Query instances compared.
    pub comparisons: usize,
}

/// One comparison site: a query, its parameter tuple as terms, and the same
/// tuple interned. Enumerated once per check, not once per step.
type QueryItem = (FuncId, Vec<Term>, Vec<TermId>);

/// Replays `ops` at both levels, comparing every query after every step,
/// in (query, parameter tuple) order. Returns the first mismatch, if any.
///
/// The [`Budget`] is polled before each trace operation with the number of
/// operations fully replayed so far, so a node cap stops after a whole
/// operation; a deadline trip additionally interrupts the level-2
/// evaluations mid-operation and reports the operations completed.
/// Exhaustion returns the statistics so far with an [`Exhaustion`] record
/// instead of failing.
///
/// `_threads` is ignored: the check runs on the calling thread. The
/// parameter stays only because the benchmark package (`perfbench/`) calls
/// this function by name with a worker count; it goes at the next change
/// to the benchmark. Callers in this workspace pass 1.
///
/// # Errors
/// Propagates rewriting/execution errors (e.g. the trace must start with an
/// `initiate`-style constant; the first op's update must take no state);
/// budget exhaustion is *not* an error.
pub fn cross_check_budget(
    spec: &AlgSpec,
    ind: &mut InducedAlgebra<'_>,
    ops: &[Op],
    budget: &Budget,
    _threads: usize,
) -> Result<(Option<Mismatch>, CrossCheckStats, Option<Exhaustion>)> {
    let mut stats = CrossCheckStats::default();
    let exhaust =
        |stats, reason, i| Ok((None, stats, Some(budget.exhaustion("cross", reason, i))));
    if let Some(reason) = budget.check(0) {
        return exhaust(stats, reason, 0);
    }
    let mut rw = Rewriter::new(spec);
    rw.set_budget(budget.without_node_cap());
    let items = match query_items(&mut rw, ind) {
        Ok(items) => items,
        Err(e) => match budget_stop(&e) {
            Some(reason) => return exhaust(stats, reason, 0),
            None => return Err(e),
        },
    };

    let mut term: Option<TermId> = None;
    let mut state: Option<DbState> = None;

    for (i, (name, args)) in ops.iter().enumerate() {
        if let Some(reason) = budget.check(i) {
            return exhaust(stats, reason, i);
        }
        let (new_term, next_state) = match step(&mut rw, ind, name, args, &mut term, &mut state) {
            Ok(pair) => pair,
            Err(e) => match budget_stop(&e) {
                Some(reason) => return exhaust(stats, reason, i),
                None => return Err(e),
            },
        };
        stats.ops += 1;
        for item in &items {
            stats.comparisons += 1;
            let l2 = match rw.eval_query_id(item.0, &item.2, new_term) {
                Ok(l2) => l2,
                Err(AlgError::Budget { reason }) => return exhaust(stats, reason, i),
                Err(e) => return Err(e.into()),
            };
            if let Some(m) = compare_site(&mut rw, ind, item, l2, &next_state, i + 1)? {
                return Ok((Some(m), stats, None));
            }
        }
        term = Some(new_term);
        state = Some(next_state);
    }
    Ok((None, stats, None))
}

/// Enumerates every (query, parameter tuple) comparison site, with the
/// tuples both as terms (for level 3) and interned (for level 2). The term
/// and id enumerations align because `param_tuples` and `param_tuple_ids`
/// produce tuples in the same order.
fn query_items(
    rw: &mut Rewriter<'_>,
    ind: &InducedAlgebra<'_>,
) -> Result<Vec<QueryItem>> {
    let alg = rw.spec().signature().clone();
    let mut items = Vec::new();
    let queries: Vec<_> = alg.queries().collect();
    for q in queries {
        let qsorts = alg.query_params(q)?;
        let tuple_ids = induction::param_tuple_ids(rw, &qsorts)?;
        for (params, param_ids) in induction::param_tuples(&alg, &qsorts)?
            .into_iter()
            .zip(tuple_ids)
        {
            // Pre-validate the bridge mapping so a parameter it cannot map
            // fails before any trace step runs.
            for &p in &param_ids {
                ind.bridge().elem_of_id(rw.store(), p)?;
            }
            items.push((q, params, param_ids));
        }
    }
    Ok(items)
}

/// Extends the interned level-2 trace term by one operation and runs the
/// induced level-3 update, returning the new (term, state) pair.
fn step(
    rw: &mut Rewriter<'_>,
    ind: &mut InducedAlgebra<'_>,
    name: &str,
    args: &[Elem],
    term: &mut Option<TermId>,
    state: &mut Option<DbState>,
) -> Result<(TermId, DbState)> {
    let alg = rw.spec().signature().clone();
    let u = alg
        .logic()
        .func_id(name)
        .map_err(|e| RefineError::BadInterpretation(format!("{e}")))?;
    let takes_state = alg.update_takes_state(u)?;
    let sorts = alg.update_params(u)?;
    if sorts.len() != args.len() {
        return Err(RefineError::BadInterpretation(format!(
            "`{name}` takes {} parameter(s), trace supplies {}",
            sorts.len(),
            args.len()
        )));
    }
    let mut targs: Vec<Term> = Vec::with_capacity(args.len() + 1);
    for (&sort, &e) in sorts.iter().zip(args) {
        let lsort = ind.bridge().logic_sort(sort)?;
        targs.push(ind.bridge().term_of_elem(lsort, e)?);
    }
    // Level 2: extend the interned trace term, sharing the previous trace.
    let targ_ids: Vec<TermId> = targs.iter().map(|t| rw.intern(t)).collect();
    let new_term = if takes_state {
        let prev = term.take().ok_or_else(|| {
            RefineError::BadInterpretation(format!(
                "trace applies `{name}` before any initial state"
            ))
        })?;
        let mut a = targ_ids;
        a.push(prev);
        rw.app_id(u, &a)
    } else {
        rw.app_id(u, &targ_ids)
    };
    // Level 3: run the induced update.
    let mut env = BTreeMap::new();
    let mut full_args = targs;
    if takes_state {
        let prev_state = state.take().expect("state tracks term");
        let sv = alg.state_var();
        env.insert(sv, IndValue::State(prev_state));
        full_args.push(Term::Var(sv));
    }
    let next_state = match ind.eval_term(&Term::App(u, full_args), &env)? {
        IndValue::State(s) => s,
        _ => unreachable!("updates produce states"),
    };
    Ok((new_term, next_state))
}

/// Compares one site's level-2 answer against level-3 execution, building
/// the mismatch report if they disagree.
fn compare_site(
    rw: &mut Rewriter<'_>,
    ind: &mut InducedAlgebra<'_>,
    item: &QueryItem,
    l2: TermId,
    next_state: &DbState,
    after_ops: usize,
) -> Result<Option<Mismatch>> {
    let (q, params, param_ids) = item;
    let alg = rw.spec().signature().clone();
    let elems: Vec<Elem> = param_ids
        .iter()
        .map(|&p| ind.bridge().elem_of_id(rw.store(), p).map(|(_, e)| e))
        .collect::<Result<_>>()?;
    let sv = alg.state_var();
    let mut env = BTreeMap::new();
    env.insert(sv, IndValue::State(next_state.clone()));
    let mut qargs: Vec<Term> = params.clone();
    qargs.push(Term::Var(sv));
    let l3 = ind.eval_term(&Term::App(*q, qargs), &env)?;
    let l2v = level2_value(ind, rw, l2)?;
    if l2v != l3 {
        let qname = alg.logic().func(*q).name.clone();
        let l2_term = rw.extern_term(l2);
        return Ok(Some(Mismatch {
            query: qname,
            params: format!("{elems:?}"),
            level2: eclectic_algebraic::term_str(&alg, &l2_term),
            level3: format!("{l3:?}"),
            after_ops,
        }));
    }
    Ok(None)
}

fn level2_value(
    ind: &InducedAlgebra<'_>,
    rw: &mut Rewriter<'_>,
    t: TermId,
) -> Result<IndValue> {
    if t == rw.true_id() {
        return Ok(IndValue::Bool(true));
    }
    if t == rw.false_id() {
        return Ok(IndValue::Bool(false));
    }
    let (sort, e) = ind.bridge().elem_of_id(rw.store(), t)?;
    Ok(IndValue::Param(sort, e))
}

/// Generates a pseudo-random replayable trace of `len` operations starting
/// with the given initial update name; `choose(n)` picks an index below `n`
/// (callers supply the RNG so the crate stays dependency-free).
///
/// # Errors
/// Propagates signature errors.
pub fn random_ops(
    spec: &AlgSpec,
    ind: &InducedAlgebra<'_>,
    initial: &str,
    len: usize,
    mut choose: impl FnMut(usize) -> usize,
) -> Result<Vec<Op>> {
    let alg = spec.signature();
    let mut ops: Vec<Op> = vec![(initial.to_string(), Vec::new())];
    let updates: Vec<_> = alg
        .updates()
        .filter(|&u| alg.update_takes_state(u).unwrap_or(false))
        .collect();
    if updates.is_empty() {
        return Ok(ops);
    }
    for _ in 0..len {
        let u = updates[choose(updates.len()) % updates.len()];
        let sorts = alg.update_params(u)?;
        let mut args = Vec::with_capacity(sorts.len());
        for s in sorts {
            let lsort = ind.bridge().logic_sort(s)?;
            let card = ind.domains().card(lsort).max(1);
            args.push(Elem((choose(card) % card) as u32));
        }
        ops.push((alg.logic().func(u).name.clone(), args));
    }
    Ok(ops)
}
