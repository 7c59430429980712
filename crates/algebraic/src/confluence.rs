//! Overlap (critical-pair) analysis for the conditional rewrite system.
//!
//! The paper's equations are guarded so that overlapping rules never
//! disagree on ground terms (exercised by the property test
//! `equation_order_is_irrelevant`). This module makes the overlaps visible
//! *syntactically*: two Q-equations whose left-hand sides unify (after
//! renaming apart) can fire on the same redex, and unless their conditions
//! are disjoint — or their right-hand sides agree under the unifier — rule
//! order might matter. Each such pair is reported for inspection; the
//! semantic tie-break is `resolve_overlap_on_ground`, which evaluates both
//! reducts on ground instances.

use std::sync::Arc;

use eclectic_kernel::{
    effective_workers, env_threads, run_workers_prio, Budget, BudgetExceeded, ConcurrentTermStore,
    Exhaustion, IndexQueue, Interner, Priority, SharedMemo, StoreHandle,
};
use eclectic_logic::{rename_apart, unify, Formula, Subst, Term};

use crate::equation::ConditionalEquation;
use crate::error::{AlgError, Result};
use crate::induction::GroundSpace;
use crate::printer::term_str;
use crate::rewrite::Rewriter;
use crate::spec::AlgSpec;

/// A syntactic overlap between two equations.
#[derive(Debug, Clone, PartialEq)]
pub struct Overlap {
    /// Name of the first equation.
    pub first: String,
    /// Name of the second equation.
    pub second: String,
    /// Rendering of the unified left-hand side (the shared redex shape).
    pub redex: String,
    /// Renderings of the two instantiated right-hand sides.
    pub reducts: (String, String),
    /// Renderings of the two instantiated conditions.
    pub conditions: (String, String),
    /// Whether the right-hand sides are syntactically equal under the
    /// unifier (in which case the overlap is trivially harmless).
    pub rhs_equal: bool,
    /// Whether the conditions are syntactic complements (`P` vs `¬P`),
    /// the common harmless pattern produced by pre/¬pre case splits.
    pub conditions_complementary: bool,
}

impl Overlap {
    /// Whether the overlap is *syntactically* discharged (equal reducts or
    /// complementary guards). Remaining overlaps need the semantic check.
    #[must_use]
    pub fn syntactically_harmless(&self) -> bool {
        self.rhs_equal || self.conditions_complementary
    }
}

/// Finds every pairwise overlap between equation left-hand sides, using
/// `ECLECTIC_THREADS` workers (see [`env_threads`]).
///
/// # Errors
/// Propagates sorting errors (none for validated specs).
pub fn critical_overlaps(spec: &AlgSpec) -> Result<Vec<Overlap>> {
    critical_overlaps_threads(spec, env_threads())
}

/// As [`critical_overlaps`] with an explicit worker count. Every thread
/// count produces the same report: each candidate pair is analysed against
/// its own clone of the signature (so renamed-apart variable names do not
/// depend on which pairs were processed before), and the merge walks the
/// pairs in the serial `(i, j)` order.
///
/// # Errors
/// Propagates sorting errors; the first error in pair order wins.
pub fn critical_overlaps_threads(spec: &AlgSpec, threads: usize) -> Result<Vec<Overlap>> {
    let threads = effective_workers(threads);
    let eqs = spec.equations();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..eqs.len() {
        for j in i + 1..eqs.len() {
            if eqs[i].lhs_root() == eqs[j].lhs_root() {
                pairs.push((i, j));
            }
        }
    }

    if threads <= 1 || pairs.len() < 2 {
        let mut out = Vec::new();
        for &(i, j) in &pairs {
            if let Some(o) = overlap_of_pair(spec, &eqs[i], &eqs[j])? {
                out.push(o);
            }
        }
        return Ok(out);
    }

    type PairOutcome = (Vec<(usize, Overlap)>, Option<(usize, AlgError)>);
    let workers = threads.min(pairs.len());
    let queue = IndexQueue::new(pairs.len(), workers);
    let results: Vec<PairOutcome> = run_workers_prio(workers, Priority::Bulk, |_| {
        let pairs = &pairs;
        let queue = &queue;
        move || {
            let mut found = Vec::new();
            while let Some(range) = queue.claim() {
                for k in range {
                    let (i, j) = pairs[k];
                    match overlap_of_pair(spec, &eqs[i], &eqs[j]) {
                        Ok(Some(o)) => found.push((k, o)),
                        Ok(None) => {}
                        Err(e) => return (found, Some((k, e))),
                    }
                }
            }
            (found, None)
        }
    });

    // Serial FIFO merge: replay the pair sequence in order, surfacing the
    // earliest error exactly where the serial loop would have stopped.
    let first_err = results
        .iter()
        .filter_map(|(_, e)| e.as_ref().map(|(k, _)| *k))
        .min();
    let mut slots: Vec<Option<Overlap>> = vec![None; pairs.len()];
    for (found, _) in &results {
        for (k, o) in found {
            slots[*k] = Some(o.clone());
        }
    }
    let mut out = Vec::new();
    for (k, slot) in slots.into_iter().enumerate() {
        if Some(k) == first_err {
            let (_, err) = results
                .into_iter()
                .filter_map(|(_, e)| e)
                .find(|(idx, _)| *idx == k)
                .expect("error index recorded");
            return Err(err);
        }
        if let Some(o) = slot {
            out.push(o);
        }
    }
    Ok(out)
}

/// Analyses one candidate pair against a private clone of the signature.
fn overlap_of_pair(
    spec: &AlgSpec,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
) -> Result<Option<Overlap>> {
    let mut sig = spec.signature().logic().clone();
    // Rename e2 apart so shared variable names do not fake overlap.
    let (lhs2, renaming) = rename_apart(&mut sig, &e2.lhs);
    let Some(mgu) = unify(&sig, &e1.lhs, &lhs2)? else {
        return Ok(None);
    };
    let rhs1 = mgu.apply_term(&e1.rhs);
    let rhs2 = mgu.apply_term(&renaming.apply_term(&e2.rhs));
    let cond1 = apply_to_condition(&sig, &mgu, &e1.condition)?;
    let cond2_renamed = apply_to_condition(&sig, &renaming, &e2.condition)?;
    let cond2 = apply_to_condition(&sig, &mgu, &cond2_renamed)?;
    let rhs_equal = rhs1 == rhs2;
    let conditions_complementary = complementary(&cond1, &cond2);
    // Render with the extended signature: renamed-apart variables do not
    // exist in the spec's own signature.
    Ok(Some(Overlap {
        first: e1.name.clone(),
        second: e2.name.clone(),
        redex: eclectic_logic::term_display(&sig, &mgu.apply_term(&e1.lhs)).to_string(),
        reducts: (
            eclectic_logic::term_display(&sig, &rhs1).to_string(),
            eclectic_logic::term_display(&sig, &rhs2).to_string(),
        ),
        conditions: (
            eclectic_logic::formula_display(&sig, &cond1).to_string(),
            eclectic_logic::formula_display(&sig, &cond2).to_string(),
        ),
        rhs_equal,
        conditions_complementary,
    }))
}

fn apply_to_condition(
    sig: &eclectic_logic::Signature,
    subst: &Subst,
    cond: &Formula,
) -> Result<Formula> {
    // Conditions quantify only over parameter variables, which the unifier
    // never binds to terms containing those bound variables (they are
    // renamed apart), so capture cannot occur.
    Ok(subst.apply_formula_no_rename(sig, cond)?)
}

/// Whether two conditions are syntactic complements modulo double negation.
fn complementary(a: &Formula, b: &Formula) -> bool {
    strip_not(a) == strip_not(b) && (negations(a) + negations(b)) % 2 == 1
}

fn strip_not(f: &Formula) -> &Formula {
    match f {
        Formula::Not(inner) => strip_not(inner),
        other => other,
    }
}

fn negations(f: &Formula) -> usize {
    match f {
        Formula::Not(inner) => 1 + negations(inner),
        _ => 0,
    }
}

/// Verdict of one ground tie-break: the number of ground instances where
/// both reducts fired, and the first disagreement rendering, if any.
pub type GroundResolution = (usize, Option<String>);

/// Outcome of resolving one overlap pair at its serial slot, produced by
/// the striding worker loop inside [`resolve_overlaps_budget_in`] and
/// consumed by [`merge_pair_units`].
struct PairUnit {
    slot: usize,
    verdict: PairVerdict,
}

enum PairVerdict {
    Done(GroundResolution),
    Stop(BudgetExceeded),
    Fail(AlgError),
}

/// The shared per-slot step: budget poll at the slot boundary, then the
/// pair resolution against a caller-held rewriter.
fn resolve_pair_unit_with<S: Interner>(
    rw: &mut Rewriter<'_, S>,
    space: &GroundSpace,
    slot: usize,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
    budget: &Budget,
) -> PairUnit {
    let verdict = if let Some(reason) = budget.check(slot) {
        PairVerdict::Stop(reason)
    } else {
        match resolve_pair_with(rw, space, e1, e2) {
            Ok(r) => PairVerdict::Done(r),
            Err(AlgError::Budget { reason }) => PairVerdict::Stop(reason),
            Err(e) => PairVerdict::Fail(e),
        }
    };
    PairUnit { slot, verdict }
}

/// Replays per-pair units in serial slot order: the earliest budget stop
/// truncates the report, and the earliest error below that stop propagates
/// — exactly the serial loop's outcome. Every slot below the earliest stop
/// must be present (a worker only skips slots at or past its own stop).
///
/// # Errors
/// Propagates rewriting errors (earliest pair first).
fn merge_pair_units(
    units: Vec<PairUnit>,
    total_pairs: usize,
    budget: &Budget,
) -> Result<(Vec<GroundResolution>, Option<Exhaustion>)> {
    let exhaustion = |reason: BudgetExceeded, k: usize| budget.exhaustion("confluence", reason, k);
    let stop = units
        .iter()
        .filter_map(|u| match &u.verdict {
            PairVerdict::Stop(reason) => Some((u.slot, *reason)),
            _ => None,
        })
        .min_by_key(|(k, _)| *k);
    let covered = stop.map_or(total_pairs, |(k, _)| k);
    let mut slots: Vec<Option<PairVerdict>> = (0..covered).map(|_| None).collect();
    for u in units {
        if u.slot < covered {
            slots[u.slot] = Some(u.verdict);
        }
    }
    let mut resolutions = Vec::with_capacity(covered);
    for slot in slots {
        match slot.expect("every pair before the stop resolved") {
            PairVerdict::Done(r) => resolutions.push(r),
            PairVerdict::Fail(e) => return Err(e),
            PairVerdict::Stop(_) => unreachable!("stops filtered by covered prefix"),
        }
    }
    Ok((resolutions, stop.map(|(k, reason)| exhaustion(reason, k))))
}

/// Semantic tie-break for one overlap: on every ground instance of the
/// unified redex over bounded state terms where *both* conditions hold,
/// evaluate both reducts and compare. Returns the number of ground
/// instances where both fired, and any disagreement rendering. Uses
/// `ECLECTIC_THREADS` workers (see [`env_threads`]).
///
/// # Errors
/// Propagates rewriting errors.
pub fn resolve_overlap_on_ground(
    spec: &AlgSpec,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
    max_steps: usize,
) -> Result<(usize, Option<String>)> {
    resolve_overlap_on_ground_threads(spec, e1, e2, max_steps, env_threads())
}

/// As [`resolve_overlap_on_ground`] with an explicit worker count.
///
/// # Errors
/// Propagates rewriting errors.
pub fn resolve_overlap_on_ground_threads(
    spec: &AlgSpec,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
    max_steps: usize,
    threads: usize,
) -> Result<(usize, Option<String>)> {
    let space = GroundSpace::new(spec.signature(), max_steps)?;
    resolve_overlap_in(spec, &space, e1, e2, threads)
}

/// One ground-instance stop event, tagged with the instance's position in
/// the serial enumeration order so the merge can replay the serial outcome.
enum GroundStop {
    Disagree(usize, String),
    Error(usize, AlgError),
}

/// Resolves a whole list of overlap pairs against one shared
/// [`GroundSpace`], parallelising *across pairs*: workers stride over the
/// pair list and each reuses a single rewriter (and therefore its
/// normal-form memo) for every pair it is assigned. Results come back in
/// pair order; the first error in pair order wins, exactly as a serial
/// loop over [`resolve_overlap_in`] would report it.
///
/// Bit-identity across worker counts is structural: a pair's verdict
/// depends only on the pair and the ground space (memo warmth changes
/// speed, never normal forms), and the merge is positional.
///
/// # Errors
/// Propagates rewriting errors (earliest pair first).
pub fn resolve_overlaps_in(
    spec: &AlgSpec,
    space: &GroundSpace,
    pairs: &[(&ConditionalEquation, &ConditionalEquation)],
    threads: usize,
) -> Result<Vec<(usize, Option<String>)>> {
    resolve_overlaps_budget_in(spec, space, pairs, &Budget::unlimited(), threads)
        .map(|(resolutions, _)| resolutions)
}

/// As [`resolve_overlaps_in`], governed by a resource [`Budget`] polled
/// before each pair slot. On exhaustion the returned resolutions cover the
/// serial-order prefix of pairs completed before the stop, and the
/// [`Exhaustion`] records how many; a node-cap stop lands on the same pair
/// index at every thread count (the pair index stands in for node
/// accounting, since each worker rewrites in a private store).
///
/// # Errors
/// Propagates rewriting errors (earliest pair first).
pub fn resolve_overlaps_budget_in(
    spec: &AlgSpec,
    space: &GroundSpace,
    pairs: &[(&ConditionalEquation, &ConditionalEquation)],
    budget: &Budget,
    threads: usize,
) -> Result<(Vec<GroundResolution>, Option<Exhaustion>)> {
    let threads = effective_workers(threads);
    let exhaustion = |reason: BudgetExceeded, k: usize| budget.exhaustion("confluence", reason, k);
    if threads <= 1 || pairs.len() < 2 {
        let mut rw = Rewriter::new(spec);
        rw.set_budget(budget.without_node_cap());
        let mut out = Vec::with_capacity(pairs.len());
        for (k, (e1, e2)) in pairs.iter().enumerate() {
            if let Some(reason) = budget.check(k) {
                return Ok((out, Some(exhaustion(reason, k))));
            }
            match resolve_pair_with(&mut rw, space, e1, e2) {
                Ok(r) => out.push(r),
                Err(AlgError::Budget { reason }) => {
                    return Ok((out, Some(exhaustion(reason, k))));
                }
                Err(e) => return Err(e),
            }
        }
        return Ok((out, None));
    }
    let workers = threads.min(pairs.len());
    let queue = IndexQueue::new(pairs.len(), workers);
    let units: Vec<PairUnit> = run_workers_prio(workers, Priority::Bulk, |_| {
        let queue = &queue;
        move || {
            let mut rw = Rewriter::new(spec);
            rw.set_budget(budget.without_node_cap());
            let mut done: Vec<PairUnit> = Vec::new();
            'claims: while let Some(range) = queue.claim() {
                for k in range {
                    let (e1, e2) = pairs[k];
                    let unit = resolve_pair_unit_with(&mut rw, space, k, e1, e2, budget);
                    let stop = matches!(unit.verdict, PairVerdict::Stop(_));
                    done.push(unit);
                    // A worker only skips slots *after* its own stop, so
                    // the merge's covered prefix stays fully populated.
                    if stop {
                        break 'claims;
                    }
                }
            }
            done
        }
    })
    .into_iter()
    .flatten()
    .collect();
    merge_pair_units(units, pairs.len(), budget)
}

/// As [`resolve_overlaps_in`], serial, against a caller-held rewriter — so
/// one normal-form memo can serve the whole resolution sweep *and* whatever
/// the caller runs next over the same ground space (e.g. the exhaustive
/// completeness pass).
///
/// # Errors
/// Propagates rewriting errors (earliest pair first).
pub fn resolve_overlaps_with<S: Interner>(
    rw: &mut Rewriter<'_, S>,
    space: &GroundSpace,
    pairs: &[(&ConditionalEquation, &ConditionalEquation)],
) -> Result<Vec<(usize, Option<String>)>> {
    pairs
        .iter()
        .map(|(e1, e2)| resolve_pair_with(rw, space, e1, e2))
        .collect()
}

/// Resolves one pair with a caller-supplied rewriter, walking the ground
/// instances in enumeration order (states outer, parameter tuples inner).
fn resolve_pair_with<S: Interner>(
    rw: &mut Rewriter<'_, S>,
    space: &GroundSpace,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
) -> Result<(usize, Option<String>)> {
    let sig = rw.spec().signature().clone();
    let Some(root) = e1.lhs_root() else {
        return Ok((0, None));
    };
    if e2.lhs_root() != Some(root) {
        return Ok((0, None));
    }
    let qsorts = sig.query_params(root)?;
    let tuples = space.tuples(&sig, &qsorts)?;
    let mut both_fired = 0usize;
    for st in space.states() {
        for params in tuples.iter() {
            let mut args = params.clone();
            args.push(st.clone());
            let subject = Term::App(root, args);
            let r1 = try_rule(rw, e1, &subject)?;
            let r2 = try_rule(rw, e2, &subject)?;
            if let (Some(v1), Some(v2)) = (r1, r2) {
                both_fired += 1;
                if v1 != v2 {
                    return Ok((both_fired, Some(disagreement(&sig, &v1, &v2, &subject))));
                }
            }
        }
    }
    Ok((both_fired, None))
}

/// As [`resolve_overlap_on_ground`] against a pre-enumerated
/// [`GroundSpace`], so one enumeration can serve many overlap pairs.
///
/// Parallel runs are bit-identical to serial: workers stride over the
/// ground instances, each instance's verdict depends only on the instance
/// itself (normal forms are order-independent), and the merge stops at the
/// globally earliest disagreement or error — exactly where the serial loop
/// would have stopped.
///
/// # Errors
/// Propagates rewriting errors.
pub fn resolve_overlap_in(
    spec: &AlgSpec,
    space: &GroundSpace,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
    threads: usize,
) -> Result<(usize, Option<String>)> {
    let threads = effective_workers(threads);
    let sig = spec.signature().clone();
    let Some(root) = e1.lhs_root() else {
        return Ok((0, None));
    };
    if e2.lhs_root() != Some(root) {
        return Ok((0, None));
    }
    let qsorts = sig.query_params(root)?;
    let tuples = space.tuples(&sig, &qsorts)?;

    // Pre-build the subjects in the serial enumeration order: states outer,
    // parameter tuples inner.
    let mut subjects = Vec::with_capacity(space.states().len() * tuples.len());
    for st in space.states() {
        for params in tuples.iter() {
            let mut args = params.clone();
            args.push(st.clone());
            subjects.push(Term::App(root, args));
        }
    }

    if threads <= 1 || subjects.len() < 2 {
        let mut rw = Rewriter::new(spec);
        let mut both_fired = 0usize;
        for subject in &subjects {
            let r1 = try_rule(&mut rw, e1, subject)?;
            let r2 = try_rule(&mut rw, e2, subject)?;
            if let (Some(v1), Some(v2)) = (r1, r2) {
                both_fired += 1;
                if v1 != v2 {
                    return Ok((both_fired, Some(disagreement(&sig, &v1, &v2, subject))));
                }
            }
        }
        return Ok((both_fired, None));
    }

    let workers = threads.min(subjects.len());
    let store = Arc::new(ConcurrentTermStore::new());
    let memo = Arc::new(SharedMemo::new());
    let queue = IndexQueue::new(subjects.len(), workers);
    let results: Vec<(Vec<usize>, Option<GroundStop>)> = run_workers_prio(workers, Priority::Bulk, |_| {
        let subjects = &subjects;
        let sig = &sig;
        let queue = &queue;
        let store = store.clone();
        let memo = memo.clone();
        move || {
            let mut rw = Rewriter::with_store(spec, StoreHandle::new(store));
            rw.set_shared_memo(memo);
            let mut fired = Vec::new();
            while let Some(range) = queue.claim() {
                for k in range {
                    let subject = &subjects[k];
                    let r1 = match try_rule(&mut rw, e1, subject) {
                        Ok(r) => r,
                        Err(e) => return (fired, Some(GroundStop::Error(k, e))),
                    };
                    let r2 = match try_rule(&mut rw, e2, subject) {
                        Ok(r) => r,
                        Err(e) => return (fired, Some(GroundStop::Error(k, e))),
                    };
                    if let (Some(v1), Some(v2)) = (r1, r2) {
                        fired.push(k);
                        if v1 != v2 {
                            let msg = disagreement(sig, &v1, &v2, subject);
                            return (fired, Some(GroundStop::Disagree(k, msg)));
                        }
                    }
                }
            }
            (fired, None)
        }
    });

    // A worker only skips instances *after* its own first stop event, and
    // the serial loop never looks past the globally earliest stop, so every
    // instance up to that point has a verdict. Replay in serial order.
    let stop = results
        .iter()
        .filter_map(|(_, s)| s.as_ref())
        .min_by_key(|s| match s {
            GroundStop::Disagree(k, _) | GroundStop::Error(k, _) => *k,
        });
    match stop {
        Some(GroundStop::Error(_, e)) => Err(e.clone()),
        Some(GroundStop::Disagree(stop_idx, msg)) => {
            let both_fired = results
                .iter()
                .flat_map(|(fired, _)| fired.iter())
                .filter(|&&k| k <= *stop_idx)
                .count();
            Ok((both_fired, Some(msg.clone())))
        }
        None => {
            let both_fired = results.iter().map(|(fired, _)| fired.len()).sum();
            Ok((both_fired, None))
        }
    }
}

fn disagreement(sig: &crate::signature::AlgSignature, v1: &Term, v2: &Term, subject: &Term) -> String {
    format!(
        "{} vs {} at {}",
        term_str(sig, v1),
        term_str(sig, v2),
        term_str(sig, subject)
    )
}

/// If the equation fires on the ground subject, the normal form of its
/// reduct; `None` if it does not match or its condition fails.
fn try_rule<S: Interner>(
    rw: &mut Rewriter<'_, S>,
    eq: &ConditionalEquation,
    subject: &Term,
) -> Result<Option<Term>> {
    let mut binding = Subst::new();
    if !crate::rewrite::match_term(&eq.lhs, subject, &mut binding) {
        return Ok(None);
    }
    // Evaluate the condition by building a ground instance and normalising
    // the equation sides; reuse the public rewriting surface.
    let cond = binding.apply_formula_no_rename(rw.spec().signature().logic(), &eq.condition)?;
    if !eval_ground_condition(rw, &cond)? {
        return Ok(None);
    }
    let reduct = binding.apply_term(&eq.rhs);
    Ok(Some(rw.normalize(&reduct)?))
}

fn eval_ground_condition<S: Interner>(rw: &mut Rewriter<'_, S>, cond: &Formula) -> Result<bool> {
    Ok(match cond {
        Formula::True => true,
        Formula::False => false,
        Formula::Not(p) => !eval_ground_condition(rw, p)?,
        Formula::And(p, q) => eval_ground_condition(rw, p)? && eval_ground_condition(rw, q)?,
        Formula::Or(p, q) => eval_ground_condition(rw, p)? || eval_ground_condition(rw, q)?,
        Formula::Implies(p, q) => !eval_ground_condition(rw, p)? || eval_ground_condition(rw, q)?,
        Formula::Iff(p, q) => eval_ground_condition(rw, p)? == eval_ground_condition(rw, q)?,
        Formula::Eq(a, b) => {
            let na = rw.normalize(a)?;
            let nb = rw.normalize(b)?;
            na == nb
        }
        Formula::Exists(x, p) | Formula::Forall(x, p) => {
            let universal = matches!(cond, Formula::Forall(..));
            let sig = rw.spec().signature().clone();
            let sort = sig.logic().var(*x).sort;
            for k in sig.param_names(sort) {
                let inst = Subst::single(*x, Term::constant(k))
                    .apply_formula_no_rename(sig.logic(), p)?;
                let holds = eval_ground_condition(rw, &inst)?;
                if universal && !holds {
                    return Ok(false);
                }
                if !universal && holds {
                    return Ok(true);
                }
            }
            universal
        }
        Formula::Pred(..) | Formula::Possibly(..) | Formula::Necessarily(..) => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_equations;
    use crate::signature::AlgSignature;

    fn spec() -> AlgSpec {
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana"]).unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_query("takes", &[student, course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a.add_param_var("s", student).unwrap();
        let eqs = parse_equations(
            &mut a,
            &[
                ("eq1", "offered(c, initiate) = False"),
                ("eq2", "takes(s, c, initiate) = False"),
                ("eq3", "offered(c, offer(c, U)) = True"),
                ("eq4", "c != c' ==> offered(c, offer(c', U)) = offered(c, U)"),
                ("eq5", "takes(s, c, offer(c', U)) = takes(s, c, U)"),
                (
                    "eq6a",
                    "exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = True",
                ),
                (
                    "eq6b",
                    "~exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = False",
                ),
                ("eq7", "c != c' ==> offered(c, cancel(c', U)) = offered(c, U)"),
                ("eq8", "takes(s, c, cancel(c', U)) = takes(s, c, U)"),
            ],
        )
        .unwrap();
        AlgSpec::new(a, eqs).unwrap()
    }

    #[test]
    fn finds_the_guarded_overlaps() {
        let spec = spec();
        let overlaps = critical_overlaps(&spec).unwrap();
        // eq3/eq4 overlap (offer with c = c'), eq6a/eq6b (complementary
        // guards), eq6a/eq7, eq6b/eq7, eq3 with itself is skipped.
        assert!(!overlaps.is_empty());
        let pair = |a: &str, b: &str| {
            overlaps
                .iter()
                .find(|o| o.first == a && o.second == b)
                .unwrap_or_else(|| panic!("overlap {a}/{b} not found"))
        };
        // The pre/¬pre split is recognised as complementary.
        let o = pair("eq6a", "eq6b");
        assert!(o.conditions_complementary);
        assert!(o.syntactically_harmless());
    }

    #[test]
    fn ground_resolution_confirms_harmlessness() {
        let spec = spec();
        let overlaps = critical_overlaps(&spec).unwrap();
        for o in &overlaps {
            let e1 = spec.equation(&o.first).unwrap();
            let e2 = spec.equation(&o.second).unwrap();
            let (both, disagreement) =
                resolve_overlap_on_ground(&spec, e1, e2, 2).unwrap();
            assert!(
                disagreement.is_none(),
                "{}/{} disagree: {disagreement:?}",
                o.first,
                o.second
            );
            // Complementary guards should never both fire.
            if o.conditions_complementary {
                assert_eq!(both, 0, "{}/{}", o.first, o.second);
            }
        }
    }

    #[test]
    fn genuinely_conflicting_rules_are_caught() {
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
        let spec = AlgSpec::new(a, eqs).unwrap();
        let overlaps = critical_overlaps(&spec).unwrap();
        let o = overlaps
            .iter()
            .find(|o| o.first == "good" && o.second == "evil")
            .expect("overlap found");
        assert!(!o.syntactically_harmless());
        let e1 = spec.equation("good").unwrap();
        let e2 = spec.equation("evil").unwrap();
        let (both, disagreement) = resolve_overlap_on_ground(&spec, e1, e2, 1).unwrap();
        assert!(both > 0);
        assert!(disagreement.is_some());
    }
}
