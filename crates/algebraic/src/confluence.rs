//! Overlap (critical-pair) analysis for the conditional rewrite system.
//!
//! The paper's equations are guarded so that overlapping rules never
//! disagree on ground terms (exercised by the property test
//! `equation_order_is_irrelevant`). This module makes the overlaps visible
//! *syntactically*: two Q-equations whose left-hand sides unify (after
//! renaming apart) can fire on the same redex, and unless their conditions
//! are disjoint — or their right-hand sides agree under the unifier — rule
//! order might matter. Each such pair is reported for inspection; the
//! semantic tie-break is [`resolve_overlaps`], which evaluates both
//! reducts on ground instances.

use eclectic_kernel::{Budget, Exhaustion};
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

/// Finds every pairwise overlap between equation left-hand sides, in
/// `(i, j)` pair order. Each candidate pair is analysed against its own
/// clone of the signature, so renamed-apart variable names do not depend on
/// which pairs were analysed before.
///
/// # Errors
/// Propagates sorting errors (none for validated specs).
pub fn critical_overlaps(spec: &AlgSpec) -> Result<Vec<Overlap>> {
    let eqs = spec.equations();
    let mut out = Vec::new();
    for (i, e1) in eqs.iter().enumerate() {
        for e2 in &eqs[i + 1..] {
            if e1.lhs_root() != e2.lhs_root() {
                continue;
            }
            if let Some(o) = overlap_of_pair(spec, e1, e2)? {
                out.push(o);
            }
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

/// Semantic tie-break for a list of overlap pairs against one shared
/// [`GroundSpace`]: for each pair, on every ground instance of the unified
/// redex over the space's state terms where *both* conditions hold,
/// evaluate both reducts and compare. Each pair yields the number of ground
/// instances where both fired and the first disagreement rendering, if any.
///
/// One rewriter (and so one normal-form memo) serves every pair; memo
/// warmth changes speed, never a normal form, so a pair's verdict does not
/// depend on the pairs resolved before it. The [`Budget`] is polled before
/// each pair with the pair index; on exhaustion the resolutions cover the
/// pairs completed before the stop, and the [`Exhaustion`] records how
/// many.
///
/// # Errors
/// Propagates rewriting errors (earliest pair first).
pub fn resolve_overlaps(
    spec: &AlgSpec,
    space: &GroundSpace,
    pairs: &[(&ConditionalEquation, &ConditionalEquation)],
    budget: &Budget,
) -> Result<(Vec<GroundResolution>, Option<Exhaustion>)> {
    let mut rw = Rewriter::new(spec);
    rw.set_budget(budget.without_node_cap());
    let mut out = Vec::with_capacity(pairs.len());
    for (k, (e1, e2)) in pairs.iter().enumerate() {
        if let Some(reason) = budget.check(k) {
            return Ok((out, Some(budget.exhaustion("confluence", reason, k))));
        }
        match resolve_pair(&mut rw, space, e1, e2) {
            Ok(r) => out.push(r),
            Err(AlgError::Budget { reason }) => {
                return Ok((out, Some(budget.exhaustion("confluence", reason, k))));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((out, None))
}

/// Resolves one pair, walking the ground instances in enumeration order
/// (states outer, parameter tuples inner).
fn resolve_pair(
    rw: &mut Rewriter<'_>,
    space: &GroundSpace,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
) -> Result<GroundResolution> {
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
    for i in 0..space.states().len() {
        // Matching here is tree-level, so each state's tree is built once.
        let st = space.state_term(i);
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

fn disagreement(
    sig: &crate::signature::AlgSignature,
    v1: &Term,
    v2: &Term,
    subject: &Term,
) -> String {
    format!(
        "{} vs {} at {}",
        term_str(sig, v1),
        term_str(sig, v2),
        term_str(sig, subject)
    )
}

/// If the equation fires on the ground subject, the normal form of its
/// reduct; `None` if it does not match or its condition fails.
fn try_rule(
    rw: &mut Rewriter<'_>,
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

fn eval_ground_condition(rw: &mut Rewriter<'_>, cond: &Formula) -> Result<bool> {
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
                let inst =
                    Subst::single(*x, Term::constant(k)).apply_formula_no_rename(sig.logic(), p)?;
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
                (
                    "eq4",
                    "c != c' ==> offered(c, offer(c', U)) = offered(c, U)",
                ),
                ("eq5", "takes(s, c, offer(c', U)) = takes(s, c, U)"),
                (
                    "eq6a",
                    "exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = True",
                ),
                (
                    "eq6b",
                    "~exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = False",
                ),
                (
                    "eq7",
                    "c != c' ==> offered(c, cancel(c', U)) = offered(c, U)",
                ),
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
    }

    /// Resolves one pair over the ground space of depth `depth`.
    fn resolve_one(spec: &AlgSpec, first: &str, second: &str, depth: usize) -> GroundResolution {
        let space = GroundSpace::new(spec.signature(), depth).unwrap();
        let pair = (
            spec.equation(first).unwrap(),
            spec.equation(second).unwrap(),
        );
        let (mut resolved, exhausted) =
            resolve_overlaps(spec, &space, &[pair], &Budget::unlimited()).unwrap();
        assert!(exhausted.is_none());
        resolved.pop().unwrap()
    }

    #[test]
    fn ground_resolution_confirms_harmlessness() {
        let spec = spec();
        let overlaps = critical_overlaps(&spec).unwrap();
        for o in &overlaps {
            let (both, disagreement) = resolve_one(&spec, &o.first, &o.second, 2);
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
        assert!(!o.rhs_equal && !o.conditions_complementary);
        let (both, disagreement) = resolve_one(&spec, "good", "evil", 1);
        assert!(both > 0);
        assert!(disagreement.is_some());
    }
}
