//! Simple observations and observational equality of states.
//!
//! Paper §4.1: a *simple observation* is a query applied to parameter names
//! (no update functions among the arguments). The language is made rich
//! enough that states are identified by their simple observations — the
//! *observability condition*: if `f(σ) = f(σ')` for all simple observations
//! `f`, then `σ = σ'`.

use std::collections::BTreeMap;

use eclectic_kernel::TermId;
use eclectic_logic::{FuncId, Term};

use crate::error::Result;
use crate::induction::{param_tuple_ids, param_tuples};
use crate::rewrite::Rewriter;

/// The table of all simple observations of a state: `(query, parameter
/// names) → normal form`.
pub type ObsTable = BTreeMap<(FuncId, Vec<Term>), Term>;

/// Computes every simple observation of a ground state term.
///
/// # Errors
/// Propagates rewriting errors (e.g. insufficient completeness).
pub fn observations(rw: &mut Rewriter<'_>, state: &Term) -> Result<ObsTable> {
    let sig = rw.spec().signature().clone();
    let mut out = ObsTable::new();
    for q in sig.queries() {
        for params in param_tuples(&sig, &sig.query_params(q)?)? {
            let v = rw.eval_query(q, &params, state)?;
            out.insert((q, params), v);
        }
    }
    Ok(out)
}

/// A precompiled plan for computing *observation keys*: the simple
/// observations of a state as a flat vector of interned normal forms, in a
/// fixed (query, parameter-tuple) order.
///
/// Because normal forms live in the rewriter's hash-consed store, two states
/// are observationally equal iff their keys are equal as `Vec<TermId>` —
/// comparison and hashing never look at term structure. This is the state
/// identity used by reachability exploration, replacing whole-tree
/// [`ObsTable`] comparison on the hot path.
#[derive(Debug, Clone)]
pub struct ObsKeys {
    /// Per query, the interned parameter tuples to observe it at.
    plan: Vec<(FuncId, Vec<Vec<TermId>>)>,
    /// Total number of observations in a key (row width).
    arity: usize,
}

/// Reserved function id used by [`ObsKeys::key_id`] to pack an observation
/// row into a single interned tuple node. It can never collide with a
/// declared symbol (signatures allocate function ids from 0 upward), and the
/// tuple node is only ever used as an identity — it is never normalised,
/// printed, or sorted.
pub const OBS_TUPLE_FN: FuncId = FuncId(u32::MAX);

impl ObsKeys {
    /// Compiles the observation plan for the rewriter's specification.
    ///
    /// # Errors
    /// Propagates signature errors.
    pub fn new(rw: &mut Rewriter<'_>) -> Result<Self> {
        let sig = rw.spec().signature().clone();
        let mut plan = Vec::new();
        let mut arity = 0;
        for q in sig.queries() {
            let tuples = param_tuple_ids(rw, &sig.query_params(q)?)?;
            arity += tuples.len();
            plan.push((q, tuples));
        }
        Ok(ObsKeys { plan, arity })
    }

    /// Number of observations in a key — callers pre-size row buffers from
    /// this.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Computes the observation row of an interned ground state term into a
    /// caller-supplied scratch buffer (cleared first), avoiding a fresh
    /// allocation per state on the exploration hot path.
    ///
    /// # Errors
    /// Propagates rewriting errors.
    pub fn key_into(
        &self,
        rw: &mut Rewriter<'_>,
        state: TermId,
        out: &mut Vec<TermId>,
    ) -> Result<()> {
        out.clear();
        out.reserve(self.arity);
        for (q, tuples) in &self.plan {
            for params in tuples {
                out.push(rw.eval_query_id(*q, params, state)?);
            }
        }
        Ok(())
    }

    /// The observation key of an interned ground state term, as a fresh
    /// vector of normal-form ids.
    ///
    /// # Errors
    /// Propagates rewriting errors.
    pub fn key(&self, rw: &mut Rewriter<'_>, state: TermId) -> Result<Vec<TermId>> {
        let mut out = Vec::with_capacity(self.arity);
        self.key_into(rw, state, &mut out)?;
        Ok(out)
    }

    /// The observation key packed into a single interned tuple node (under
    /// the reserved [`OBS_TUPLE_FN`] symbol): observationally equal states
    /// get the same id, so frontier dedup becomes one id comparison. `row`
    /// is a reusable scratch buffer for the observation row.
    ///
    /// # Errors
    /// Propagates rewriting errors.
    pub fn key_id(
        &self,
        rw: &mut Rewriter<'_>,
        state: TermId,
        row: &mut Vec<TermId>,
    ) -> Result<TermId> {
        self.key_into(rw, state, row)?;
        Ok(rw.app_id(OBS_TUPLE_FN, row))
    }
}

/// Whether two ground state terms are observationally equal — the equality
/// on states induced by the observability condition.
///
/// # Errors
/// Propagates rewriting errors.
pub fn obs_equal(rw: &mut Rewriter<'_>, a: &Term, b: &Term) -> Result<bool> {
    Ok(observations(rw, a)? == observations(rw, b)?)
}

/// Deduplicates a list of ground state terms up to observational equality,
/// returning representatives paired with their observation tables.
///
/// # Errors
/// Propagates rewriting errors.
pub fn quotient_states(rw: &mut Rewriter<'_>, states: &[Term]) -> Result<Vec<(Term, ObsTable)>> {
    let mut seen: BTreeMap<ObsTable, Term> = BTreeMap::new();
    let mut order = Vec::new();
    for st in states {
        let obs = observations(rw, st)?;
        if !seen.contains_key(&obs) {
            seen.insert(obs.clone(), st.clone());
            order.push((st.clone(), obs));
        }
    }
    Ok(order)
}

/// Result of checking the observability condition (§4.1): states identified
/// by their simple observations must be *indistinguishable* — applying the
/// same update to observationally equal states yields observationally equal
/// states. (Soundness of treating the observation table as state identity.)
#[derive(Debug, Clone, Default)]
pub struct ObservabilityReport {
    /// Observationally-equal state-term pairs examined.
    pub pairs_checked: usize,
    /// Update applications compared across each pair.
    pub extensions_checked: usize,
    /// Violations: renderings of `(term1, term2, distinguishing update)`.
    pub violations: Vec<(String, String, String)>,
}

impl ObservabilityReport {
    /// Whether observational equality is a congruence on the checked set.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the observability condition over all state terms of at most
/// `max_steps` updates: for every pair of observationally equal terms and
/// every one-step update extension, the extensions must stay equal. Pairs
/// per equivalence class are capped at `max_pairs_per_class`.
///
/// # Errors
/// Propagates rewriting errors.
pub fn check_observability(
    spec: &crate::spec::AlgSpec,
    max_steps: usize,
    max_pairs_per_class: usize,
) -> Result<ObservabilityReport> {
    use crate::induction::{state_terms, successor_terms};
    use crate::printer::term_str;

    let sig = spec.signature().clone();
    let mut rw = Rewriter::new(spec);
    let mut report = ObservabilityReport::default();

    // Group terms by observation table.
    let mut classes: BTreeMap<ObsTable, Vec<Term>> = BTreeMap::new();
    for t in state_terms(&sig, max_steps)? {
        let obs = observations(&mut rw, &t)?;
        classes.entry(obs).or_default().push(t);
    }

    for members in classes.values() {
        let Some(rep) = members.first() else { continue };
        for other in members.iter().skip(1).take(max_pairs_per_class) {
            report.pairs_checked += 1;
            let rep_succs = successor_terms(&sig, rep)?;
            let other_succs = successor_terms(&sig, other)?;
            for (a, b) in rep_succs.iter().zip(&other_succs) {
                report.extensions_checked += 1;
                if !obs_equal(&mut rw, a, b)? {
                    report.violations.push((
                        term_str(&sig, rep),
                        term_str(&sig, other),
                        term_str(&sig, a),
                    ));
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_equations;
    use crate::signature::AlgSignature;
    use crate::spec::AlgSpec;

    fn spec() -> AlgSpec {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
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
        AlgSpec::new(a, eqs).unwrap()
    }

    fn term(spec: &AlgSpec, s: &str) -> Term {
        let mut sig = spec.signature().logic().clone();
        eclectic_logic::parse_term(&mut sig, s).unwrap()
    }

    #[test]
    fn observation_tables() {
        let spec = spec();
        let mut rw = Rewriter::new(&spec);
        let t = term(&spec, "offer(db, initiate)");
        let obs = observations(&mut rw, &t).unwrap();
        // One query × two courses.
        assert_eq!(obs.len(), 2);
        let tru = spec.signature().true_term();
        let offered = spec.signature().logic().func_id("offered").unwrap();
        let db = term(&spec, "db");
        assert_eq!(obs[&(offered, vec![db])], tru);
    }

    #[test]
    fn different_traces_same_state() {
        let spec = spec();
        let mut rw = Rewriter::new(&spec);
        // offer db then cancel db ≡ initiate (observationally).
        let a = term(&spec, "cancel(db, offer(db, initiate))");
        let b = term(&spec, "initiate");
        assert!(obs_equal(&mut rw, &a, &b).unwrap());
        // offer db then offer ai ≡ offer ai then offer db.
        let a = term(&spec, "offer(ai, offer(db, initiate))");
        let b = term(&spec, "offer(db, offer(ai, initiate))");
        assert!(obs_equal(&mut rw, &a, &b).unwrap());
        // But offer db ≠ initiate.
        let a = term(&spec, "offer(db, initiate)");
        assert!(!obs_equal(&mut rw, &a, &b).unwrap());
        // They differ on exactly one observation: offered(db).
        let (ta, tb) = (
            observations(&mut rw, &a).unwrap(),
            observations(&mut rw, &b).unwrap(),
        );
        assert_eq!(ta.iter().filter(|(k, v)| tb[*k] != **v).count(), 1);
    }

    #[test]
    fn observability_condition_holds_for_the_example() {
        let spec = spec();
        let report = check_observability(&spec, 3, 5).unwrap();
        assert!(report.holds(), "{:?}", report.violations);
        assert!(report.pairs_checked > 0);
        assert!(report.extensions_checked > 0);
    }

    #[test]
    fn observability_violation_detected() {
        // A pathological spec where a query IGNORES part of the state: two
        // observationally equal states diverge after one more update.
        // offered(c, offer(c', U)) = not(offered(c, U)) — a toggling query
        // makes offer-offer ≡ initiate observationally, yet one more offer
        // distinguishes histories of different parity only… in fact parity
        // IS observable here, so build the classic counterexample instead:
        // a hidden latch: armed by offer, fired by cancel.
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("fired", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a.add_param_var("c''", course).unwrap();
        let eqs = parse_equations(
            &mut a,
            &[
                ("i", "fired(c, initiate) = False"),
                // offer arms a latch that `fired` cannot see…
                ("o", "fired(c, offer(c', U)) = fired(c, U)"),
                // …and cancel fires iff the previous op was an offer: encode
                // by cancel-after-offer = True (pattern on the nested term).
                ("c1", "fired(c, cancel(c', offer(c'', U))) = True"),
                ("c2", "fired(c, cancel(c', initiate)) = False"),
                (
                    "c3",
                    "fired(c, cancel(c', cancel(c'', U))) = fired(c, cancel(c'', U))",
                ),
            ],
        );
        let eqs = match eqs {
            Ok(e) => e,
            Err(err) => panic!("{err}"),
        };
        let spec = AlgSpec::new(a, eqs).unwrap();
        // initiate and cancel(initiate) observe the same (fired = False),
        // but after one more cancel they diverge? cancel(initiate) ⇒ False,
        // cancel(cancel(initiate)) ⇒ False. Diverging pair: offer(initiate)
        // vs initiate? offer(initiate): fired=False too — and cancel after
        // each gives True vs False. That is the violation.
        let report = check_observability(&spec, 2, 10).unwrap();
        assert!(!report.holds());
    }

    #[test]
    fn quotient_collapses_duplicates() {
        let spec = spec();
        let mut rw = Rewriter::new(&spec);
        let states = vec![
            term(&spec, "initiate"),
            term(&spec, "cancel(db, offer(db, initiate))"),
            term(&spec, "offer(db, initiate)"),
            term(&spec, "offer(db, offer(db, initiate))"),
        ];
        let q = quotient_states(&mut rw, &states).unwrap();
        // initiate ≡ cancel∘offer; offer db ≡ offer db twice.
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].0, states[0]);
        assert_eq!(q[1].0, states[2]);
    }
}
