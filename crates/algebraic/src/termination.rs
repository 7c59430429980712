//! Termination analysis of the Q-equation rewrite system.
//!
//! Paper §4.4(a): "sufficient completeness amounts to termination of this
//! system of recursive definitions … the basic idea is checking the absence
//! of circularity in these definitions."
//!
//! The well-founded measure is the pair *(size of the state argument, rank
//! of the query symbol)*: an equation for `q(…, u(…, U))` may call queries
//! on `U` freely (the state argument shrinks) but calls on the *same* state
//! `u(…, U)` must go to queries strictly earlier in some fixed order. We
//! therefore build the *same-level dependency graph* — `q → q'` when an
//! equation for `q` mentions `q'` applied to the full lhs state — and report
//! its cycles; we also flag *ascending* calls (state argument larger than
//! the lhs state), which break the measure outright.

use std::collections::{BTreeMap, BTreeSet};

use eclectic_logic::{Formula, FuncId, Term};

use crate::error::Result;
use crate::signature::{AlgSignature, OpKind};
use crate::spec::AlgSpec;

/// A problematic call site found by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AscendingCall {
    /// Equation in which the call occurs.
    pub equation: String,
    /// The query being defined.
    pub defining: String,
    /// The query being called on a non-smaller state.
    pub called: String,
}

/// Result of the termination analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TerminationReport {
    /// A cycle among same-level query dependencies, if one exists
    /// (query names in order; the last depends on the first).
    pub cycle: Option<Vec<String>>,
    /// Calls whose state argument is neither the lhs state nor one of its
    /// subterms.
    pub ascending: Vec<AscendingCall>,
    /// Same-level dependency edges, for reporting: `q → {q'}`.
    pub same_level_edges: BTreeMap<String, BTreeSet<String>>,
}

impl TerminationReport {
    /// Whether the analysis certifies termination.
    #[must_use]
    pub fn is_terminating(&self) -> bool {
        self.cycle.is_none() && self.ascending.is_empty()
    }
}

/// Runs the circularity analysis over all Q-equations of the specification.
///
/// # Errors
/// Propagates sorting errors (none for a validated spec).
pub fn check_termination(spec: &AlgSpec) -> Result<TerminationReport> {
    let sig = spec.signature();
    let mut report = TerminationReport::default();
    let mut edges: BTreeMap<FuncId, BTreeSet<FuncId>> = BTreeMap::new();

    for eq in spec.equations() {
        let Some(root) = eq.lhs_root() else { continue };
        if sig.kind(root) != OpKind::Query {
            continue;
        }
        let Term::App(_, lhs_args) = &eq.lhs else {
            continue;
        };
        let Some(lhs_state) = lhs_args.last() else {
            continue;
        };

        let mut called = Vec::new();
        collect_query_calls(sig, &eq.rhs, &mut called);
        collect_query_calls_formula(sig, &eq.condition, &mut called);

        for (q, state_arg) in called {
            if state_arg == *lhs_state {
                edges.entry(root).or_default().insert(q);
            } else if !proper_subterm(&state_arg, lhs_state) {
                report.ascending.push(AscendingCall {
                    equation: eq.name.clone(),
                    defining: sig.logic().func(root).name.clone(),
                    called: sig.logic().func(q).name.clone(),
                });
            }
        }
    }

    for (q, qs) in &edges {
        report.same_level_edges.insert(
            sig.logic().func(*q).name.clone(),
            qs.iter()
                .map(|x| sig.logic().func(*x).name.clone())
                .collect(),
        );
    }

    report.cycle = find_cycle(&edges).map(|cyc| {
        cyc.into_iter()
            .map(|q| sig.logic().func(q).name.clone())
            .collect()
    });

    Ok(report)
}

/// Whether `sub` is a proper subterm of `sup`.
fn proper_subterm(sub: &Term, sup: &Term) -> bool {
    if let Term::App(_, args) = sup {
        args.iter().any(|a| a == sub || proper_subterm(sub, a))
    } else {
        false
    }
}

/// Collects `(query, state-argument)` pairs from a term.
fn collect_query_calls(sig: &AlgSignature, t: &Term, out: &mut Vec<(FuncId, Term)>) {
    if let Term::App(f, args) = t {
        if sig.kind(*f) == OpKind::Query {
            if let Some(st) = args.last() {
                out.push((*f, st.clone()));
            }
        }
        for a in args {
            collect_query_calls(sig, a, out);
        }
    }
}

/// Collects query calls from the terms inside a condition.
fn collect_query_calls_formula(sig: &AlgSignature, f: &Formula, out: &mut Vec<(FuncId, Term)>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Eq(a, b) => {
            collect_query_calls(sig, a, out);
            collect_query_calls(sig, b, out);
        }
        Formula::Pred(_, args) => {
            for a in args {
                collect_query_calls(sig, a, out);
            }
        }
        Formula::Not(p)
        | Formula::Possibly(p)
        | Formula::Necessarily(p)
        | Formula::Forall(_, p)
        | Formula::Exists(_, p) => collect_query_calls_formula(sig, p, out),
        Formula::And(p, q) | Formula::Or(p, q) | Formula::Implies(p, q) | Formula::Iff(p, q) => {
            collect_query_calls_formula(sig, p, out);
            collect_query_calls_formula(sig, q, out);
        }
    }
}

/// Finds a cycle in a directed graph (DFS three-colour).
fn find_cycle(edges: &BTreeMap<FuncId, BTreeSet<FuncId>>) -> Option<Vec<FuncId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: BTreeMap<FuncId, Colour> = BTreeMap::new();
    let nodes: BTreeSet<FuncId> = edges
        .iter()
        .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
        .collect();
    for &n in &nodes {
        colour.insert(n, Colour::White);
    }

    fn dfs(
        n: FuncId,
        edges: &BTreeMap<FuncId, BTreeSet<FuncId>>,
        colour: &mut BTreeMap<FuncId, Colour>,
        stack: &mut Vec<FuncId>,
    ) -> Option<Vec<FuncId>> {
        colour.insert(n, Colour::Grey);
        stack.push(n);
        if let Some(succs) = edges.get(&n) {
            for &m in succs {
                match colour.get(&m).copied().unwrap_or(Colour::White) {
                    Colour::Grey => {
                        // Extract the cycle from the stack.
                        let pos = stack.iter().position(|&x| x == m).unwrap_or(0);
                        return Some(stack[pos..].to_vec());
                    }
                    Colour::White => {
                        if let Some(c) = dfs(m, edges, colour, stack) {
                            return Some(c);
                        }
                    }
                    Colour::Black => {}
                }
            }
        }
        stack.pop();
        colour.insert(n, Colour::Black);
        None
    }

    for &n in &nodes {
        if colour[&n] == Colour::White {
            let mut stack = Vec::new();
            if let Some(c) = dfs(n, edges, &mut colour, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_equations;

    fn base_sig() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana"]).unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_query("takes", &[student, course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a.add_param_var("s", student).unwrap();
        a
    }

    #[test]
    fn paper_style_equations_terminate() {
        let mut a = base_sig();
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
                ("eq8", "takes(s, c, cancel(c', U)) = takes(s, c, U)"),
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let report = check_termination(&spec).unwrap();
        assert!(report.is_terminating(), "{report:?}");
        assert!(report.same_level_edges.is_empty());
    }

    #[test]
    fn circular_definitions_detected() {
        // The paper's warning: "some other equation might reduce the problem
        // of determining takes(s,c,σ) to that of determining offered(c,σ),
        // thereby creating a circularity".
        let mut a = base_sig();
        let eqs = parse_equations(
            &mut a,
            &[
                // offered at cancel-state depends on takes at the SAME state;
                // takes at cancel-state depends on offered at the SAME state.
                (
                    "bad1",
                    "exists s:student. takes(s, c, cancel(c, U)) = True ==> offered(c, cancel(c, U)) = True",
                ),
                (
                    "bad2",
                    "offered(c, cancel(c, U)) = True ==> takes(s, c, cancel(c, U)) = False",
                ),
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let report = check_termination(&spec).unwrap();
        assert!(!report.is_terminating());
        let cycle = report.cycle.expect("cycle must be found");
        assert!(cycle.contains(&"offered".to_string()));
        assert!(cycle.contains(&"takes".to_string()));
    }

    #[test]
    fn same_level_dag_is_accepted() {
        // offered at same level may depend on takes at same level as long as
        // takes does not depend back.
        let mut a = base_sig();
        let eqs = parse_equations(
            &mut a,
            &[
                (
                    "ok1",
                    "exists s:student. takes(s, c, cancel(c, U)) = True ==> offered(c, cancel(c, U)) = True",
                ),
                ("ok2", "takes(s, c, cancel(c', U)) = takes(s, c, U)"),
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let report = check_termination(&spec).unwrap();
        assert!(report.is_terminating(), "{report:?}");
        assert_eq!(report.same_level_edges.len(), 1);
    }

    #[test]
    fn ascending_calls_flagged() {
        // rhs queries a LARGER state than the lhs: offered(c, U) defined in
        // terms of offered at offer(c, U) — the measure breaks.
        let mut a = base_sig();
        let eqs = parse_equations(
            &mut a,
            &[(
                "asc",
                "offered(c, cancel(c, U)) = offered(c, offer(c, cancel(c, U)))",
            )],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let report = check_termination(&spec).unwrap();
        assert!(!report.is_terminating());
        assert_eq!(report.ascending.len(), 1);
        assert_eq!(report.ascending[0].defining, "offered");
    }
}
