//! A dynamic-logic extension over RPR programs.
//!
//! Paper §5.3 notes that extending the interpretation `K` to map arbitrary
//! wffs "would need a full programming logic, such as Dynamic Logic (a
//! separate paper will explore this possibility)". This module implements
//! that extension: propositional dynamic logic whose programs are RPR
//! statements and whose atoms are first-order wffs, model-checked over a
//! finite universe.

use eclectic_kernel::{Budget, Exhaustion, FxHashSet};
use eclectic_logic::{eval, Formula, Valuation};

use crate::ast::Stmt;
use crate::binrel::BinRel;
use crate::denote::{meaning, meaning_cached, meaning_cached_governed, CacheStats, DenoteCache};
use crate::error::{Result, RprError};
use crate::universe::FiniteUniverse;

/// A PDL formula over RPR programs.
#[derive(Debug, Clone, PartialEq)]
pub enum Pdl {
    /// A closed first-order wff, evaluated in the current state.
    Atom(Formula),
    /// `¬φ`.
    Not(Box<Pdl>),
    /// `φ ∧ ψ`.
    And(Box<Pdl>, Box<Pdl>),
    /// `φ ∨ ψ`.
    Or(Box<Pdl>, Box<Pdl>),
    /// `φ ⟹ ψ`.
    Implies(Box<Pdl>, Box<Pdl>),
    /// `[p]φ` — after every execution of `p`, `φ` holds.
    Box(Stmt, std::boxed::Box<Pdl>),
    /// `⟨p⟩φ` — some execution of `p` reaches a state where `φ` holds.
    Diamond(Stmt, std::boxed::Box<Pdl>),
}

impl Pdl {
    /// `¬φ`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pdl {
        Pdl::Not(std::boxed::Box::new(self))
    }

    /// `φ ∧ ψ`.
    #[must_use]
    pub fn and(self, other: Pdl) -> Pdl {
        Pdl::And(std::boxed::Box::new(self), std::boxed::Box::new(other))
    }

    /// `φ ∨ ψ`.
    #[must_use]
    pub fn or(self, other: Pdl) -> Pdl {
        Pdl::Or(std::boxed::Box::new(self), std::boxed::Box::new(other))
    }

    /// `φ ⟹ ψ`.
    #[must_use]
    pub fn implies(self, other: Pdl) -> Pdl {
        Pdl::Implies(std::boxed::Box::new(self), std::boxed::Box::new(other))
    }

    /// `[p]φ`.
    #[must_use]
    pub fn after_all(p: Stmt, phi: Pdl) -> Pdl {
        Pdl::Box(p, std::boxed::Box::new(phi))
    }

    /// `⟨p⟩φ`.
    #[must_use]
    pub fn after_some(p: Stmt, phi: Pdl) -> Pdl {
        Pdl::Diamond(p, std::boxed::Box::new(phi))
    }
}

/// The set of state indices satisfying a PDL formula.
///
/// # Errors
/// Propagates meaning/evaluation errors.
pub fn satisfying_states(u: &FiniteUniverse, phi: &Pdl) -> Result<Vec<bool>> {
    Ok(match phi {
        Pdl::Atom(f) => atom_states(u, f, &Valuation::new())?,
        Pdl::Not(p) => satisfying_states(u, p)?.into_iter().map(|b| !b).collect(),
        Pdl::And(p, q) => zip_with(satisfying_states(u, p)?, satisfying_states(u, q)?, |a, b| {
            a && b
        }),
        Pdl::Or(p, q) => zip_with(satisfying_states(u, p)?, satisfying_states(u, q)?, |a, b| {
            a || b
        }),
        Pdl::Implies(p, q) => {
            zip_with(satisfying_states(u, p)?, satisfying_states(u, q)?, |a, b| {
                !a || b
            })
        }
        Pdl::Box(prog, p) => {
            let m: BinRel = meaning(u, prog, &Valuation::new())?;
            let inner = satisfying_states(u, p)?;
            m.box_states(&inner)
        }
        Pdl::Diamond(prog, p) => {
            let m: BinRel = meaning(u, prog, &Valuation::new())?;
            let inner = satisfying_states(u, p)?;
            m.diamond_states(&inner)
        }
    })
}

/// The states satisfying a first-order atom under `env`, evaluated on the
/// codes' views (see [`FiniteUniverse::for_each_class`]).
fn atom_states(u: &FiniteUniverse, f: &Formula, env: &Valuation) -> Result<Vec<bool>> {
    let mut out = Vec::with_capacity(u.len());
    u.for_each_class(
        &f.predicates(),
        |view| Ok(eval::satisfies(view, env, f)?),
        |_, &holds| {
            out.push(holds);
            Ok(())
        },
    )?;
    Ok(out)
}

fn zip_with(a: Vec<bool>, b: Vec<bool>, f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// Whether the PDL formula holds at a specific state.
///
/// # Errors
/// See [`satisfying_states`].
pub fn holds_at(u: &FiniteUniverse, i: usize, phi: &Pdl) -> Result<bool> {
    Ok(satisfying_states(u, phi)?[i])
}

/// Whether the PDL formula holds at every state (validity in the universe).
///
/// # Errors
/// See [`satisfying_states`].
pub fn valid(u: &FiniteUniverse, phi: &Pdl) -> Result<bool> {
    Ok(satisfying_states(u, phi)?.into_iter().all(|b| b))
}

/// Result of a [`check_batch_budget_with`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Per input formula, the satisfying-state bit vector (as
    /// [`satisfying_states`]).
    pub satisfying: Vec<Vec<bool>>,
    /// Per input formula, whether it is valid in the universe.
    pub valid: Vec<bool>,
    /// Denotation-cache counters after the run.
    pub stats: CacheStats,
    /// Set when a [`Budget`] tripped: `satisfying`/`valid` then hold the
    /// verdicts of the formula prefix that completed (empty when the
    /// denotation phase was interrupted).
    pub exhausted: Option<Exhaustion>,
}

/// Model-checks many PDL formulas in one pass over the universe, computing
/// each distinct modality program's denotation once (`[p]φ` and `⟨q⟩ψ`
/// duplicated across formulas share one `meaning` computation), against a
/// caller-held [`DenoteCache`] and parameter environment, so many batches
/// over the same universe share denotations (the environment is part of
/// the cache key).
///
/// Phase one computes the denotation of every not-yet-cached modality
/// program, in first-occurrence order. Phase two walks the formulas
/// against the filled cache.
///
/// The run is governed by a [`Budget`]. Work is counted in units: first
/// the not-yet-cached modality programs (polled before each denotation, by
/// index), then the formulas (polled before each walk, offset by the
/// program count), so a node cap of `k` stops after `k` units. Exhaustion
/// keeps the verdict prefix computed so far and sets `exhausted` instead
/// of failing; denotations finished before the stop stay in `cache` (they
/// are complete, valid entries).
///
/// # Errors
/// See [`satisfying_states`]; budget exhaustion is *not* an error.
pub fn check_batch_budget_with(
    formulas: &[Pdl],
    u: &FiniteUniverse,
    env: &Valuation,
    cache: &mut DenoteCache,
    budget: &Budget,
) -> Result<BatchReport> {
    if let Some(reason) = budget.check(0) {
        return Ok(BatchReport {
            satisfying: Vec::new(),
            valid: Vec::new(),
            stats: cache.stats(),
            exhausted: Some(budget.exhaustion("pdl", reason, 0)),
        });
    }
    let mut seen: FxHashSet<&Stmt> = FxHashSet::default();
    let mut programs: Vec<&Stmt> = Vec::new();
    for phi in formulas {
        collect_programs(phi, &mut seen, &mut programs);
    }
    // A star modality `[q*]`/`⟨q*⟩` denotes `m(q*)` here like any other
    // program: the closure is built under the budget's relation-memory
    // axis and swept like any relation in phase two.
    let todo: Vec<&Stmt> = programs
        .into_iter()
        .filter(|p| !cache.contains(p, env))
        .collect();
    let denotations = todo.len();

    // Governed relational ops poll the timing and relation-memory axes;
    // the node cap is enforced here, at unit boundaries.
    let timing = budget.without_node_cap();
    for (k, prog) in todo.iter().enumerate() {
        let reason = match budget.check(k) {
            Some(reason) => reason,
            None => match meaning_cached_governed(u, prog, env, cache, &timing) {
                Ok(_) => continue,
                Err(RprError::Budget { reason }) => reason,
                Err(e) => return Err(e),
            },
        };
        return Ok(BatchReport {
            satisfying: Vec::new(),
            valid: Vec::new(),
            stats: cache.stats(),
            exhausted: Some(budget.exhaustion("pdl", reason, k)),
        });
    }

    let mut satisfying = Vec::with_capacity(formulas.len());
    let mut valid = Vec::with_capacity(formulas.len());
    let mut exhausted = None;
    for (j, phi) in formulas.iter().enumerate() {
        if let Some(reason) = budget.check(denotations + j) {
            exhausted = Some(budget.exhaustion("pdl", reason, denotations + j));
            break;
        }
        let sat = cached_states(u, phi, env, cache)?;
        valid.push(sat.iter().all(|b| *b));
        satisfying.push(sat);
    }
    Ok(BatchReport {
        satisfying,
        valid,
        stats: cache.stats(),
        exhausted,
    })
}

/// Collects the distinct modality programs of a formula in first-occurrence
/// order (outermost first).
fn collect_programs<'a>(phi: &'a Pdl, seen: &mut FxHashSet<&'a Stmt>, out: &mut Vec<&'a Stmt>) {
    match phi {
        Pdl::Atom(_) => {}
        Pdl::Not(p) => collect_programs(p, seen, out),
        Pdl::And(p, q) | Pdl::Or(p, q) | Pdl::Implies(p, q) => {
            collect_programs(p, seen, out);
            collect_programs(q, seen, out);
        }
        Pdl::Box(prog, p) | Pdl::Diamond(prog, p) => {
            if seen.insert(prog) {
                out.push(prog);
            }
            collect_programs(p, seen, out);
        }
    }
}

/// As [`satisfying_states`] against a caller-held denotation cache and
/// parameter environment (atoms are evaluated under `env` too, which for
/// the empty environment coincides with the closed-formula evaluation).
/// Phase one of [`check_batch_budget_with`] has already denoted every
/// modality program, so each lookup here is a cache hit.
fn cached_states(
    u: &FiniteUniverse,
    phi: &Pdl,
    env: &Valuation,
    cache: &mut DenoteCache,
) -> Result<Vec<bool>> {
    Ok(match phi {
        Pdl::Atom(f) => atom_states(u, f, env)?,
        Pdl::Not(p) => cached_states(u, p, env, cache)?
            .into_iter()
            .map(|b| !b)
            .collect(),
        Pdl::And(p, q) => zip_with(
            cached_states(u, p, env, cache)?,
            cached_states(u, q, env, cache)?,
            |a, b| a && b,
        ),
        Pdl::Or(p, q) => zip_with(
            cached_states(u, p, env, cache)?,
            cached_states(u, q, env, cache)?,
            |a, b| a || b,
        ),
        Pdl::Implies(p, q) => zip_with(
            cached_states(u, p, env, cache)?,
            cached_states(u, q, env, cache)?,
            |a, b| !a || b,
        ),
        Pdl::Box(prog, p) => {
            let inner = cached_states(u, p, env, cache)?;
            meaning_cached(u, prog, env, cache)?.box_states(&inner)
        }
        Pdl::Diamond(prog, p) => {
            let inner = cached_states(u, p, env, cache)?;
            meaning_cached(u, prog, env, cache)?.diamond_states(&inner)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DbState;
    use eclectic_logic::{Domains, Signature, Term};
    use std::sync::Arc;

    /// One batch against a fresh cache and the empty environment.
    fn check_batch(formulas: &[Pdl], u: &FiniteUniverse) -> BatchReport {
        let mut cache = DenoteCache::new();
        let (env, budget) = (Valuation::new(), Budget::unlimited());
        check_batch_budget_with(formulas, u, &env, &mut cache, &budget).unwrap()
    }

    fn setup() -> (FiniteUniverse, Stmt, Formula) {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
        let x = sig.add_constant("x", course).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db"])]).unwrap();
        let sig = Arc::new(sig);
        let mut template = DbState::new(sig.clone(), Arc::new(dom));
        template.set_scalar(x, eclectic_logic::Elem(0)).unwrap();
        let u = FiniteUniverse::enumerate(&template, &[offered], &[x], 100).unwrap();
        let insert = Stmt::Insert(offered, vec![Term::constant(x)]);
        let atom = Formula::Pred(offered, vec![Term::constant(x)]);
        (u, insert, atom)
    }

    #[test]
    fn box_and_diamond() {
        let (u, insert, atom) = setup();
        // [insert OFFERED(x)] OFFERED(x) is valid: after inserting it holds.
        let phi = Pdl::after_all(insert.clone(), Pdl::Atom(atom.clone()));
        assert!(valid(&u, &phi).unwrap());
        // ⟨skip⟩ OFFERED(x) holds only where it already holds.
        let psi = Pdl::after_some(Stmt::Skip, Pdl::Atom(atom.clone()));
        let sat = satisfying_states(&u, &psi).unwrap();
        assert!(sat.iter().any(|b| *b));
        assert!(!sat.iter().all(|b| *b));
    }

    #[test]
    fn box_vacuous_on_stuck_programs() {
        let (u, _insert, atom) = setup();
        // [false?] φ is valid: no execution exists.
        let phi = Pdl::after_all(Stmt::Test(Formula::False), Pdl::Atom(atom.clone()).not());
        assert!(valid(&u, &phi).unwrap());
        // ⟨false?⟩ true is unsatisfiable.
        let psi = Pdl::after_some(Stmt::Test(Formula::False), Pdl::Atom(Formula::True));
        assert!(satisfying_states(&u, &psi).unwrap().iter().all(|b| !b));
    }

    #[test]
    fn star_modalities() {
        let (u, insert, atom) = setup();
        // ⟨insert*⟩ OFFERED(x) is valid: iterate once.
        let phi = Pdl::after_some(insert.clone().star(), Pdl::Atom(atom.clone()));
        assert!(valid(&u, &phi).unwrap());
        // [insert*] OFFERED(x) is not valid at the empty state (zero
        // iterations keep it absent).
        let psi = Pdl::after_all(insert.star(), Pdl::Atom(atom));
        assert!(!valid(&u, &psi).unwrap());
    }

    #[test]
    fn batch_computes_each_program_once() {
        let (u, insert, atom) = setup();
        let a = Pdl::Atom(atom);
        let batch = vec![
            Pdl::after_all(insert.clone(), a.clone()),
            Pdl::after_some(insert.clone(), a.clone()),
            Pdl::after_all(Stmt::Skip, a.clone()),
            Pdl::after_all(insert.clone().seq(Stmt::Skip), a.clone()),
        ];
        let report = check_batch(&batch, &u);
        // Three distinct denotations: insert, skip, insert;skip. The
        // duplicated `insert` modality, the seq's two children, and the
        // phase-two lookups of the three programs hit the cache.
        assert_eq!(report.stats.computed, 3, "{:?}", report.stats);
        assert!(report.stats.hits >= 3, "{:?}", report.stats);
        // Verdicts agree with the one-formula checker.
        for (phi, (sat, v)) in batch
            .iter()
            .zip(report.satisfying.iter().zip(report.valid.iter()))
        {
            assert_eq!(*sat, satisfying_states(&u, phi).unwrap());
            assert_eq!(*v, valid(&u, phi).unwrap());
        }
    }

    #[test]
    fn batch_with_star_and_union_agrees_with_single_formula_checks() {
        let (u, insert, atom) = setup();
        let a = Pdl::Atom(atom);
        let batch = vec![
            Pdl::after_all(insert.clone(), a.clone()),
            Pdl::after_some(insert.clone().star(), a.clone()),
            Pdl::after_all(Stmt::Skip, a.clone().not()),
            Pdl::after_some(insert.clone().seq(Stmt::Skip), a.clone()),
            Pdl::after_all(insert.clone().union(Stmt::Skip), a.clone()).implies(a.clone()),
        ];
        let report = check_batch(&batch, &u);
        for (k, phi) in batch.iter().enumerate() {
            assert_eq!(report.satisfying[k], satisfying_states(&u, phi).unwrap(), "formula {k}");
            assert_eq!(report.valid[k], valid(&u, phi).unwrap(), "formula {k}");
        }
    }

    #[test]
    fn shared_cache_carries_across_batches() {
        let (u, insert, atom) = setup();
        let a = Pdl::Atom(atom);
        let mut cache = DenoteCache::new();
        let (env, budget) = (Valuation::new(), Budget::unlimited());
        let first = vec![Pdl::after_all(insert.clone(), a.clone())];
        check_batch_budget_with(&first, &u, &env, &mut cache, &budget).unwrap();
        let computed_before = cache.stats().computed;
        // Re-checking the same program is a pure cache hit.
        let second = vec![Pdl::after_some(insert, a)];
        check_batch_budget_with(&second, &u, &env, &mut cache, &budget).unwrap();
        assert_eq!(cache.stats().computed, computed_before);
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn connectives() {
        let (u, _insert, atom) = setup();
        let a = Pdl::Atom(atom);
        let tauto = a.clone().implies(a.clone().or(a.clone().not().not()));
        assert!(valid(&u, &tauto).unwrap());
        let contra = a.clone().and(a.not());
        assert!(satisfying_states(&u, &contra).unwrap().iter().all(|b| !b));
    }
}
