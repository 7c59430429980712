//! First-order evaluation: Tarskian satisfaction over finite structures.
//!
//! Implements the satisfaction relation `A ⊨ P[v]` of §3.1 for the
//! first-order fragment; the modal rule is added by `eclectic-temporal`,
//! which calls back into this module for the non-modal cases.

use crate::error::{LogicError, Result};
use crate::formula::Formula;
use crate::signature::Signature;
use crate::structure::{Domains, Elem, Structure};
use crate::symbols::{FuncId, PredId};
use crate::term::Term;
use crate::valuation::Valuation;

/// What first-order evaluation reads of a finite structure: its signature,
/// its carriers, and the value of each predicate and function symbol.
///
/// [`Structure`] implements it by table lookup. A representation-level
/// universe implements it on a state *code*, without building the
/// structure the code stands for, so every level evaluates formulas with
/// the one evaluator in this module.
pub trait StructureView {
    /// The signature interpreted.
    fn signature(&self) -> &Signature;

    /// The carriers of every sort.
    fn domains(&self) -> &Domains;

    /// Whether `tuple` is in the predicate's relation.
    fn pred_holds(&self, p: PredId, tuple: &[Elem]) -> bool;

    /// The function's value on `args`.
    ///
    /// # Errors
    /// Returns [`LogicError::UndefinedFunctionValue`] where the function's
    /// table has no entry for `args`.
    fn func_value(&self, f: FuncId, args: &[Elem]) -> Result<Elem>;
}

impl StructureView for Structure {
    fn signature(&self) -> &Signature {
        Structure::signature(self)
    }

    fn domains(&self) -> &Domains {
        Structure::domains(self)
    }

    fn pred_holds(&self, p: PredId, tuple: &[Elem]) -> bool {
        Structure::pred_holds(self, p, tuple)
    }

    fn func_value(&self, f: FuncId, args: &[Elem]) -> Result<Elem> {
        Structure::func_value(self, f, args)
    }
}

/// Evaluates a term to a carrier element.
///
/// # Errors
/// Returns [`LogicError::UnboundVariable`] for variables missing from the
/// valuation and [`LogicError::UndefinedFunctionValue`] for partial function
/// tables.
pub fn eval_term<S: StructureView + ?Sized>(st: &S, v: &Valuation, t: &Term) -> Result<Elem> {
    match t {
        Term::Var(x) => v.get(*x).ok_or_else(|| {
            LogicError::UnboundVariable(st.signature().var(*x).name.clone())
        }),
        Term::App(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_term(st, v, a)?);
            }
            st.func_value(*f, &vals)
        }
    }
}

/// Decides `A ⊨ P[v]` for a first-order formula over a finite structure.
///
/// Quantifiers range over the (finite) carrier of the bound variable's sort.
///
/// # Errors
/// Returns [`LogicError::ModalInFirstOrder`] if the formula contains a modal
/// operator, plus any term-evaluation error.
pub fn satisfies<S: StructureView + ?Sized>(st: &S, v: &Valuation, f: &Formula) -> Result<bool> {
    let mut v = v.clone();
    satisfies_mut(st, &mut v, f)
}

/// As [`satisfies`], but reuses a mutable valuation to avoid cloning in the
/// quantifier cases. The valuation is restored before returning.
///
/// # Errors
/// See [`satisfies`].
pub fn satisfies_mut<S: StructureView + ?Sized>(
    st: &S,
    v: &mut Valuation,
    f: &Formula,
) -> Result<bool> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Pred(p, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_term(st, v, a)?);
            }
            Ok(st.pred_holds(*p, &vals))
        }
        Formula::Eq(a, b) => Ok(eval_term(st, v, a)? == eval_term(st, v, b)?),
        Formula::Not(p) => Ok(!satisfies_mut(st, v, p)?),
        Formula::And(p, q) => Ok(satisfies_mut(st, v, p)? && satisfies_mut(st, v, q)?),
        Formula::Or(p, q) => Ok(satisfies_mut(st, v, p)? || satisfies_mut(st, v, q)?),
        Formula::Implies(p, q) => Ok(!satisfies_mut(st, v, p)? || satisfies_mut(st, v, q)?),
        Formula::Iff(p, q) => Ok(satisfies_mut(st, v, p)? == satisfies_mut(st, v, q)?),
        Formula::Forall(x, p) => {
            let sort = st.signature().var(*x).sort;
            for e in st.domains().elems(sort) {
                let holds = v.with(*x, e, |v| satisfies_mut(st, v, p))?;
                if !holds {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Exists(x, p) => {
            let sort = st.signature().var(*x).sort;
            for e in st.domains().elems(sort) {
                let holds = v.with(*x, e, |v| satisfies_mut(st, v, p))?;
                if holds {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Possibly(_) | Formula::Necessarily(_) => Err(LogicError::ModalInFirstOrder),
    }
}

/// Decides satisfaction of a closed first-order formula.
///
/// # Errors
/// See [`satisfies`].
pub fn models<S: StructureView + ?Sized>(st: &S, f: &Formula) -> Result<bool> {
    satisfies(st, &Valuation::new(), f)
}

/// Enumerates all assignments of the variables `free` that satisfy `f`,
/// in lexicographic element order, under a base valuation for any *other*
/// free variables of `f` (e.g. procedure parameters at the representation
/// level). Variables in `free` shadow the base valuation. Useful for
/// evaluating relational terms `{(x1, …, xn) / P}` at the representation
/// level.
///
/// # Errors
/// See [`satisfies`].
pub fn satisfying_assignments_with<S: StructureView + ?Sized>(
    st: &S,
    base: &Valuation,
    f: &Formula,
    free: &[crate::symbols::VarId],
) -> Result<Vec<Vec<Elem>>> {
    let mut out = Vec::new();
    let mut v = base.clone();
    enumerate(st, f, free, 0, &mut v, &mut out)?;
    Ok(out)
}

fn enumerate<S: StructureView + ?Sized>(
    st: &S,
    f: &Formula,
    free: &[crate::symbols::VarId],
    i: usize,
    v: &mut Valuation,
    out: &mut Vec<Vec<Elem>>,
) -> Result<()> {
    if i == free.len() {
        if satisfies_mut(st, v, f)? {
            out.push(free.iter().map(|x| v.get(*x).expect("assigned")).collect());
        }
        return Ok(());
    }
    let x = free[i];
    let sort = st.signature().var(x).sort;
    for e in st.domains().elems(sort) {
        v.with(x, e, |v| enumerate(st, f, free, i + 1, v, out))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use crate::structure::Domains;
    use std::sync::Arc;

    /// Builds the paper's courses example signature plus a sample state:
    /// offered = {db, logic}, takes = {(ana, db)}.
    fn sample() -> Structure {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        sig.add_db_predicate("takes", &[student, course]).unwrap();
        sig.add_var("s", student).unwrap();
        sig.add_var("c", course).unwrap();
        let dom = Domains::from_names(
            &sig,
            &[
                ("student", &["ana", "bob"]),
                ("course", &["db", "logic", "ai"]),
            ],
        )
        .unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let takes = sig.pred_id("takes").unwrap();
        let mut st = Structure::new(Arc::new(sig), Arc::new(dom));
        st.insert_pred(offered, vec![Elem(0)]).unwrap();
        st.insert_pred(offered, vec![Elem(1)]).unwrap();
        st.insert_pred(takes, vec![Elem(0), Elem(0)]).unwrap();
        st
    }

    #[test]
    fn static_constraint_holds_in_consistent_state() {
        let st = sample();
        let sig = st.signature().clone();
        let s = sig.var_id("s").unwrap();
        let c = sig.var_id("c").unwrap();
        let takes = sig.pred_id("takes").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        // ¬∃s∃c (takes(s,c) ∧ ¬offered(c))
        let ax = Formula::exists(
            s,
            Formula::exists(
                c,
                Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)])
                    .and(Formula::Pred(offered, vec![Term::Var(c)]).not()),
            ),
        )
        .not();
        assert!(models(&st, &ax).unwrap());
    }

    #[test]
    fn static_constraint_fails_in_inconsistent_state() {
        let mut st = sample();
        let sig = st.signature().clone();
        let takes = sig.pred_id("takes").unwrap();
        // bob takes ai, which is not offered.
        st.insert_pred(takes, vec![Elem(1), Elem(2)]).unwrap();
        let s = sig.var_id("s").unwrap();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let ax = Formula::exists(
            s,
            Formula::exists(
                c,
                Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)])
                    .and(Formula::Pred(offered, vec![Term::Var(c)]).not()),
            ),
        )
        .not();
        assert!(!models(&st, &ax).unwrap());
    }

    #[test]
    fn quantifier_semantics() {
        let st = sample();
        let sig = st.signature().clone();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let all_offered = Formula::forall(c, Formula::Pred(offered, vec![Term::Var(c)]));
        let some_offered = Formula::exists(c, Formula::Pred(offered, vec![Term::Var(c)]));
        assert!(!models(&st, &all_offered).unwrap());
        assert!(models(&st, &some_offered).unwrap());
    }

    #[test]
    fn modal_rejected_in_first_order_eval() {
        let st = sample();
        let sig = st.signature().clone();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let f = Formula::Pred(offered, vec![Term::Var(c)]).possibly();
        let mut v = Valuation::new();
        v.set(c, Elem(0));
        assert_eq!(satisfies(&st, &v, &f), Err(LogicError::ModalInFirstOrder));
    }

    #[test]
    fn unbound_variable_reported() {
        let st = sample();
        let sig = st.signature().clone();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let f = Formula::Pred(offered, vec![Term::Var(c)]);
        assert!(matches!(
            models(&st, &f),
            Err(LogicError::UnboundVariable(_))
        ));
    }

    #[test]
    fn satisfying_assignments_enumerate_relation() {
        let st = sample();
        let sig = st.signature().clone();
        let c = sig.var_id("c").unwrap();
        let offered = sig.pred_id("offered").unwrap();
        let f = Formula::Pred(offered, vec![Term::Var(c)]);
        let rows = satisfying_assignments_with(&st, &Valuation::new(), &f, &[c]).unwrap();
        assert_eq!(rows, vec![vec![Elem(0)], vec![Elem(1)]]);
    }

    #[test]
    fn equality_and_connectives() {
        let st = sample();
        let sig = st.signature().clone();
        let c = sig.var_id("c").unwrap();
        let mut v = Valuation::new();
        v.set(c, Elem(0));
        let refl = Formula::Eq(Term::Var(c), Term::Var(c));
        assert!(satisfies(&st, &v, &refl).unwrap());
        assert!(satisfies(&st, &v, &Formula::True.implies(Formula::True)).unwrap());
        assert!(satisfies(&st, &v, &Formula::False.implies(Formula::False)).unwrap());
        assert!(!satisfies(&st, &v, &Formula::True.iff(Formula::False)).unwrap());
    }
}
