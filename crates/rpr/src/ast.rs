//! Abstract syntax of Regular Programs over Relations (paper §5.1.1).
//!
//! Core statements are scalar assignment, relational assignment, test,
//! union, composition and iteration. The familiar constructs `if-then`,
//! `if-then-else`, `while`, `insert` and `delete` are first-class AST nodes
//! with direct semantics *and* a [`Stmt::desugar`] translation into the core
//! — the paper introduces them "by definition".
//!
//! Procedure bodies may mention the procedure's parameter variables; they
//! are bound at call time (the `A[c1/Y1, …, cm/Ym]` of the semantics of
//! `k`). Validation therefore takes the set of allowed free variables.

use std::collections::BTreeSet;

use eclectic_logic::{Formula, FuncId, PredId, Signature, Term, VarId};

use crate::error::{Result, RprError};

/// A relational term `{(x1, …, xn) / P}`: the set of tuples over the bound
/// variables satisfying `P` (paper §5.1.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelTerm {
    /// The tuple variables, in column order.
    pub vars: Vec<VarId>,
    /// The defining wff; its free variables must be among `vars` plus the
    /// enclosing procedure's parameters.
    pub wff: Formula,
}

impl RelTerm {
    /// Validates: wff well-sorted, first-order, and free variables within
    /// the tuple variables plus `allowed`.
    ///
    /// # Errors
    /// Returns [`RprError::BadStatement`] on violations.
    pub fn validate(&self, sig: &Signature, allowed: &BTreeSet<VarId>) -> Result<()> {
        self.wff.check(sig)?;
        if !self.wff.is_first_order() {
            return Err(RprError::BadStatement(
                "relational term wffs must be first-order".into(),
            ));
        }
        for v in self.wff.free_vars() {
            if !self.vars.contains(&v) && !allowed.contains(&v) {
                return Err(RprError::BadStatement(format!(
                    "relational term wff has stray free variable `{}`",
                    sig.var(v).name
                )));
            }
        }
        Ok(())
    }
}

/// An RPR statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `x := t` — scalar program variable assignment (`x` is a distinguished
    /// constant; `t` may mention only parameter variables).
    Assign(FuncId, Term),
    /// `R := {(x̄) / P}` — relational assignment.
    RelAssign(PredId, RelTerm),
    /// `P?` — test: proceed iff `P` holds (free variables only from
    /// parameters).
    Test(Formula),
    /// `(p ∪ q)` — nondeterministic choice.
    Union(Box<Stmt>, Box<Stmt>),
    /// `(p ; q)` — sequential composition.
    Seq(Box<Stmt>, Box<Stmt>),
    /// `p*` — iteration (reflexive-transitive closure).
    Star(Box<Stmt>),
    /// `if P then p` ≡ `(P?; p) ∪ (¬P?)`.
    IfThen(Formula, Box<Stmt>),
    /// `if P then p else q` ≡ `(P?; p) ∪ (¬P?; q)`.
    IfThenElse(Formula, Box<Stmt>, Box<Stmt>),
    /// `while P do p` ≡ `(P?; p)* ; ¬P?`.
    While(Formula, Box<Stmt>),
    /// `insert R(t̄)` ≡ `R := {(x̄) / R(x̄) ∨ x̄ = t̄}`.
    Insert(PredId, Vec<Term>),
    /// `delete R(t̄)` ≡ `R := {(x̄) / R(x̄) ∧ ¬(x̄ = t̄)}`.
    Delete(PredId, Vec<Term>),
    /// `skip` ≡ `true?` (convenience).
    Skip,
}

impl Stmt {
    /// `(p ; q)`.
    #[must_use]
    pub fn seq(self, q: Stmt) -> Stmt {
        Stmt::Seq(Box::new(self), Box::new(q))
    }

    /// `(p ∪ q)`.
    #[must_use]
    pub fn union(self, q: Stmt) -> Stmt {
        Stmt::Union(Box::new(self), Box::new(q))
    }

    /// `p*`.
    #[must_use]
    pub fn star(self) -> Stmt {
        Stmt::Star(Box::new(self))
    }

    /// `if cond then self`.
    #[must_use]
    pub fn guarded_by(self, cond: Formula) -> Stmt {
        Stmt::IfThen(cond, Box::new(self))
    }

    /// The free (parameter) variables the statement's meaning depends on:
    /// variables of scalar-assignment terms and insert/delete argument
    /// tuples, free variables of test/guard formulas, and relational-term
    /// wff variables minus the tuple variables they bind.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Stmt::Skip => {}
            Stmt::Assign(_, t) => out.extend(t.vars()),
            Stmt::RelAssign(_, rt) => {
                for v in rt.wff.free_vars() {
                    if !rt.vars.contains(&v) {
                        out.insert(v);
                    }
                }
            }
            Stmt::Test(f) => out.extend(f.free_vars()),
            Stmt::Insert(_, ts) | Stmt::Delete(_, ts) => {
                for t in ts {
                    out.extend(t.vars());
                }
            }
            Stmt::Union(p, q) | Stmt::Seq(p, q) => {
                p.collect_free_vars(out);
                q.collect_free_vars(out);
            }
            Stmt::Star(p) => p.collect_free_vars(out),
            Stmt::IfThen(c, p) | Stmt::While(c, p) => {
                out.extend(c.free_vars());
                p.collect_free_vars(out);
            }
            Stmt::IfThenElse(c, p, q) => {
                out.extend(c.free_vars());
                p.collect_free_vars(out);
                q.collect_free_vars(out);
            }
        }
    }

    /// Whether the statement is *deterministic* in the paper's sense:
    /// constructed from assignments, insert/delete, skip and the derived
    /// deterministic constructs only (no bare test, union or star).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        match self {
            Stmt::Assign(..)
            | Stmt::RelAssign(..)
            | Stmt::Insert(..)
            | Stmt::Delete(..)
            | Stmt::Skip => true,
            Stmt::Test(_) | Stmt::Union(..) | Stmt::Star(_) => false,
            Stmt::Seq(p, q) => p.is_deterministic() && q.is_deterministic(),
            Stmt::IfThen(_, p) | Stmt::While(_, p) => p.is_deterministic(),
            Stmt::IfThenElse(_, p, q) => p.is_deterministic() && q.is_deterministic(),
        }
    }

    /// Whether the statement has no `while`, union or star: it is built from
    /// atomic statements (total functions on a universe) and tests (partial
    /// identities) by `;` and conditionals, so it denotes a partial
    /// function. These are the procedure bodies whose dynamic contracts the
    /// verifier checks. Unlike [`Stmt::is_deterministic`] it admits a bare
    /// test, which can make a body partial.
    #[must_use]
    pub fn is_loop_and_choice_free(&self) -> bool {
        match self {
            Stmt::Assign(..)
            | Stmt::RelAssign(..)
            | Stmt::Insert(..)
            | Stmt::Delete(..)
            | Stmt::Skip
            | Stmt::Test(_) => true,
            Stmt::Union(..) | Stmt::Star(_) | Stmt::While(..) => false,
            Stmt::Seq(p, q) | Stmt::IfThenElse(_, p, q) => {
                p.is_loop_and_choice_free() && q.is_loop_and_choice_free()
            }
            Stmt::IfThen(_, p) => p.is_loop_and_choice_free(),
        }
    }

    /// Validates a statement whose free variables are all bound by the
    /// enclosing procedure's parameters (`allowed`).
    ///
    /// # Errors
    /// Returns [`RprError::BadStatement`] describing the first violation.
    pub fn validate(&self, sig: &Signature, allowed: &BTreeSet<VarId>) -> Result<()> {
        let check_vars = |t: &Term, what: &str| -> Result<()> {
            for v in t.vars() {
                if !allowed.contains(&v) {
                    return Err(RprError::BadStatement(format!(
                        "{what} mentions non-parameter variable `{}`",
                        sig.var(v).name
                    )));
                }
            }
            Ok(())
        };
        match self {
            Stmt::Skip => Ok(()),
            Stmt::Assign(x, t) => {
                let decl = sig.func(*x);
                if !decl.is_constant() {
                    return Err(RprError::BadStatement(format!(
                        "`{}` is not a scalar program variable",
                        decl.name
                    )));
                }
                check_vars(t, "assignment right-hand side")?;
                let found = t.sort(sig)?;
                if found != decl.range {
                    return Err(RprError::BadStatement(format!(
                        "assigning a `{}` value to `{}`",
                        sig.sort_name(found),
                        decl.name
                    )));
                }
                Ok(())
            }
            Stmt::RelAssign(r, f) => {
                f.validate(sig, allowed)?;
                let decl = sig.pred(*r);
                if decl.arity() != f.vars.len() {
                    return Err(RprError::BadStatement(format!(
                        "relational term arity {} does not match `{}`",
                        f.vars.len(),
                        decl.name
                    )));
                }
                for (v, &s) in f.vars.iter().zip(&decl.domain) {
                    if sig.var(*v).sort != s {
                        return Err(RprError::BadStatement(format!(
                            "tuple variable `{}` has the wrong sort for `{}`",
                            sig.var(*v).name,
                            decl.name
                        )));
                    }
                }
                Ok(())
            }
            Stmt::Test(p) => validate_wff(sig, p, allowed),
            Stmt::Union(p, q) | Stmt::Seq(p, q) => {
                p.validate(sig, allowed)?;
                q.validate(sig, allowed)
            }
            Stmt::Star(p) => p.validate(sig, allowed),
            Stmt::IfThen(c, p) => {
                validate_wff(sig, c, allowed)?;
                p.validate(sig, allowed)
            }
            Stmt::IfThenElse(c, p, q) => {
                validate_wff(sig, c, allowed)?;
                p.validate(sig, allowed)?;
                q.validate(sig, allowed)
            }
            Stmt::While(c, p) => {
                validate_wff(sig, c, allowed)?;
                p.validate(sig, allowed)
            }
            Stmt::Insert(r, args) | Stmt::Delete(r, args) => {
                let decl = sig.pred(*r);
                if decl.arity() != args.len() {
                    return Err(RprError::BadStatement(format!(
                        "`{}` expects {} column(s), got {}",
                        decl.name,
                        decl.arity(),
                        args.len()
                    )));
                }
                for (t, &s) in args.iter().zip(&decl.domain) {
                    check_vars(t, "insert/delete argument")?;
                    let found = t.sort(sig)?;
                    if found != s {
                        return Err(RprError::BadStatement(format!(
                            "column of `{}` expects `{}`, got `{}`",
                            decl.name,
                            sig.sort_name(s),
                            sig.sort_name(found)
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Translates derived constructs into the core language
    /// (`if`, `while`, `insert`, `delete`, `skip` disappear). Fresh tuple
    /// variables for insert/delete are drawn from the signature.
    ///
    /// The result has the same meaning — exercised by tests comparing
    /// [`crate::exec::run`] and [`crate::denote::meaning`] on both forms.
    pub fn desugar(&self, sig: &mut Signature) -> Stmt {
        match self {
            Stmt::Assign(..) | Stmt::RelAssign(..) | Stmt::Test(_) => self.clone(),
            Stmt::Skip => Stmt::Test(Formula::True),
            Stmt::Union(p, q) => p.desugar(sig).union(q.desugar(sig)),
            Stmt::Seq(p, q) => p.desugar(sig).seq(q.desugar(sig)),
            Stmt::Star(p) => p.desugar(sig).star(),
            Stmt::IfThen(c, p) => Stmt::Test(c.clone())
                .seq(p.desugar(sig))
                .union(Stmt::Test(c.clone().not())),
            Stmt::IfThenElse(c, p, q) => Stmt::Test(c.clone())
                .seq(p.desugar(sig))
                .union(Stmt::Test(c.clone().not()).seq(q.desugar(sig))),
            Stmt::While(c, p) => Stmt::Test(c.clone())
                .seq(p.desugar(sig))
                .star()
                .seq(Stmt::Test(c.clone().not())),
            Stmt::Insert(r, args) => {
                let (vars, tuple_formula) = tuple_pattern(sig, *r, args);
                let old = Formula::Pred(*r, vars.iter().map(|v| Term::Var(*v)).collect());
                Stmt::RelAssign(
                    *r,
                    RelTerm {
                        vars,
                        wff: old.or(tuple_formula),
                    },
                )
            }
            Stmt::Delete(r, args) => {
                let (vars, tuple_formula) = tuple_pattern(sig, *r, args);
                let old = Formula::Pred(*r, vars.iter().map(|v| Term::Var(*v)).collect());
                Stmt::RelAssign(
                    *r,
                    RelTerm {
                        vars,
                        wff: old.and(tuple_formula.not()),
                    },
                )
            }
        }
    }
}

/// Checks a test/guard wff: well-sorted, first-order, free variables only
/// from `allowed`.
fn validate_wff(sig: &Signature, p: &Formula, allowed: &BTreeSet<VarId>) -> Result<()> {
    p.check(sig)?;
    if !p.is_first_order() {
        return Err(RprError::BadStatement(
            "test wffs must be first-order".into(),
        ));
    }
    for v in p.free_vars() {
        if !allowed.contains(&v) {
            return Err(RprError::BadStatement(format!(
                "test wff has stray free variable `{}`",
                sig.var(v).name
            )));
        }
    }
    Ok(())
}

/// Fresh tuple variables for `R`'s columns plus the formula `x̄ = t̄`.
fn tuple_pattern(sig: &mut Signature, r: PredId, args: &[Term]) -> (Vec<VarId>, Formula) {
    let domain = sig.pred(r).domain.clone();
    let vars: Vec<VarId> = domain
        .iter()
        .map(|&s| {
            let hint = sig.sort_name(s).chars().next().unwrap_or('x').to_string();
            sig.fresh_var(&hint, s)
        })
        .collect();
    let eqs = Formula::conj(
        vars.iter()
            .zip(args)
            .map(|(v, t)| Formula::Eq(Term::Var(*v), t.clone())),
    );
    (vars, eqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("OFFERED", &[course]).unwrap();
        sig.add_db_predicate("TAKES", &[student, course]).unwrap();
        sig.add_var("s", student).unwrap();
        sig.add_var("c", course).unwrap();
        sig
    }

    fn params(sig: &Signature, names: &[&str]) -> BTreeSet<VarId> {
        names.iter().map(|n| sig.var_id(n).unwrap()).collect()
    }

    #[test]
    fn validation_accepts_paper_procedures() {
        let sg = sig();
        let offered = sg.pred_id("OFFERED").unwrap();
        let takes = sg.pred_id("TAKES").unwrap();
        let s = sg.var_id("s").unwrap();
        let c = sg.var_id("c").unwrap();
        // proc enroll(s, c) = if OFFERED(c) then insert TAKES(s, c)
        let cond = Formula::Pred(offered, vec![Term::Var(c)]);
        let body = Stmt::Insert(takes, vec![Term::Var(s), Term::Var(c)]);
        let stmt = body.guarded_by(cond);
        stmt.validate(&sg, &params(&sg, &["s", "c"])).unwrap();
        assert!(stmt.is_deterministic());
        // Without the parameters in scope, validation fails.
        assert!(stmt.validate(&sg, &BTreeSet::new()).is_err());
    }

    #[test]
    fn stray_variable_rejected() {
        let sg = sig();
        let offered = sg.pred_id("OFFERED").unwrap();
        let c = sg.var_id("c").unwrap();
        let open = Stmt::Test(Formula::Pred(offered, vec![Term::Var(c)]));
        assert!(matches!(
            open.validate(&sg, &BTreeSet::new()),
            Err(RprError::BadStatement(_))
        ));
        open.validate(&sg, &params(&sg, &["c"])).unwrap();
    }

    #[test]
    fn modal_test_rejected() {
        let sg = sig();
        let t = Stmt::Test(Formula::True.possibly());
        assert!(matches!(
            t.validate(&sg, &BTreeSet::new()),
            Err(RprError::BadStatement(_))
        ));
    }

    #[test]
    fn arity_and_sort_checks() {
        let sg = sig();
        let takes = sg.pred_id("TAKES").unwrap();
        let c = sg.var_id("c").unwrap();
        let bad = Stmt::Insert(takes, vec![Term::Var(c)]);
        assert!(bad.validate(&sg, &params(&sg, &["c"])).is_err());
        let bad = Stmt::Insert(takes, vec![Term::Var(c), Term::Var(c)]);
        assert!(bad.validate(&sg, &params(&sg, &["c"])).is_err());
    }

    #[test]
    fn determinism_classification() {
        let sg = sig();
        let offered = sg.pred_id("OFFERED").unwrap();
        let c = sg.var_id("c").unwrap();
        let ins = Stmt::Insert(offered, vec![Term::Var(c)]);
        assert!(ins.is_deterministic());
        assert!(!ins.clone().union(Stmt::Skip).is_deterministic());
        assert!(!Stmt::Skip.star().is_deterministic());
        assert!(ins.clone().guarded_by(Formula::True).is_deterministic());

        // The checked fragment admits bare tests, not loops or choice.
        let tested = Stmt::Test(Formula::True).seq(ins.clone());
        assert!(!tested.is_deterministic());
        assert!(tested.is_loop_and_choice_free());
        assert!(ins
            .clone()
            .guarded_by(Formula::True)
            .is_loop_and_choice_free());
        assert!(!ins.clone().union(Stmt::Skip).is_loop_and_choice_free());
        assert!(!ins.clone().star().is_loop_and_choice_free());
        assert!(!Stmt::While(Formula::True, Box::new(ins)).is_loop_and_choice_free());
    }

    #[test]
    fn desugar_produces_core_constructs() {
        let mut sg = sig();
        let offered = sg.pred_id("OFFERED").unwrap();
        let c = sg.var_id("c").unwrap();
        let cond = Formula::Pred(offered, vec![Term::Var(c)]);
        let stmt = Stmt::Insert(offered, vec![Term::Var(c)]).guarded_by(cond);
        let core = stmt.desugar(&mut sg);
        fn core_only(s: &Stmt) -> bool {
            match s {
                Stmt::Assign(..) | Stmt::RelAssign(..) | Stmt::Test(_) => true,
                Stmt::Union(p, q) | Stmt::Seq(p, q) => core_only(p) && core_only(q),
                Stmt::Star(p) => core_only(p),
                _ => false,
            }
        }
        assert!(core_only(&core));
        core.validate(&sg, &params(&sg, &["c"])).unwrap();
    }

    #[test]
    fn relterm_free_var_check() {
        let sg = sig();
        let s = sg.var_id("s").unwrap();
        let c = sg.var_id("c").unwrap();
        let takes = sg.pred_id("TAKES").unwrap();
        let good = RelTerm {
            vars: vec![s, c],
            wff: Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)]),
        };
        good.validate(&sg, &BTreeSet::new()).unwrap();
        let partial = RelTerm {
            vars: vec![s],
            wff: Formula::Pred(takes, vec![Term::Var(s), Term::Var(c)]),
        };
        // `c` stray unless it is a parameter.
        assert!(partial.validate(&sg, &BTreeSet::new()).is_err());
        partial
            .validate(&sg, &std::iter::once(c).collect())
            .unwrap();
    }
}
