//! Terms of a many-sorted first-order language.

use std::collections::BTreeSet;

use eclectic_kernel::{TermId, TermNode, TermStore};

use crate::error::{LogicError, Result};
use crate::signature::Signature;
use crate::symbols::{FuncId, SortId, VarId};

/// A term: either a variable or a function symbol applied to argument terms
/// (constants are 0-ary applications).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable.
    Var(VarId),
    /// `f(t1, …, tn)`.
    App(FuncId, Vec<Term>),
}

impl Term {
    /// A constant term (0-ary application).
    #[must_use]
    pub fn constant(f: FuncId) -> Term {
        Term::App(f, Vec::new())
    }

    /// Convenience constructor for an application.
    #[must_use]
    pub fn app(f: FuncId, args: Vec<Term>) -> Term {
        Term::App(f, args)
    }

    /// The sort of this term under the given signature.
    ///
    /// # Errors
    /// Returns an error if the term is ill-sorted.
    pub fn sort(&self, sig: &Signature) -> Result<SortId> {
        match self {
            Term::Var(v) => Ok(sig.var(*v).sort),
            Term::App(f, args) => {
                let decl = sig.func(*f);
                if decl.arity() != args.len() {
                    return Err(LogicError::ArityMismatch {
                        name: decl.name.clone(),
                        expected: decl.arity(),
                        found: args.len(),
                    });
                }
                for (arg, &expected) in args.iter().zip(&decl.domain) {
                    let found = arg.sort(sig)?;
                    if found != expected {
                        return Err(LogicError::SortMismatch {
                            context: format!("argument of `{}`", decl.name),
                            expected: sig.sort_name(expected).to_string(),
                            found: sig.sort_name(found).to_string(),
                        });
                    }
                }
                Ok(decl.range)
            }
        }
    }

    /// Checks well-sortedness (arities and argument sorts).
    ///
    /// # Errors
    /// Returns the first sorting error found.
    pub fn check(&self, sig: &Signature) -> Result<()> {
        self.sort(sig).map(|_| ())
    }

    /// Whether the term contains no variables.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// The set of variables occurring in the term.
    #[must_use]
    pub fn vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Accumulates variables into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Term::Var(v) => {
                out.insert(*v);
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Number of symbol occurrences (variables and function symbols).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Maximum nesting depth (a constant or variable has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }

    /// Iterator over all subterms, including the term itself (pre-order).
    #[must_use]
    pub fn subterms(&self) -> Vec<&Term> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            out.push(t);
            if let Term::App(_, args) = t {
                for a in args.iter().rev() {
                    stack.push(a);
                }
            }
        }
        out
    }

    /// Whether `other` occurs as a subterm (including equal to `self`).
    #[must_use]
    pub fn contains(&self, other: &Term) -> bool {
        self.subterms().contains(&other)
    }

    /// Interns this term into a kernel [`TermStore`], returning its handle.
    ///
    /// The handle's equality is structural equality (the store's
    /// hash-consing invariant), so interning is the bridge from this owned
    /// tree representation to the O(1)-comparable interned one used by the
    /// rewriting and reachability hot paths.
    pub fn intern(&self, store: &mut TermStore) -> TermId {
        match self {
            Term::Var(v) => store.var(*v),
            Term::App(f, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| a.intern(store)).collect();
                store.app(*f, &ids)
            }
        }
    }

    /// Reconstructs an owned [`Term`] from an interned handle (the inverse
    /// of [`Term::intern`] up to structural equality).
    #[must_use]
    pub fn from_interned(store: &TermStore, id: TermId) -> Term {
        match store.node(id) {
            TermNode::Var(v) => Term::Var(v),
            TermNode::App(f, args) => Term::App(
                f,
                args.iter()
                    .map(|&a| Term::from_interned(store, a))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_kernel::TermStore;

    fn sample() -> (Signature, FuncId, FuncId, VarId) {
        let mut sig = Signature::new();
        let s = sig.add_sort("s").unwrap();
        let a = sig.add_constant("a", s).unwrap();
        let f = sig.add_func("f", &[s, s], s).unwrap();
        let x = sig.add_var("x", s).unwrap();
        (sig, a, f, x)
    }

    #[test]
    fn sorts_and_checks() {
        let (sig, a, f, x) = sample();
        let t = Term::app(f, vec![Term::constant(a), Term::Var(x)]);
        assert_eq!(t.sort(&sig).unwrap(), sig.sort_id("s").unwrap());
        assert!(t.check(&sig).is_ok());

        let bad = Term::app(f, vec![Term::constant(a)]);
        assert!(matches!(
            bad.check(&sig),
            Err(LogicError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn sort_mismatch_detected() {
        let mut sig = Signature::new();
        let s = sig.add_sort("s").unwrap();
        let t_sort = sig.add_sort("t").unwrap();
        let a = sig.add_constant("a", t_sort).unwrap();
        let f = sig.add_func("f", &[s], s).unwrap();
        let bad = Term::app(f, vec![Term::constant(a)]);
        assert!(matches!(
            bad.check(&sig),
            Err(LogicError::SortMismatch { .. })
        ));
    }

    #[test]
    fn groundness_vars_size_depth() {
        let (_sig, a, f, x) = sample();
        let t = Term::app(f, vec![Term::constant(a), Term::Var(x)]);
        assert!(!t.is_ground());
        assert!(Term::constant(a).is_ground());
        assert_eq!(t.vars().into_iter().collect::<Vec<_>>(), vec![x]);
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn intern_roundtrips_and_kernel_subst_agrees_with_subst() {
        let (_sig, a, f, x) = sample();
        let t = Term::app(
            f,
            vec![
                Term::app(f, vec![Term::constant(a), Term::Var(x)]),
                Term::Var(x),
            ],
        );
        let mut store = TermStore::new();
        let id = t.intern(&mut store);
        // Roundtrip, and interning idempotence at the handle level.
        assert_eq!(Term::from_interned(&store, id), t);
        assert_eq!(t.intern(&mut store), id);

        // Kernel substitution agrees with the tree-level `Subst`.
        let repl = Term::app(f, vec![Term::constant(a), Term::constant(a)]);
        let expected = crate::Subst::single(x, repl.clone()).apply_term(&t);
        let mut b = eclectic_kernel::Binding::new();
        let repl_id = repl.intern(&mut store);
        b.bind(x, repl_id);
        let got = store.subst(id, &b);
        assert_eq!(Term::from_interned(&store, got), expected);
        // The substituted term is ground, so re-substituting is the identity.
        assert_eq!(store.subst(got, &b), got);
    }

    #[test]
    fn subterms_and_contains() {
        let (_sig, a, f, x) = sample();
        let inner = Term::app(f, vec![Term::constant(a), Term::Var(x)]);
        let t = Term::app(f, vec![inner.clone(), Term::constant(a)]);
        assert_eq!(t.subterms().len(), 5);
        assert!(t.contains(&inner));
        assert!(t.contains(&Term::Var(x)));
        assert!(!inner.contains(&t));
    }
}
