//! The pre-kernel cloning rewriter, preserved verbatim behind the
//! `legacy-rewrite` feature.
//!
//! [`LegacyRewriter`] normalises owned [`Term`] trees with a
//! `BTreeMap<Term, Term>` memo table, cloning at every step. It exists as
//! the oracle for differential tests (the interned
//! [`Rewriter`](crate::Rewriter) must agree with it on every ground term)
//! and as the "before" side of the rewriting benchmarks. New code should
//! use [`Rewriter`](crate::Rewriter).

use std::collections::BTreeMap;

use eclectic_logic::{Formula, FuncId, Subst, Term, VarId};

use crate::error::{AlgError, Result};
use crate::printer::term_str;
use crate::rewrite::{match_term, RewriteStats};
use crate::spec::AlgSpec;

/// The original rewriting engine over one specification, memoising normal
/// forms of owned term trees.
#[derive(Debug)]
pub struct LegacyRewriter<'a> {
    spec: &'a AlgSpec,
    cache: BTreeMap<Term, Term>,
    /// Maximum rule applications per top-level `normalize` call.
    fuel_limit: usize,
    remaining: usize,
    stats: RewriteStats,
}

impl<'a> LegacyRewriter<'a> {
    /// Creates a rewriter with the default fuel limit.
    #[must_use]
    pub fn new(spec: &'a AlgSpec) -> Self {
        LegacyRewriter::with_fuel(spec, 1_000_000)
    }

    /// Creates a rewriter with a custom fuel limit (rule applications per
    /// top-level call) — useful for detecting non-terminating equation sets.
    #[must_use]
    pub fn with_fuel(spec: &'a AlgSpec, fuel_limit: usize) -> Self {
        LegacyRewriter {
            spec,
            cache: BTreeMap::new(),
            fuel_limit,
            remaining: fuel_limit,
            stats: RewriteStats::default(),
        }
    }

    /// The specification being evaluated.
    #[must_use]
    pub fn spec(&self) -> &AlgSpec {
        self.spec
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// Normalises a term. Ground query terms of a sufficiently complete
    /// specification reduce to parameter names; open terms reduce as far as
    /// the rules allow.
    ///
    /// # Errors
    /// Returns [`AlgError::RewriteLimit`] when fuel runs out, plus condition
    /// evaluation errors on ground terms.
    pub fn normalize(&mut self, t: &Term) -> Result<Term> {
        self.remaining = self.fuel_limit;
        self.norm(t).map_err(|e| match e {
            // Fuel runs out on an inner reduct; name the term the caller
            // actually asked about alongside the exhaustion site.
            AlgError::RewriteLimit { at, .. } => AlgError::RewriteLimit {
                subject: term_str(self.spec.signature(), t),
                at,
            },
            other => other,
        })
    }

    fn norm(&mut self, t: &Term) -> Result<Term> {
        if let Some(hit) = self.cache.get(t) {
            self.stats.cache_hits += 1;
            return Ok(hit.clone());
        }
        let out = self.norm_uncached(t)?;
        self.cache.insert(t.clone(), out.clone());
        Ok(out)
    }

    fn norm_uncached(&mut self, t: &Term) -> Result<Term> {
        let Term::App(f, args) = t else {
            return Ok(t.clone());
        };
        let mut nargs = Vec::with_capacity(args.len());
        for a in args {
            nargs.push(self.norm(a)?);
        }
        let t = Term::App(*f, nargs);

        if let Some(b) = self.try_builtin(&t)? {
            return Ok(b);
        }

        // Collect candidate equations up front to avoid borrowing issues.
        let candidates: Vec<usize> = {
            let mut v = Vec::new();
            for (i, eq) in self.spec.equations().iter().enumerate() {
                if eq.lhs_root() == Some(*f) {
                    v.push(i);
                }
            }
            v
        };
        for i in candidates {
            let eq = &self.spec.equations()[i];
            let mut binding = Subst::new();
            if !match_term(&eq.lhs, &t, &mut binding) {
                continue;
            }
            let cond = eq.condition.clone();
            let rhs = eq.rhs.clone();
            match self.eval_condition_subst(&cond, &binding) {
                Ok(true) => {
                    if self.remaining == 0 {
                        return Err(AlgError::RewriteLimit {
                            subject: String::new(),
                            at: term_str(self.spec.signature(), &t),
                        });
                    }
                    self.remaining -= 1;
                    self.stats.steps += 1;
                    let reduct = binding.apply_term(&rhs);
                    return self.norm(&reduct);
                }
                Ok(false) => continue,
                Err(AlgError::ConditionUndecided { .. }) if !t.is_ground() => {
                    // Open subject: skip the rule rather than fail.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(t)
    }

    /// Built-in evaluation of Boolean connectives and equality checks over
    /// already-normalised arguments. Returns `None` when no simplification
    /// applies.
    fn try_builtin(&mut self, t: &Term) -> Result<Option<Term>> {
        let Term::App(f, args) = t else {
            return Ok(None);
        };
        let sig = self.spec.signature();
        let tru = sig.true_term();
        let fls = sig.false_term();
        let is_true = |x: &Term| *x == tru;
        let is_false = |x: &Term| *x == fls;

        let out = if *f == sig.not_fn() {
            let a = &args[0];
            if is_true(a) {
                Some(fls)
            } else if is_false(a) {
                Some(tru)
            } else {
                None
            }
        } else if *f == sig.and_fn() {
            let (a, b) = (&args[0], &args[1]);
            if is_false(a) || is_false(b) {
                Some(fls)
            } else if is_true(a) {
                Some(b.clone())
            } else if is_true(b) || a == b {
                Some(a.clone())
            } else {
                None
            }
        } else if *f == sig.or_fn() {
            let (a, b) = (&args[0], &args[1]);
            if is_true(a) || is_true(b) {
                Some(tru)
            } else if is_false(a) {
                Some(b.clone())
            } else if is_false(b) || a == b {
                Some(a.clone())
            } else {
                None
            }
        } else if *f == sig.imp_fn() {
            let (a, b) = (&args[0], &args[1]);
            if is_false(a) || is_true(b) {
                Some(tru)
            } else if is_true(a) {
                Some(b.clone())
            } else if is_false(b) {
                // imp(x, False) = not(x); recurse for further simplification.
                let n = Term::App(sig.not_fn(), vec![a.clone()]);
                return Ok(Some(self.norm(&n)?));
            } else {
                None
            }
        } else if *f == sig.iff_fn() {
            let (a, b) = (&args[0], &args[1]);
            if is_true(a) {
                Some(b.clone())
            } else if is_true(b) {
                Some(a.clone())
            } else if is_false(a) {
                let n = Term::App(sig.not_fn(), vec![b.clone()]);
                return Ok(Some(self.norm(&n)?));
            } else if is_false(b) {
                let n = Term::App(sig.not_fn(), vec![a.clone()]);
                return Ok(Some(self.norm(&n)?));
            } else if a == b {
                Some(tru)
            } else {
                None
            }
        } else if sig.param_sorts().any(|s| sig.eq_fn(s) == Some(*f)) {
            let (a, b) = (&args[0], &args[1]);
            if a == b {
                Some(tru)
            } else if sig.is_param_name(a) && sig.is_param_name(b) {
                Some(fls)
            } else {
                None
            }
        } else {
            None
        };
        Ok(out)
    }

    /// Evaluates a condition under a match binding.
    fn eval_condition_subst(&mut self, cond: &Formula, binding: &Subst) -> Result<bool> {
        self.stats.conditions += 1;
        self.eval_cond(cond, binding)
    }

    fn eval_cond(&mut self, f: &Formula, binding: &Subst) -> Result<bool> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Not(p) => Ok(!self.eval_cond(p, binding)?),
            Formula::And(p, q) => Ok(self.eval_cond(p, binding)? && self.eval_cond(q, binding)?),
            Formula::Or(p, q) => Ok(self.eval_cond(p, binding)? || self.eval_cond(q, binding)?),
            Formula::Implies(p, q) => {
                Ok(!self.eval_cond(p, binding)? || self.eval_cond(q, binding)?)
            }
            Formula::Iff(p, q) => Ok(self.eval_cond(p, binding)? == self.eval_cond(q, binding)?),
            Formula::Eq(a, b) => {
                let na = self.norm(&binding.apply_term(a))?;
                let nb = self.norm(&binding.apply_term(b))?;
                if na == nb {
                    return Ok(true);
                }
                let sig = self.spec.signature();
                if sig.is_param_name(&na) && sig.is_param_name(&nb) {
                    return Ok(false);
                }
                Err(AlgError::ConditionUndecided {
                    term: if sig.is_param_name(&na) {
                        term_str(sig, &nb)
                    } else {
                        term_str(sig, &na)
                    },
                })
            }
            Formula::Exists(x, p) => {
                for k in self.carrier(*x)? {
                    let mut b2 = binding.clone();
                    b2.bind(*x, k);
                    if self.eval_cond(p, &b2)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Forall(x, p) => {
                for k in self.carrier(*x)? {
                    let mut b2 = binding.clone();
                    b2.bind(*x, k);
                    if !self.eval_cond(p, &b2)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Pred(..) | Formula::Possibly(..) | Formula::Necessarily(..) => {
                Err(AlgError::BadCondition(
                    "predicates/modalities cannot appear in equation conditions".into(),
                ))
            }
        }
    }

    /// The parameter names of a variable's sort, as terms.
    fn carrier(&self, x: VarId) -> Result<Vec<Term>> {
        let sig = self.spec.signature();
        let sort = sig.logic().var(x).sort;
        if sort == sig.state_sort() {
            return Err(AlgError::BadCondition(
                "quantification over states in a condition".into(),
            ));
        }
        Ok(sig
            .param_names(sort)
            .into_iter()
            .map(Term::constant)
            .collect())
    }

    /// Evaluates a ground Boolean term to `true`/`false`.
    ///
    /// # Errors
    /// Returns [`AlgError::NotSufficientlyComplete`] if the term does not
    /// reduce to `True` or `False`.
    pub fn eval_bool(&mut self, t: &Term) -> Result<bool> {
        let n = self.normalize(t)?;
        let sig = self.spec.signature();
        if n == sig.true_term() {
            Ok(true)
        } else if n == sig.false_term() {
            Ok(false)
        } else {
            Err(AlgError::NotSufficientlyComplete {
                term: term_str(sig, &n),
            })
        }
    }

    /// Evaluates a query application `q(params…, state)` to its normal form.
    ///
    /// # Errors
    /// Propagates normalisation errors.
    pub fn eval_query(&mut self, q: FuncId, params: &[Term], state: &Term) -> Result<Term> {
        let mut args = params.to_vec();
        args.push(state.clone());
        self.normalize(&Term::App(q, args))
    }
}
