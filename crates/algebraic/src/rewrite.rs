//! Conditional term rewriting — the operational reading of an algebraic
//! specification's equations.
//!
//! The paper (§4.1–4.2) views each conditional equation `P ⟹ t = t'` as a
//! conditional term-rewriting rule whose right-hand side is "simpler" than
//! the left. This module normalises ground terms by innermost rewriting:
//! arguments first, then rule application at the root, with conditions
//! evaluated recursively (quantifiers in antecedents enumerate the finite
//! parameter carriers — they never quantify over states).
//!
//! Boolean connectives and the per-sort equality checks are evaluated
//! built-in so that right-hand sides such as
//! `(offered(c',σ) ∧ takes(s,c,σ)) ∨ takes(s,c',σ)` reduce once their query
//! arguments do.
//!
//! # Interned representation
//!
//! The engine works over the hash-consed term kernel
//! ([`eclectic_kernel::TermStore`]): every rule, every intermediate reduct
//! and every normal form lives in one [`TermStore`] owned by the
//! [`Rewriter`], so structural equality is [`TermId`] equality, the normal-
//! form memo table is a flat `TermId → TermId` map, and substitution shares
//! every unchanged subtree. The public [`Term`]-based API (`normalize`,
//! `eval_bool`, `eval_query`) interns on entry and externs on exit; id-level
//! variants (`normalize_id`, `eval_query_id`, …) let hot callers such as
//! reachability exploration stay inside the store and never build trees.

use std::sync::Arc;

use eclectic_kernel::{Binding, Budget, FxHashMap, TermId, TermNode, TermStore};
use eclectic_logic::{Formula, FuncId, SortId, Subst, Term, VarId};

use crate::error::{AlgError, Result};
use crate::printer::term_str;
use crate::spec::AlgSpec;

/// Matches `pattern` against `subject` (one-way unification), extending
/// `binding`. Non-linear patterns are supported: repeated variables must
/// match syntactically equal subterms.
#[must_use]
pub fn match_term(pattern: &Term, subject: &Term, binding: &mut Subst) -> bool {
    match (pattern, subject) {
        (Term::Var(x), _) => match binding.get(*x) {
            Some(bound) => bound == subject,
            None => {
                binding.bind(*x, subject.clone());
                true
            }
        },
        (Term::App(f, fargs), Term::App(g, gargs)) => {
            if f != g || fargs.len() != gargs.len() {
                return false;
            }
            fargs
                .iter()
                .zip(gargs)
                .all(|(p, s)| match_term(p, s, binding))
        }
        (Term::App(..), Term::Var(_)) => false,
    }
}

/// Matches an interned `pattern` against an interned `subject`, extending
/// `binding`. Like [`match_term`] but over [`TermId`]s: the bound-variable
/// consistency check for non-linear patterns is a single id comparison.
#[must_use]
pub fn match_id(
    store: &TermStore,
    pattern: TermId,
    subject: TermId,
    binding: &mut Binding,
) -> bool {
    match store.node(pattern) {
        TermNode::Var(x) => match binding.get(*x) {
            Some(bound) => bound == subject,
            None => {
                binding.bind(*x, subject);
                true
            }
        },
        TermNode::App(f, pargs) => match store.node(subject) {
            TermNode::App(g, sargs) if f == g && pargs.len() == sargs.len() => pargs
                .iter()
                .zip(sargs.iter())
                .all(|(&p, &s)| match_id(store, p, s, binding)),
            _ => false,
        },
    }
}

/// Counters describing a rewriting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Rule applications performed.
    pub steps: usize,
    /// Normal forms served from the cache.
    pub cache_hits: usize,
    /// Normal forms computed because the memo did not have them.
    pub cache_misses: usize,
    /// Conditions evaluated.
    pub conditions: usize,
}

/// An equation condition compiled to interned leaves: connective structure
/// mirrors [`Formula`], but the equality atoms hold [`TermId`]s so condition
/// evaluation substitutes and normalises without rebuilding trees.
#[derive(Debug, Clone)]
enum Cond {
    True,
    False,
    Not(Box<Cond>),
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    Implies(Box<Cond>, Box<Cond>),
    Iff(Box<Cond>, Box<Cond>),
    Eq(TermId, TermId),
    Exists(VarId, Box<Cond>),
    Forall(VarId, Box<Cond>),
    /// Predicates/modalities — rejected by equation validation, but kept so
    /// compilation is total; evaluating one reports the same error the
    /// formula evaluator would.
    Unsupported,
}

fn compile_cond(store: &mut TermStore, f: &Formula) -> Cond {
    match f {
        Formula::True => Cond::True,
        Formula::False => Cond::False,
        Formula::Not(p) => Cond::Not(Box::new(compile_cond(store, p))),
        Formula::And(p, q) => Cond::And(
            Box::new(compile_cond(store, p)),
            Box::new(compile_cond(store, q)),
        ),
        Formula::Or(p, q) => Cond::Or(
            Box::new(compile_cond(store, p)),
            Box::new(compile_cond(store, q)),
        ),
        Formula::Implies(p, q) => Cond::Implies(
            Box::new(compile_cond(store, p)),
            Box::new(compile_cond(store, q)),
        ),
        Formula::Iff(p, q) => Cond::Iff(
            Box::new(compile_cond(store, p)),
            Box::new(compile_cond(store, q)),
        ),
        Formula::Eq(a, b) => Cond::Eq(a.intern(store), b.intern(store)),
        Formula::Exists(x, p) => Cond::Exists(*x, Box::new(compile_cond(store, p))),
        Formula::Forall(x, p) => Cond::Forall(*x, Box::new(compile_cond(store, p))),
        Formula::Pred(..) | Formula::Possibly(..) | Formula::Necessarily(..) => Cond::Unsupported,
    }
}

/// A conditional equation compiled onto the store. The condition sits
/// behind an `Arc` so the hot rewrite loop can detach it from `self` for
/// the (re-entrant) evaluation with a reference-count bump instead of a
/// deep clone per matched attempt.
#[derive(Debug, Clone)]
struct Rule {
    lhs: TermId,
    rhs: TermId,
    cond: Arc<Cond>,
}

/// A rewriting engine over one specification, with memoised normal forms.
///
/// The engine owns a [`TermStore`] holding every term it has seen; the memo
/// table maps interned input terms to interned normal forms, so a repeat
/// normalisation of any previously-seen subterm is one hash lookup.
#[derive(Debug)]
pub struct Rewriter<'a> {
    spec: &'a AlgSpec,
    store: TermStore,
    /// Normal-form memo: interned term → interned normal form.
    memo: FxHashMap<TermId, TermId>,
    /// Compiled rules, in equation order.
    rules: Vec<Rule>,
    /// Rule indices grouped by lhs root symbol, behind `Arc` so the hot
    /// loop detaches a candidate list without copying it.
    by_root: FxHashMap<FuncId, Arc<[usize]>>,
    /// Interned `True` / `False`.
    tru: TermId,
    fls: TermId,
    /// Finite carriers (interned parameter-name constants) per sort,
    /// populated on first quantifier over that sort.
    carriers: FxHashMap<SortId, Vec<TermId>>,
    /// Maximum rule applications per top-level `normalize` call.
    fuel_limit: usize,
    remaining: usize,
    stats: RewriteStats,
    /// Resource governor: polled every [`BUDGET_POLL_MASK`]+1 uncached
    /// normalisations with the store's node count. Unlimited by default.
    budget: Budget,
    /// Poll pacing counter for the budget check.
    poll_tick: u32,
    /// Pool of argument buffers reused across `norm_uncached` frames, so
    /// per-node argument normalisation stops allocating a fresh `Vec`.
    scratch: Vec<Vec<TermId>>,
}

/// Poll the budget every 64 uncached normalisations: often enough that a
/// diverging rewrite notices a deadline within microseconds, rare enough
/// that `Instant::now()` never shows up in a profile.
const BUDGET_POLL_MASK: u32 = 63;

impl<'a> Rewriter<'a> {
    /// Creates a rewriter over a fresh [`TermStore`] with the default fuel
    /// limit.
    #[must_use]
    pub fn new(spec: &'a AlgSpec) -> Self {
        Rewriter::with_fuel(spec, 1_000_000)
    }

    /// Creates a rewriter over a fresh [`TermStore`] with a custom fuel
    /// limit (rule applications per top-level call) — useful for detecting
    /// non-terminating equation sets.
    #[must_use]
    pub fn with_fuel(spec: &'a AlgSpec, fuel_limit: usize) -> Self {
        let mut store = TermStore::new();
        let sig = spec.signature();
        let tru = store.constant(sig.true_fn());
        let fls = store.constant(sig.false_fn());
        let mut rules = Vec::with_capacity(spec.equations().len());
        let mut groups: FxHashMap<FuncId, Vec<usize>> = FxHashMap::default();
        for (i, eq) in spec.equations().iter().enumerate() {
            let lhs = eq.lhs.intern(&mut store);
            let rhs = eq.rhs.intern(&mut store);
            let cond = Arc::new(compile_cond(&mut store, &eq.condition));
            rules.push(Rule { lhs, rhs, cond });
            if let Some(root) = eq.lhs_root() {
                groups.entry(root).or_default().push(i);
            }
        }
        let by_root = groups
            .into_iter()
            .map(|(root, idxs)| (root, Arc::from(idxs)))
            .collect();
        Rewriter {
            spec,
            store,
            memo: FxHashMap::default(),
            rules,
            by_root,
            tru,
            fls,
            carriers: FxHashMap::default(),
            fuel_limit,
            remaining: fuel_limit,
            stats: RewriteStats::default(),
            budget: Budget::unlimited(),
            poll_tick: 0,
            scratch: Vec::new(),
        }
    }

    /// Attaches a resource [`Budget`]: normalisation polls it periodically
    /// (with the backing store's node count) and aborts with
    /// [`AlgError::Budget`] when it trips. An aborted normalisation never
    /// publishes to the memo, so a later call with a fresh budget
    /// computes the true normal form.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The resource budget currently governing this rewriter.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The specification being evaluated.
    #[must_use]
    pub fn spec(&self) -> &'a AlgSpec {
        self.spec
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// Clears the memo cache (statistics and the term store are kept).
    pub fn clear_cache(&mut self) {
        self.memo.clear();
    }

    /// The term store backing this rewriter (terms stay valid for its whole
    /// lifetime; the store only grows).
    #[must_use]
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Mutable access to the backing store, for callers that build terms
    /// directly from ids (e.g. successor construction during reachability
    /// exploration). The store only grows, so existing ids stay valid.
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// Interns `f(args…)` directly from ids.
    pub fn app_id(&mut self, f: FuncId, args: &[TermId]) -> TermId {
        self.store.app(f, args)
    }

    /// Interned `True`.
    #[must_use]
    pub fn true_id(&self) -> TermId {
        self.tru
    }

    /// Interned `False`.
    #[must_use]
    pub fn false_id(&self) -> TermId {
        self.fls
    }

    /// Interns a term into this rewriter's store.
    pub fn intern(&mut self, t: &Term) -> TermId {
        t.intern(&mut self.store)
    }

    /// Reconstructs the owned tree for an interned term.
    #[must_use]
    pub fn extern_term(&self, id: TermId) -> Term {
        Term::from_interned(&self.store, id)
    }

    /// Normalises a term. Ground query terms of a sufficiently complete
    /// specification reduce to parameter names; open terms reduce as far as
    /// the rules allow.
    ///
    /// # Errors
    /// Returns [`AlgError::RewriteLimit`] when fuel runs out, plus condition
    /// evaluation errors on ground terms.
    pub fn normalize(&mut self, t: &Term) -> Result<Term> {
        let id = self.intern(t);
        let n = self.normalize_id(id)?;
        Ok(self.extern_term(n))
    }

    /// Normalises an interned term, staying inside the store.
    ///
    /// # Errors
    /// As [`Rewriter::normalize`].
    pub fn normalize_id(&mut self, t: TermId) -> Result<TermId> {
        self.remaining = self.fuel_limit;
        self.norm(t).map_err(|e| match e {
            // Fuel runs out on an inner reduct; name the term the caller
            // actually asked about alongside the exhaustion site.
            AlgError::RewriteLimit { at, .. } => AlgError::RewriteLimit {
                subject: term_str(self.spec.signature(), &self.extern_term(t)),
                at,
            },
            other => other,
        })
    }

    fn norm(&mut self, t: TermId) -> Result<TermId> {
        if let Some(&hit) = self.memo.get(&t) {
            self.stats.cache_hits += 1;
            return Ok(hit);
        }
        self.stats.cache_misses += 1;
        let out = self.norm_uncached(t)?;
        self.memo.insert(t, out);
        Ok(out)
    }

    fn norm_uncached(&mut self, t: TermId) -> Result<TermId> {
        if self.poll_tick & BUDGET_POLL_MASK == 0 {
            if let Some(reason) = self.budget.check(self.store.len()) {
                return Err(AlgError::Budget { reason });
            }
        }
        self.poll_tick = self.poll_tick.wrapping_add(1);
        let f = match self.store.node(t) {
            TermNode::Var(_) => return Ok(t),
            TermNode::App(f, _) => *f,
        };
        // Arguments are normalised in place in a pooled buffer (the `norm`
        // recursion below pops its own); error unwinds drop the buffer,
        // which only costs the pool a cold-path refill.
        let mut nargs = self.scratch.pop().unwrap_or_default();
        if let TermNode::App(_, args) = self.store.node(t) {
            nargs.extend_from_slice(args);
        }
        for a in nargs.iter_mut() {
            *a = self.norm(*a)?;
        }
        let t = self.store.app(f, &nargs);

        let builtin = self.try_builtin(t, f, &nargs);
        nargs.clear();
        self.scratch.push(nargs);
        if let Some(b) = builtin? {
            return Ok(b);
        }

        let candidates = match self.by_root.get(&f) {
            Some(v) => Arc::clone(v),
            None => return Ok(t),
        };
        for &i in candidates.iter() {
            let mut binding = Binding::new();
            if !match_id(&self.store, self.rules[i].lhs, t, &mut binding) {
                continue;
            }
            let cond = Arc::clone(&self.rules[i].cond);
            match self.eval_condition(&cond, &binding) {
                Ok(true) => {
                    if self.remaining == 0 {
                        return Err(AlgError::RewriteLimit {
                            subject: String::new(),
                            at: term_str(self.spec.signature(), &self.extern_term(t)),
                        });
                    }
                    self.remaining -= 1;
                    self.stats.steps += 1;
                    let rhs = self.rules[i].rhs;
                    let reduct = self.store.subst(rhs, &binding);
                    return self.norm(reduct);
                }
                Ok(false) => continue,
                Err(AlgError::ConditionUndecided { .. }) if !self.store.is_ground(t) => {
                    // Open subject: skip the rule rather than fail.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(t)
    }

    /// Built-in evaluation of Boolean connectives and equality checks over
    /// already-normalised arguments (id comparisons throughout). Returns
    /// `None` when no simplification applies.
    fn try_builtin(&mut self, _t: TermId, f: FuncId, args: &[TermId]) -> Result<Option<TermId>> {
        let sig = self.spec.signature();
        let (tru, fls) = (self.tru, self.fls);

        let out = if f == sig.not_fn() {
            let a = args[0];
            if a == tru {
                Some(fls)
            } else if a == fls {
                Some(tru)
            } else {
                None
            }
        } else if f == sig.and_fn() {
            let (a, b) = (args[0], args[1]);
            if a == fls || b == fls {
                Some(fls)
            } else if a == tru {
                Some(b)
            } else if b == tru || a == b {
                Some(a)
            } else {
                None
            }
        } else if f == sig.or_fn() {
            let (a, b) = (args[0], args[1]);
            if a == tru || b == tru {
                Some(tru)
            } else if a == fls {
                Some(b)
            } else if b == fls || a == b {
                Some(a)
            } else {
                None
            }
        } else if f == sig.imp_fn() {
            let (a, b) = (args[0], args[1]);
            if a == fls || b == tru {
                Some(tru)
            } else if a == tru {
                Some(b)
            } else if b == fls {
                // imp(x, False) = not(x); recurse for further simplification.
                let not_fn = sig.not_fn();
                let n = self.store.app(not_fn, &[a]);
                return Ok(Some(self.norm(n)?));
            } else {
                None
            }
        } else if f == sig.iff_fn() {
            let (a, b) = (args[0], args[1]);
            if a == tru {
                Some(b)
            } else if b == tru {
                Some(a)
            } else if a == fls {
                let not_fn = sig.not_fn();
                let n = self.store.app(not_fn, &[b]);
                return Ok(Some(self.norm(n)?));
            } else if b == fls {
                let not_fn = sig.not_fn();
                let n = self.store.app(not_fn, &[a]);
                return Ok(Some(self.norm(n)?));
            } else if a == b {
                Some(tru)
            } else {
                None
            }
        } else if sig.param_sorts().any(|s| sig.eq_fn(s) == Some(f)) {
            let (a, b) = (args[0], args[1]);
            if a == b {
                Some(tru)
            } else if self.is_param_name(a) && self.is_param_name(b) {
                Some(fls)
            } else {
                None
            }
        } else {
            None
        };
        Ok(out)
    }

    /// Whether an interned term is a parameter name (a constant of a
    /// non-state sort).
    pub(crate) fn is_param_name(&self, t: TermId) -> bool {
        match self.store.node(t) {
            TermNode::App(f, args) if args.is_empty() => {
                let sig = self.spec.signature();
                sig.logic().func(*f).range != sig.state_sort()
            }
            _ => false,
        }
    }

    /// Evaluates a condition under a match binding.
    fn eval_condition(&mut self, cond: &Cond, binding: &Binding) -> Result<bool> {
        self.stats.conditions += 1;
        self.eval_cond(cond, binding)
    }

    fn eval_cond(&mut self, c: &Cond, binding: &Binding) -> Result<bool> {
        match c {
            Cond::True => Ok(true),
            Cond::False => Ok(false),
            Cond::Not(p) => Ok(!self.eval_cond(p, binding)?),
            Cond::And(p, q) => Ok(self.eval_cond(p, binding)? && self.eval_cond(q, binding)?),
            Cond::Or(p, q) => Ok(self.eval_cond(p, binding)? || self.eval_cond(q, binding)?),
            Cond::Implies(p, q) => Ok(!self.eval_cond(p, binding)? || self.eval_cond(q, binding)?),
            Cond::Iff(p, q) => Ok(self.eval_cond(p, binding)? == self.eval_cond(q, binding)?),
            Cond::Eq(a, b) => {
                let sa = self.store.subst(*a, binding);
                let sb = self.store.subst(*b, binding);
                let na = self.norm(sa)?;
                let nb = self.norm(sb)?;
                if na == nb {
                    return Ok(true);
                }
                if self.is_param_name(na) && self.is_param_name(nb) {
                    return Ok(false);
                }
                let sig = self.spec.signature();
                let open = if self.is_param_name(na) { nb } else { na };
                Err(AlgError::ConditionUndecided {
                    term: term_str(sig, &self.extern_term(open)),
                })
            }
            Cond::Exists(x, p) => {
                for k in self.carrier(*x)? {
                    let mut b2 = binding.clone();
                    b2.bind(*x, k);
                    if self.eval_cond(p, &b2)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Cond::Forall(x, p) => {
                for k in self.carrier(*x)? {
                    let mut b2 = binding.clone();
                    b2.bind(*x, k);
                    if !self.eval_cond(p, &b2)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Cond::Unsupported => Err(AlgError::BadCondition(
                "predicates/modalities cannot appear in equation conditions".into(),
            )),
        }
    }

    /// The parameter names of a variable's sort, as interned constants
    /// (cached per sort after the first enumeration).
    fn carrier(&mut self, x: VarId) -> Result<Vec<TermId>> {
        let sig = self.spec.signature();
        let sort = sig.logic().var(x).sort;
        if sort == sig.state_sort() {
            return Err(AlgError::BadCondition(
                "quantification over states in a condition".into(),
            ));
        }
        if let Some(c) = self.carriers.get(&sort) {
            return Ok(c.clone());
        }
        let names = sig.param_names(sort);
        let ids: Vec<TermId> = names.into_iter().map(|f| self.store.constant(f)).collect();
        self.carriers.insert(sort, ids.clone());
        Ok(ids)
    }

    /// Evaluates a ground Boolean term to `true`/`false`.
    ///
    /// # Errors
    /// Returns [`AlgError::NotSufficientlyComplete`] if the term does not
    /// reduce to `True` or `False`.
    pub fn eval_bool(&mut self, t: &Term) -> Result<bool> {
        let id = self.intern(t);
        self.eval_bool_id(id)
    }

    /// Evaluates an interned ground Boolean term to `true`/`false`.
    ///
    /// # Errors
    /// As [`Rewriter::eval_bool`].
    pub fn eval_bool_id(&mut self, t: TermId) -> Result<bool> {
        let n = self.normalize_id(t)?;
        if n == self.tru {
            Ok(true)
        } else if n == self.fls {
            Ok(false)
        } else {
            let sig = self.spec.signature();
            Err(AlgError::NotSufficientlyComplete {
                term: term_str(sig, &self.extern_term(n)),
            })
        }
    }

    /// Evaluates a query application `q(params…, state)` to its normal form.
    ///
    /// # Errors
    /// Propagates normalisation errors.
    pub fn eval_query(&mut self, q: FuncId, params: &[Term], state: &Term) -> Result<Term> {
        let mut args: Vec<TermId> = params.iter().map(|p| p.intern(&mut self.store)).collect();
        args.push(state.intern(&mut self.store));
        let t = self.store.app(q, &args);
        let n = self.normalize_id(t)?;
        Ok(self.extern_term(n))
    }

    /// Evaluates a query application over interned arguments, returning the
    /// interned normal form.
    ///
    /// # Errors
    /// Propagates normalisation errors.
    pub fn eval_query_id(&mut self, q: FuncId, params: &[TermId], state: TermId) -> Result<TermId> {
        let mut args = params.to_vec();
        args.push(state);
        let t = self.store.app(q, &args);
        self.normalize_id(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_equations;
    use crate::signature::AlgSignature;
    use crate::spec::AlgSpec;

    /// A miniature courses spec: offered only, with offer/cancel.
    fn mini_spec() -> AlgSpec {
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
    fn matching_is_nonlinear() {
        let spec = mini_spec();
        let pat = term(&spec, "offered(c, offer(c, U))");
        let sub_ok = term(&spec, "offered(db, offer(db, initiate))");
        let sub_bad = term(&spec, "offered(db, offer(ai, initiate))");
        let mut b = Subst::new();
        assert!(match_term(&pat, &sub_ok, &mut b));
        let mut b = Subst::new();
        assert!(!match_term(&pat, &sub_bad, &mut b));
    }

    #[test]
    fn id_matching_agrees_with_tree_matching() {
        let spec = mini_spec();
        let mut store = TermStore::new();
        let pat = term(&spec, "offered(c, offer(c, U))").intern(&mut store);
        let sub_ok = term(&spec, "offered(db, offer(db, initiate))").intern(&mut store);
        let sub_bad = term(&spec, "offered(db, offer(ai, initiate))").intern(&mut store);
        let mut b = Binding::new();
        assert!(match_id(&store, pat, sub_ok, &mut b));
        let mut b = Binding::new();
        assert!(!match_id(&store, pat, sub_bad, &mut b));
    }

    #[test]
    fn evaluates_queries_on_traces() {
        let spec = mini_spec();
        let mut rw = Rewriter::new(&spec);
        // offered(db, cancel(db, offer(ai, offer(db, initiate)))) = False
        let t = term(
            &spec,
            "offered(db, cancel(db, offer(ai, offer(db, initiate))))",
        );
        assert!(!rw.eval_bool(&t).unwrap());
        // offered(ai, same trace) = True (cancel(db) does not affect ai).
        let t = term(
            &spec,
            "offered(ai, cancel(db, offer(ai, offer(db, initiate))))",
        );
        assert!(rw.eval_bool(&t).unwrap());
        // offered(db, initiate) = False
        let t = term(&spec, "offered(db, initiate)");
        assert!(!rw.eval_bool(&t).unwrap());
        assert!(rw.stats().steps > 0);
    }

    #[test]
    fn memo_serves_repeat_normalisations() {
        let spec = mini_spec();
        let mut rw = Rewriter::new(&spec);
        let t = term(
            &spec,
            "offered(db, cancel(db, offer(ai, offer(db, initiate))))",
        );
        let id = rw.intern(&t);
        let n1 = rw.normalize_id(id).unwrap();
        let hits_before = rw.stats().cache_hits;
        let n2 = rw.normalize_id(id).unwrap();
        assert_eq!(n1, n2);
        assert!(rw.stats().cache_hits > hits_before);
    }

    #[test]
    fn open_terms_reduce_partially() {
        let spec = mini_spec();
        let mut rw = Rewriter::new(&spec);
        // offered(db, offer(db, U)) reduces to True even with U open.
        let t = term(&spec, "offered(db, offer(db, U))");
        let n = rw.normalize(&t).unwrap();
        assert_eq!(n, spec.signature().true_term());
        // offered(db, offer(ai, U)) reduces to offered(db, U) via eq4.
        let t = term(&spec, "offered(db, offer(ai, U))");
        let n = rw.normalize(&t).unwrap();
        assert_eq!(n, term(&spec, "offered(db, U)"));
    }

    #[test]
    fn boolean_builtins() {
        let spec = mini_spec();
        let mut rw = Rewriter::new(&spec);
        let sig = spec.signature();
        let t = Term::App(
            sig.and_fn(),
            vec![
                sig.true_term(),
                Term::App(sig.not_fn(), vec![sig.false_term()]),
            ],
        );
        assert!(rw.eval_bool(&t).unwrap());
        let t = Term::App(sig.imp_fn(), vec![sig.true_term(), sig.false_term()]);
        assert!(!rw.eval_bool(&t).unwrap());
        let t = Term::App(sig.iff_fn(), vec![sig.false_term(), sig.false_term()]);
        assert!(rw.eval_bool(&t).unwrap());
    }

    #[test]
    fn eq_fn_builtin() {
        let spec = mini_spec();
        let mut rw = Rewriter::new(&spec);
        let sig = spec.signature();
        let course = sig.logic().sort_id("course").unwrap();
        let eq = sig.eq_fn(course).unwrap();
        let db = Term::constant(sig.logic().func_id("db").unwrap());
        let ai = Term::constant(sig.logic().func_id("ai").unwrap());
        assert!(rw
            .eval_bool(&Term::App(eq, vec![db.clone(), db.clone()]))
            .unwrap());
        assert!(!rw.eval_bool(&Term::App(eq, vec![db, ai])).unwrap());
    }

    #[test]
    fn nonterminating_spec_hits_fuel() {
        // offered(c, offer(c, U)) = offered(c, offer(c, U)) — a loop.
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        let lhs = eclectic_logic::parse_term(a.logic_mut(), "offered(c, offer(c, U))").unwrap();
        let spin =
            crate::equation::ConditionalEquation::unconditional("spin", lhs.clone(), lhs.clone());
        let spec = AlgSpec::new(a, vec![spin]).unwrap();
        let mut rw = Rewriter::with_fuel(&spec, 100);
        let t = term(&spec, "offered(db, offer(db, initiate))");
        assert!(matches!(
            rw.normalize(&t),
            Err(AlgError::RewriteLimit { .. })
        ));
    }

    #[test]
    fn rewrite_limit_names_subject_and_exhaustion_site() {
        let spec = mini_spec();
        // Four rule applications to normalise; two of fuel. Exhaustion
        // happens on an inner reduct the caller never wrote.
        let subject_src = "offered(db, offer(ai, offer(ai, offer(ai, offer(db, initiate)))))";
        let t = term(&spec, subject_src);
        let mut rw = Rewriter::with_fuel(&spec, 2);
        match rw.normalize(&t) {
            Err(AlgError::RewriteLimit { subject, at }) => {
                assert_eq!(subject, subject_src);
                // eq4 stripped two `offer(ai, _)` layers before running dry.
                assert_eq!(at, "offered(db, offer(ai, offer(db, initiate)))");
            }
            other => panic!("expected RewriteLimit, got {other:?}"),
        }
        // The error display names both terms.
        let err = rw.normalize(&t).unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("offered(db, offer(ai, offer(db, initiate)))"), "{shown}");
        assert!(shown.contains(subject_src), "{shown}");
    }

    #[test]
    fn fuel_exhaustion_does_not_poison_memo() {
        let spec = mini_spec();
        let subject = term(
            &spec,
            "offered(db, offer(ai, offer(ai, offer(ai, offer(db, initiate)))))",
        );
        let mut rw = Rewriter::with_fuel(&spec, 2);
        assert!(matches!(
            rw.normalize(&subject),
            Err(AlgError::RewriteLimit { .. })
        ));
        // Re-normalising through the SAME rewriter (same memo, same store)
        // must run dry again, not serve the truncated reduct left over from
        // the exhausted attempt.
        assert!(matches!(
            rw.normalize(&subject),
            Err(AlgError::RewriteLimit { .. })
        ));
        // The reduct the attempt stopped at is within the fuel on its own,
        // and reaches its true normal form, twice (the repeat is served
        // from the memo).
        let reduct = term(&spec, "offered(db, offer(ai, offer(db, initiate)))");
        for _ in 0..2 {
            assert_eq!(rw.normalize(&reduct).unwrap(), spec.signature().true_term());
        }
    }

    #[test]
    fn budget_axes_trip_rewriting_without_poisoning() {
        use eclectic_kernel::{Budget, BudgetExceeded};
        let spec = mini_spec();
        let t = term(
            &spec,
            "offered(db, cancel(db, offer(ai, offer(db, initiate))))",
        );

        // A zero node cap trips before any work.
        let mut rw = Rewriter::new(&spec);
        rw.set_budget(Budget::unlimited().with_max_nodes(0));
        assert!(matches!(
            rw.normalize(&t),
            Err(AlgError::Budget { reason: BudgetExceeded::Nodes })
        ));

        // A zero deadline trips.
        rw.set_budget(Budget::unlimited().with_deadline_ms(0));
        assert!(matches!(
            rw.normalize(&t),
            Err(AlgError::Budget { reason: BudgetExceeded::Deadline })
        ));

        // Lifting the budget on the same rewriter yields the true normal
        // form: aborted attempts left nothing stale in the memo.
        rw.set_budget(Budget::unlimited());
        assert_eq!(rw.normalize(&t).unwrap(), spec.signature().false_term());
    }

    #[test]
    fn quantified_condition_enumerates_carrier() {
        // A spec where cancel's result depends on ∃-condition, paper style.
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana", "bob"]).unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_query("takes", &[student, course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_update("enroll", &[student, course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a.add_param_var("s", student).unwrap();
        a.add_param_var("s'", student).unwrap();
        let eqs = parse_equations(
            &mut a,
            &[
                ("q1", "offered(c, initiate) = False"),
                ("q2", "takes(s, c, initiate) = False"),
                ("q3", "offered(c, offer(c, U)) = True"),
                ("q5", "takes(s, c, offer(c', U)) = takes(s, c, U)"),
                (
                    "q6a",
                    "exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = True",
                ),
                (
                    "q6b",
                    "~exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = False",
                ),
                ("q8", "takes(s, c, cancel(c', U)) = takes(s, c, U)"),
                ("q9", "offered(c, enroll(s, c', U)) = offered(c, U)"),
                ("q10", "takes(s, c, enroll(s, c, U)) = offered(c, U)"),
                (
                    "q11",
                    "~(s = s' & c = c') ==> takes(s, c, enroll(s', c', U)) = takes(s, c, U)",
                ),
            ],
        )
        .unwrap();
        let spec = AlgSpec::new(a, eqs).unwrap();
        let mut rw = Rewriter::new(&spec);
        // cancel db after ana enrolled: someone takes db ⇒ offered stays True.
        let t = term(
            &spec,
            "offered(db, cancel(db, enroll(ana, db, offer(db, initiate))))",
        );
        assert!(rw.eval_bool(&t).unwrap());
        // cancel db with nobody enrolled ⇒ False.
        let t = term(&spec, "offered(db, cancel(db, offer(db, initiate)))");
        assert!(!rw.eval_bool(&t).unwrap());
    }
}
