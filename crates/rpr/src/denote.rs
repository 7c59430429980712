//! The denotational semantics of RPR (paper §5.1.2).
//!
//! For a fixed finite universe `U`, the meaning function `m` assigns to each
//! statement a binary relation on `U`:
//!
//! 1. `m(x := t)` — pairs differing only on `x`, whose new value is `A(t)`;
//! 2. `m(R := {x̄ / P})` — pairs differing only on `R`, set to `A({x̄/P})`;
//! 3. `m(P?)` — the identity on states satisfying `P`;
//! 4. `m(p ∪ q) = m(p) ∪ m(q)`;
//! 5. `m(p ; q) = m(p) ∘ m(q)`;
//! 6. `m(p*) = (m(p))*`;
//!
//! and `k` assigns to each procedure declaration a function from parameter
//! values to binary relations (rule 7); parameter binding is carried by an
//! environment [`Valuation`]. Derived constructs are interpreted through
//! their definitions.

use std::collections::BTreeSet;

use eclectic_kernel::Budget;
use eclectic_logic::kernel::FxHashMap;
use eclectic_logic::{eval, Elem, PredId, Term, Valuation};

use crate::ast::Stmt;
use crate::binrel::BinRel;
use crate::error::{Result, RprError};
use crate::schema::Schema;
use crate::universe::{CodeView, FiniteUniverse};

/// Hit/computed counters for a [`DenoteCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Denotations computed from scratch (one per distinct `(stmt, env)`).
    pub computed: usize,
    /// Lookups served from the cache.
    pub hits: usize,
}

/// A memo of program denotations over one [`FiniteUniverse`], keyed by the
/// statement's structural hash plus the parameter environment *restricted
/// to the statement's free variables* (the meaning of a statement depends
/// on nothing else once the universe is fixed) — so two procedure
/// applications differing only in parameters a sub-statement never mentions
/// share that sub-statement's denotation. A cache must only ever be used
/// with the universe it was first filled against; callers hold one cache
/// per universe.
#[derive(Debug, Clone, Default)]
pub struct DenoteCache {
    map: FxHashMap<Valuation, FxHashMap<Stmt, BinRel>>,
    computed: usize,
    hits: usize,
}

impl DenoteCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        DenoteCache::default()
    }

    /// The hit/computed counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            computed: self.computed,
            hits: self.hits,
        }
    }

    /// Number of cached denotations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.values().map(FxHashMap::len).sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the denotation of `stmt` under `env` is cached.
    #[must_use]
    pub fn contains(&self, stmt: &Stmt, env: &Valuation) -> bool {
        let key = relevant_env(stmt, env);
        self.map.get(&key).is_some_and(|m| m.contains_key(stmt))
    }
}

/// As [`meaning`], memoised: every sub-statement's denotation is looked up
/// in (and recorded into) `cache`, so a program — or a batch of programs —
/// that repeats a sub-statement under the same environment computes it once.
///
/// # Errors
/// See [`meaning`].
pub fn meaning_cached(
    u: &FiniteUniverse,
    stmt: &Stmt,
    env: &Valuation,
    cache: &mut DenoteCache,
) -> Result<BinRel> {
    meaning_cached_governed(u, stmt, env, cache, &Budget::unlimited())
}

/// As [`meaning_cached`], with the long-running relational operators
/// (`compose` on `Seq`/guards, `star` on loops) polling `budget` at
/// row-stride boundaries.
///
/// Callers that also enforce a node cap strip it first
/// ([`Budget::without_node_cap`]) — here the polls govern only the timing
/// and relation-memory axes (deadline, bytes); unit counting
/// belongs to the caller's unit boundaries.
///
/// # Errors
/// As [`meaning`], plus [`RprError::Budget`] when the budget trips; the
/// cache keeps every completed sub-denotation (never a partial one).
pub fn meaning_cached_governed(
    u: &FiniteUniverse,
    stmt: &Stmt,
    env: &Valuation,
    cache: &mut DenoteCache,
    budget: &Budget,
) -> Result<BinRel> {
    let key = relevant_env(stmt, env);
    if let Some(r) = cache.map.get(&key).and_then(|m| m.get(stmt)) {
        cache.hits += 1;
        return Ok(r.clone());
    }
    let governed = |r: std::result::Result<BinRel, eclectic_kernel::BudgetExceeded>| {
        r.map_err(|reason| RprError::Budget { reason })
    };
    let out = match stmt {
        Stmt::Skip
        | Stmt::Assign(..)
        | Stmt::RelAssign(..)
        | Stmt::Test(_)
        | Stmt::Insert(..)
        | Stmt::Delete(..) => meaning(u, stmt, env)?,
        Stmt::Union(p, q) => meaning_cached_governed(u, p, env, cache, budget)?
            .union(&meaning_cached_governed(u, q, env, cache, budget)?),
        Stmt::Seq(p, q) => {
            let mp = meaning_cached_governed(u, p, env, cache, budget)?;
            let mq = meaning_cached_governed(u, q, env, cache, budget)?;
            governed(mp.compose_governed(&mq, budget))?
        }
        Stmt::Star(p) => {
            let mp = meaning_cached_governed(u, p, env, cache, budget)?;
            governed(mp.star_governed(u.len(), budget))?
        }
        Stmt::IfThen(c, p) => {
            let test = meaning_cached_governed(u, &Stmt::Test(c.clone()), env, cache, budget)?;
            let ntest = cached_neg_test(u, c, &test, env, cache);
            let mp = meaning_cached_governed(u, p, env, cache, budget)?;
            governed(test.compose_governed(&mp, budget))?.union(&ntest)
        }
        Stmt::IfThenElse(c, p, q) => {
            let test = meaning_cached_governed(u, &Stmt::Test(c.clone()), env, cache, budget)?;
            let ntest = cached_neg_test(u, c, &test, env, cache);
            let mp = meaning_cached_governed(u, p, env, cache, budget)?;
            let mq = meaning_cached_governed(u, q, env, cache, budget)?;
            governed(test.compose_governed(&mp, budget))?
                .union(&governed(ntest.compose_governed(&mq, budget))?)
        }
        Stmt::While(c, p) => {
            let test = meaning_cached_governed(u, &Stmt::Test(c.clone()), env, cache, budget)?;
            let ntest = cached_neg_test(u, c, &test, env, cache);
            let mp = meaning_cached_governed(u, p, env, cache, budget)?;
            let body = governed(test.compose_governed(&mp, budget))?;
            governed(body.star_governed(u.len(), budget))?
                .compose(&ntest)
        }
    };
    cache.computed += 1;
    cache
        .map
        .entry(key)
        .or_default()
        .insert(stmt.clone(), out.clone());
    Ok(out)
}

/// The denotation of the *negated* guard `(¬c)?`, derived as the diagonal
/// complement of the already-computed `m(c?)` — `m(c?)` and `m((¬c)?)`
/// partition the identity, so the negated test never re-evaluates `c`
/// against every state. Cached under the `Stmt::Test(¬c)` key so direct
/// denotations of the negated test hit the same entry.
fn cached_neg_test(
    u: &FiniteUniverse,
    c: &eclectic_logic::Formula,
    test: &BinRel,
    env: &Valuation,
    cache: &mut DenoteCache,
) -> BinRel {
    let nstmt = Stmt::Test(c.clone().not());
    let key = relevant_env(&nstmt, env);
    if let Some(r) = cache.map.get(&key).and_then(|m| m.get(&nstmt)) {
        cache.hits += 1;
        return r.clone();
    }
    let ntest = test.diag_complement(u.len());
    cache.computed += 1;
    cache.map.entry(key).or_default().insert(nstmt, ntest.clone());
    ntest
}

/// The environment restricted to the variables `stmt`'s meaning can read —
/// the cache key, so applications differing only in parameters the
/// statement never mentions share one denotation. Sound because a
/// statement's denotation depends only on its free variables' values (and
/// the fixed universe).
fn relevant_env(stmt: &Stmt, env: &Valuation) -> Valuation {
    if env.is_empty() {
        return Valuation::new();
    }
    let mut out = Valuation::new();
    for v in stmt.free_vars() {
        if let Some(e) = env.get(v) {
            out.set(v, e);
        }
    }
    out
}

/// Computes `m(stmt)` over the universe, with parameters bound by `env`.
///
/// Atomic statements never build a state: each reads the source state
/// through its code's view and writes the target's code (see
/// [`FiniteUniverse`]).
///
/// # Errors
/// Propagates evaluation errors; returns [`RprError::BadStatement`] if a
/// result state escapes the universe (a non-program symbol was modified).
pub fn meaning(u: &FiniteUniverse, stmt: &Stmt, env: &Valuation) -> Result<BinRel> {
    let n = u.len();
    // Terms mention no predicate.
    let no_reads = BTreeSet::new();
    match stmt {
        Stmt::Skip => Ok(BinRel::identity(n)),
        Stmt::Assign(x, t) => function(
            u,
            &no_reads,
            |view| Ok(eval::eval_term(view, env, t)?),
            |i, &v| u.assign(i, *x, v),
        ),
        Stmt::RelAssign(r, f) => function(
            u,
            &f.wff.predicates(),
            |view| Ok(eval::satisfying_assignments_with(view, env, &f.wff, &f.vars)?),
            |i, rows| u.set_relation(i, *r, rows),
        ),
        Stmt::Test(p) => {
            let mut out = BinRel::with_dim(n);
            u.for_each_class(
                &p.predicates(),
                |view| Ok(eval::satisfies(view, env, p)?),
                |i, &holds| {
                    if holds {
                        out.insert(i, i);
                    }
                    Ok(())
                },
            )?;
            Ok(out)
        }
        Stmt::Union(p, q) => Ok(meaning(u, p, env)?.union(&meaning(u, q, env)?)),
        Stmt::Seq(p, q) => Ok(meaning(u, p, env)?.compose(&meaning(u, q, env)?)),
        Stmt::Star(p) => Ok(meaning(u, p, env)?.star(n)),
        Stmt::IfThen(c, p) => {
            // (c?; p) ∪ ¬c? — the negated guard is the diagonal complement
            // of the positive one, never a second denotation pass.
            let test = meaning(u, &Stmt::Test(c.clone()), env)?;
            let ntest = test.diag_complement(n);
            Ok(test.compose(&meaning(u, p, env)?).union(&ntest))
        }
        Stmt::IfThenElse(c, p, q) => {
            let test = meaning(u, &Stmt::Test(c.clone()), env)?;
            let ntest = test.diag_complement(n);
            Ok(test
                .compose(&meaning(u, p, env)?)
                .union(&ntest.compose(&meaning(u, q, env)?)))
        }
        Stmt::While(c, p) => {
            // (c?; p)* ; ¬c?
            let test = meaning(u, &Stmt::Test(c.clone()), env)?;
            let ntest = test.diag_complement(n);
            Ok(test.compose(&meaning(u, p, env)?).star(n).compose(&ntest))
        }
        Stmt::Insert(r, args) => function(
            u,
            &no_reads,
            |view| eval_tuple(view, env, args),
            |i, tuple| u.insert(i, *r, tuple),
        ),
        Stmt::Delete(r, args) => function(
            u,
            &no_reads,
            |view| eval_tuple(view, env, args),
            |i, tuple| u.delete(i, *r, tuple),
        ),
    }
}

/// The relation `{(i, next(i, value)) | i < n}` of a total function on
/// codes, where `value` is `eval` on the view of code `i`, a formula or
/// term over the predicates `reads` (see [`FiniteUniverse::for_each_class`]).
fn function<T>(
    u: &FiniteUniverse,
    reads: &BTreeSet<PredId>,
    eval: impl FnMut(&CodeView<'_>) -> Result<T>,
    next: impl Fn(usize, &T) -> Result<usize>,
) -> Result<BinRel> {
    let mut out = BinRel::with_dim(u.len());
    u.for_each_class(reads, eval, |i, value| {
        out.insert(i, next(i, value)?);
        Ok(())
    })?;
    Ok(out)
}

fn eval_tuple(view: &CodeView<'_>, env: &Valuation, args: &[Term]) -> Result<Vec<Elem>> {
    args.iter()
        .map(|t| eval::eval_term(view, env, t).map_err(RprError::Logic))
        .collect()
}

/// Computes `k(d)(args)`: the binary relation of a procedure applied to
/// concrete parameter values (rule 7).
///
/// # Errors
/// Returns arity errors and propagates [`meaning`] errors.
pub fn proc_meaning(
    u: &FiniteUniverse,
    schema: &Schema,
    proc_name: &str,
    args: &[Elem],
) -> Result<BinRel> {
    let proc = schema.proc_or_err(proc_name)?;
    if proc.params.len() != args.len() {
        return Err(RprError::ArityMismatch {
            proc: proc_name.to_string(),
            expected: proc.params.len(),
            found: args.len(),
        });
    }
    let mut env = Valuation::new();
    for (&param, &value) in proc.params.iter().zip(args) {
        env.set(param, value);
    }
    meaning(u, &proc.body, &env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{RelTerm, Stmt};
    use crate::exec::run;
    use crate::schema::ProcDecl;
    use crate::state::DbState;
    use eclectic_logic::{Domains, Formula, Signature, Term};
    use std::sync::Arc;

    /// One relation OFFERED over 2 courses, one scalar x: 8 states.
    fn setup() -> (FiniteUniverse, Schema) {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
        let x = sig.add_constant("x", course).unwrap();
        let cv = sig.add_var("c", course).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        let sig = Arc::new(sig);
        let mut template = DbState::new(sig.clone(), Arc::new(dom));
        template.set_scalar(x, Elem(0)).unwrap();
        let u = FiniteUniverse::enumerate(&template, &[offered], &[x], 100).unwrap();

        let p_offer = ProcDecl {
            name: "offer".into(),
            params: vec![cv],
            body: Stmt::Insert(offered, vec![Term::Var(cv)]),
        };
        let p_clear = ProcDecl {
            name: "clear".into(),
            params: vec![],
            body: Stmt::RelAssign(
                offered,
                RelTerm {
                    vars: vec![cv],
                    wff: Formula::False,
                },
            ),
        };
        let schema = Schema::new(sig, vec![offered], vec![p_offer, p_clear]).unwrap();
        (u, schema)
    }

    fn env(u: &FiniteUniverse, value: Elem) -> Valuation {
        let c = u.signature().var_id("c").unwrap();
        let mut v = Valuation::new();
        v.set(c, value);
        v
    }

    #[test]
    fn meanings_follow_the_rules() {
        let (u, schema) = setup();
        let n = u.len();
        let offered = schema.signature().pred_id("OFFERED").unwrap();
        let cv = schema.signature().var_id("c").unwrap();
        let e = env(&u, Elem(0));

        // Tests are sub-identities.
        let some = Formula::exists(cv, Formula::Pred(offered, vec![Term::Var(cv)]));
        let m_test = meaning(&u, &Stmt::Test(some.clone()), &e).unwrap();
        assert!(m_test.iter().all(|(a, b)| a == b));
        // Exactly the states with a non-empty OFFERED: 3 of 4 relation
        // values × 2 scalar values = 6.
        assert_eq!(m_test.len(), 6);

        // Assignments are total functions.
        let m_ins = meaning(&u, &Stmt::Insert(offered, vec![Term::Var(cv)]), &e).unwrap();
        assert!(m_ins.is_functional());
        assert!(m_ins.is_total(n));

        // Union laws.
        let skip = meaning(&u, &Stmt::Skip, &e).unwrap();
        assert_eq!(skip, BinRel::identity(n));
        let m_union = meaning(
            &u,
            &Stmt::Insert(offered, vec![Term::Var(cv)]).union(Stmt::Skip),
            &e,
        )
        .unwrap();
        assert_eq!(m_union, m_ins.union(&skip));
    }

    #[test]
    fn meaning_agrees_with_execution_pointwise() {
        let (u, schema) = setup();
        let offered = schema.signature().pred_id("OFFERED").unwrap();
        let cv = schema.signature().var_id("c").unwrap();
        let e = env(&u, Elem(1));
        let some = Formula::exists(cv, Formula::Pred(offered, vec![Term::Var(cv)]));
        let cx = Term::Var(cv);

        let programs = vec![
            Stmt::Insert(offered, vec![cx.clone()]),
            Stmt::Delete(offered, vec![cx.clone()]),
            Stmt::Test(some.clone()),
            Stmt::Insert(offered, vec![cx.clone()]).union(Stmt::Skip),
            Stmt::Insert(offered, vec![cx.clone()])
                .seq(Stmt::Delete(offered, vec![cx.clone()])),
            Stmt::Insert(offered, vec![cx.clone()]).star(),
            Stmt::Delete(offered, vec![cx.clone()]).guarded_by(some.clone()),
            Stmt::IfThenElse(
                some.clone(),
                Box::new(Stmt::Skip),
                Box::new(Stmt::Insert(offered, vec![cx.clone()])),
            ),
            Stmt::While(
                some.clone().not(),
                Box::new(Stmt::Insert(offered, vec![cx.clone()])),
            ),
        ];
        for p in programs {
            let m = meaning(&u, &p, &e).unwrap();
            for i in 0..u.len() {
                let direct: std::collections::BTreeSet<usize> = run(&u.state(i), &p, &e)
                    .unwrap()
                    .into_iter()
                    .map(|s| u.index_or_err(&s).unwrap())
                    .collect();
                assert_eq!(m.image(i), direct, "mismatch for {p:?} at state {i}");
            }
        }
    }

    #[test]
    fn desugared_forms_have_identical_meaning() {
        // Desugar extends the signature with fresh tuple variables, so it
        // must happen before the universe is built over the shared Arc.
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
        let cv = sig.add_var("c", course).unwrap();
        let some = Formula::exists(cv, Formula::Pred(offered, vec![Term::Var(cv)]));
        let program = Stmt::Delete(offered, vec![Term::Var(cv)]).guarded_by(some);
        let core = program.desugar(&mut sig);

        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        let sig = Arc::new(sig);
        let template = DbState::new(sig.clone(), Arc::new(dom));
        let u = FiniteUniverse::enumerate(&template, &[offered], &[], 100).unwrap();

        let mut e = Valuation::new();
        e.set(cv, Elem(0));
        let m1 = meaning(&u, &program, &e).unwrap();
        let m2 = meaning(&u, &core, &e).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn proc_meaning_binds_parameters() {
        let (u, schema) = setup();
        let offered = schema.signature().pred_id("OFFERED").unwrap();
        let k = proc_meaning(&u, &schema, "offer", &[Elem(1)]).unwrap();
        assert!(k.is_functional());
        assert!(k.is_total(u.len()));
        for (a, b) in k.iter() {
            assert!(u.state(b).contains(offered, &[Elem(1)]));
            let before = u.state(a);
            let after = u.state(b);
            assert_eq!(
                before.contains(offered, &[Elem(0)]),
                after.contains(offered, &[Elem(0)])
            );
        }
        assert!(matches!(
            proc_meaning(&u, &schema, "offer", &[]),
            Err(RprError::ArityMismatch { .. })
        ));
        assert!(matches!(
            proc_meaning(&u, &schema, "nope", &[]),
            Err(RprError::UnknownProc(_))
        ));
    }

    #[test]
    fn while_meaning_matches_definition() {
        let (u, _schema) = setup();
        let offered = u.signature().pred_id("OFFERED").unwrap();
        let cv = u.signature().var_id("c").unwrap();
        let e = env(&u, Elem(0));
        let missing = Formula::exists(cv, Formula::Pred(offered, vec![Term::Var(cv)]).not());
        let body = Stmt::Insert(offered, vec![Term::Var(cv)]);
        let w = Stmt::While(missing.clone(), Box::new(body.clone()));
        let m_w = meaning(&u, &w, &e).unwrap();
        let manual = meaning(&u, &Stmt::Test(missing.clone()), &e)
            .unwrap()
            .compose(&meaning(&u, &body, &e).unwrap())
            .star(u.len())
            .compose(&meaning(&u, &Stmt::Test(missing.not()), &e).unwrap());
        assert_eq!(m_w, manual);
    }
}
