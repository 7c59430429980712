//! The representation universe is a codec: no state is stored, and every
//! atomic statement's denotation is computed on state codes. This suite
//! keeps the stored-state universe and the clone-and-index denotation as a
//! reference, and checks that `denote::meaning` gives the same pairs — or
//! the same error — on every sub-statement of every checked procedure of
//! the packaged domains and 64 factory schemas, and on statements that
//! write outside the program variables.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use eclectic::logic::{eval, Domains, Elem, FuncId, PredId, Signature, Term, Valuation};
use eclectic::rpr::{denote, BinRel, DbState, FiniteUniverse, RelTerm, RprError, Stmt};
use eclectic::spec::domains::{bank, courses, library, BankConfig, CoursesConfig, LibraryConfig};
use eclectic::spec::fuzz::{build_domain, FuzzConfig};
use eclectic::spec::TriLevelSpec;

type Denotation = Result<Vec<(usize, usize)>, RprError>;

/// The universe as every state, in enumeration order, plus a map back.
struct Stored {
    states: Vec<DbState>,
    index: BTreeMap<DbState, usize>,
}

impl Stored {
    fn enumerate(template: &DbState, relations: &[PredId], scalars: &[FuncId]) -> Stored {
        let (sig, dom) = (template.signature().clone(), template.domains().clone());
        let mut states = vec![template.clone()];
        for &r in relations {
            let rows = dom.tuples(&sig.pred(r).domain);
            let mut next = Vec::new();
            for st in &states {
                for mask in 0..1usize << rows.len() {
                    let mut s2 = st.clone();
                    let tuples = (0..rows.len())
                        .filter(|k| mask >> k & 1 == 1)
                        .map(|k| rows[k].clone())
                        .collect();
                    s2.structure_mut().set_pred_relation(r, tuples).unwrap();
                    next.push(s2);
                }
            }
            states = next;
        }
        for &x in scalars {
            let mut next = Vec::new();
            for st in &states {
                for e in dom.elems(sig.func(x).range) {
                    let mut s2 = st.clone();
                    s2.set_scalar(x, e).unwrap();
                    next.push(s2);
                }
            }
            states = next;
        }
        let index = states.iter().cloned().zip(0..).collect();
        Stored { states, index }
    }

    /// `m` of a statement computed by cloning each state, applying the
    /// statement and looking the result up.
    fn meaning(&self, stmt: &Stmt, env: &Valuation) -> Result<BinRel, RprError> {
        let n = self.states.len();
        let step = |f: &dyn Fn(&DbState) -> Result<DbState, RprError>| {
            let mut out = BinRel::with_dim(n);
            for (i, st) in self.states.iter().enumerate() {
                let next = f(st)?;
                let j = self.index.get(&next).copied().ok_or_else(|| {
                    RprError::BadStatement(
                        "state outside the universe (differs on a non-program symbol)".into(),
                    )
                })?;
                out.insert(i, j);
            }
            Ok(out)
        };
        let tuple = |st: &DbState, args: &[Term]| -> Result<Vec<Elem>, RprError> {
            Ok(args
                .iter()
                .map(|t| eval::eval_term(st.structure(), env, t))
                .collect::<Result<_, _>>()?)
        };
        match stmt {
            Stmt::Skip => Ok(BinRel::identity(n)),
            Stmt::Assign(x, t) => step(&|st| {
                let mut next = st.clone();
                next.set_scalar(*x, eval::eval_term(st.structure(), env, t)?)?;
                Ok(next)
            }),
            Stmt::RelAssign(r, f) => step(&|st| {
                let rows = eval::satisfying_assignments_with(st.structure(), env, &f.wff, &f.vars)?;
                let mut next = st.clone();
                next.structure_mut()
                    .set_pred_relation(*r, rows.into_iter().collect())?;
                Ok(next)
            }),
            Stmt::Insert(r, args) => step(&|st| {
                let mut next = st.clone();
                next.insert(*r, tuple(st, args)?)?;
                Ok(next)
            }),
            Stmt::Delete(r, args) => step(&|st| {
                let mut next = st.clone();
                next.delete(*r, &tuple(st, args)?);
                Ok(next)
            }),
            Stmt::Test(p) => {
                let mut out = BinRel::with_dim(n);
                for (i, st) in self.states.iter().enumerate() {
                    if eval::satisfies(st.structure(), env, p)? {
                        out.insert(i, i);
                    }
                }
                Ok(out)
            }
            Stmt::Union(p, q) => Ok(self.meaning(p, env)?.union(&self.meaning(q, env)?)),
            Stmt::Seq(p, q) => Ok(self.meaning(p, env)?.compose(&self.meaning(q, env)?)),
            Stmt::Star(p) => Ok(self.meaning(p, env)?.star(n)),
            Stmt::IfThen(c, p) => {
                let test = self.meaning(&Stmt::Test(c.clone()), env)?;
                let ntest = test.diag_complement(n);
                Ok(test.compose(&self.meaning(p, env)?).union(&ntest))
            }
            Stmt::IfThenElse(c, p, q) => {
                let test = self.meaning(&Stmt::Test(c.clone()), env)?;
                let ntest = test.diag_complement(n);
                Ok(test
                    .compose(&self.meaning(p, env)?)
                    .union(&ntest.compose(&self.meaning(q, env)?)))
            }
            Stmt::While(c, p) => {
                let test = self.meaning(&Stmt::Test(c.clone()), env)?;
                let ntest = test.diag_complement(n);
                Ok(test.compose(&self.meaning(p, env)?).star(n).compose(&ntest))
            }
        }
    }
}

/// `stmt` and its sub-statements, with each guard's test.
fn sub_statements(stmt: &Stmt, out: &mut Vec<Stmt>) {
    out.push(stmt.clone());
    match stmt {
        Stmt::Union(p, q) | Stmt::Seq(p, q) => {
            sub_statements(p, out);
            sub_statements(q, out);
        }
        Stmt::Star(p) => sub_statements(p, out),
        Stmt::IfThen(c, p) | Stmt::While(c, p) => {
            out.push(Stmt::Test(c.clone()));
            sub_statements(p, out);
        }
        Stmt::IfThenElse(c, p, q) => {
            out.push(Stmt::Test(c.clone()));
            sub_statements(p, out);
            sub_statements(q, out);
        }
        _ => {}
    }
}

/// Every argument tuple of a procedure's parameters.
fn envs(sig: &Signature, dom: &Domains, params: &[eclectic::logic::VarId]) -> Vec<Valuation> {
    let mut out = vec![Valuation::new()];
    for &p in params {
        out = out
            .into_iter()
            .flat_map(|v| {
                dom.elems(sig.var(p).sort).map(move |e| {
                    let mut v = v.clone();
                    v.set(p, e);
                    v
                })
            })
            .collect();
    }
    out
}

/// Compares codec and reference on every sub-statement of every checked
/// procedure application; returns the number of states covered.
fn agree_on(name: &str, spec: &TriLevelSpec, cap: usize) -> usize {
    let schema = &spec.representation;
    let template = spec.empty_state();
    let u = match FiniteUniverse::enumerate(&template, schema.relations(), &[], cap) {
        Ok(u) => u,
        Err(RprError::UniverseTooLarge { .. }) => return 0,
        Err(e) => panic!("{name}: {e}"),
    };
    let stored = Stored::enumerate(&template, schema.relations(), &[]);
    assert_eq!(stored.states.len(), u.len(), "{name}");
    let (sig, dom) = (u.signature().clone(), u.domains().clone());
    let mut seen = HashSet::new();
    for proc in schema
        .procs()
        .iter()
        .filter(|p| p.body.is_loop_and_choice_free())
    {
        let mut subs = Vec::new();
        sub_statements(&proc.body, &mut subs);
        for env in envs(&sig, &dom, &proc.params) {
            for sub in &subs {
                // A denotation depends only on the statement's free variables.
                let key: Vec<_> = sub.free_vars().into_iter().map(|v| env.get(v)).collect();
                if !seen.insert((sub.clone(), key)) {
                    continue;
                }
                let codec: Denotation = denote::meaning(&u, sub, &env).map(|m| m.pairs());
                let reference: Denotation = stored.meaning(sub, &env).map(|m| m.pairs());
                assert_eq!(
                    codec, reference,
                    "{name}: {} at {env:?}: {sub:?}",
                    proc.name
                );
            }
        }
    }
    u.len()
}

#[test]
fn codec_denotations_match_the_stored_universe_on_the_packaged_domains() {
    let cap = 1 << 12;
    let specs = [
        ("courses", courses(&CoursesConfig::default()).unwrap()),
        ("library", library(&LibraryConfig::default()).unwrap()),
        ("bank", bank(&BankConfig::default()).unwrap()),
    ];
    for (name, spec) in &specs {
        assert!(agree_on(name, spec, cap) > 0, "{name}: universe over {cap}");
    }
}

#[test]
fn codec_denotations_match_the_stored_universe_on_factory_schemas() {
    let cfg = FuzzConfig::default();
    let mut covered = 0;
    for seed in 0..64u64 {
        let spec = build_domain(seed, &cfg).unwrap();
        covered += usize::from(agree_on(&format!("seed {seed}"), &spec, 1 << 12) > 0);
    }
    assert_eq!(covered, 64);
}

/// Sorts `course = {db, ai}` and `slot = {am, noon, pm}`; program relation
/// `R(course)` and program scalar `x: course`; non-program relation
/// `Q(course)` holding `db`, constant `k = db`, unset constant `w`, and
/// `s = pm` of sort `slot`.
fn hostile() -> (DbState, FiniteUniverse, Stored) {
    let mut sig = Signature::new();
    let course = sig.add_sort("course").unwrap();
    let slot = sig.add_sort("slot").unwrap();
    let r = sig.add_db_predicate("R", &[course]).unwrap();
    let q = sig.add_db_predicate("Q", &[course]).unwrap();
    let x = sig.add_constant("x", course).unwrap();
    let k = sig.add_constant("k", course).unwrap();
    sig.add_constant("w", course).unwrap();
    let s = sig.add_constant("s", slot).unwrap();
    sig.add_var("c", course).unwrap();
    sig.add_var("d", course).unwrap();
    let dom = Domains::from_names(
        &sig,
        &[("course", &["db", "ai"]), ("slot", &["am", "noon", "pm"])],
    )
    .unwrap();
    let mut template = DbState::new(Arc::new(sig), Arc::new(dom));
    template.insert(q, vec![Elem(0)]).unwrap();
    template.set_scalar(k, Elem(0)).unwrap();
    template.set_scalar(s, Elem(2)).unwrap();
    let u = FiniteUniverse::enumerate(&template, &[r], &[x], 64).unwrap();
    let stored = Stored::enumerate(&template, &[r], &[x]);
    (template, u, stored)
}

#[test]
fn hostile_statements_fail_or_hold_as_on_the_stored_universe() {
    let (template, u, stored) = hostile();
    let sig = template.signature().clone();
    let pred = |n| sig.pred_id(n).unwrap();
    let func = |n| Term::constant(sig.func_id(n).unwrap());
    let var = |n| sig.var_id(n).unwrap();
    let (r, q) = (pred("R"), pred("Q"));
    let (c, d) = (var("c"), var("d"));
    let comprehension = |vars: Vec<_>, wff| RelTerm { vars, wff };
    let in_q = eclectic::logic::Formula::Pred(q, vec![Term::Var(c)]);
    let cases: Vec<(&str, Stmt)> = vec![
        ("insert a tuple Q holds", Stmt::Insert(q, vec![func("k")])),
        (
            "insert a tuple Q lacks",
            Stmt::Insert(q, vec![Term::Var(c)]),
        ),
        ("delete a tuple Q holds", Stmt::Delete(q, vec![func("k")])),
        (
            "delete a tuple Q lacks",
            Stmt::Delete(q, vec![Term::Var(c)]),
        ),
        ("insert out of range", Stmt::Insert(r, vec![func("s")])),
        ("delete out of range", Stmt::Delete(r, vec![func("s")])),
        (
            "insert with the wrong arity",
            Stmt::Insert(r, vec![Term::Var(c), Term::Var(c)]),
        ),
        (
            "Q := Q",
            Stmt::RelAssign(q, comprehension(vec![c], in_q.clone())),
        ),
        (
            "Q := everything",
            Stmt::RelAssign(q, comprehension(vec![c], eclectic::logic::Formula::True)),
        ),
        (
            "R := a binary comprehension",
            Stmt::RelAssign(r, comprehension(vec![c, d], eclectic::logic::Formula::True)),
        ),
        (
            "R := an empty binary comprehension",
            Stmt::RelAssign(
                r,
                comprehension(vec![c, d], eclectic::logic::Formula::False),
            ),
        ),
        ("R := Q", Stmt::RelAssign(r, comprehension(vec![c], in_q))),
        ("k := k", Stmt::Assign(sig.func_id("k").unwrap(), func("k"))),
        ("k := x", Stmt::Assign(sig.func_id("k").unwrap(), func("x"))),
        (
            "k := c",
            Stmt::Assign(sig.func_id("k").unwrap(), Term::Var(c)),
        ),
        ("w := k", Stmt::Assign(sig.func_id("w").unwrap(), func("k"))),
        ("x := s", Stmt::Assign(sig.func_id("x").unwrap(), func("s"))),
        (
            "x := c",
            Stmt::Assign(sig.func_id("x").unwrap(), Term::Var(c)),
        ),
        ("read an unset constant", Stmt::Insert(r, vec![func("w")])),
        ("insert R(x)", Stmt::Insert(r, vec![func("x")])),
        ("an unbound variable", Stmt::Insert(r, vec![Term::Var(d)])),
        (
            "a test on an unbound variable",
            Stmt::Test(eclectic::logic::Formula::Pred(r, vec![Term::Var(d)])),
        ),
    ];
    let mut env = Valuation::new();
    env.set(c, Elem(1));
    let mut failures = 0;
    for (what, stmt) in &cases {
        let codec: Denotation = denote::meaning(&u, stmt, &env).map(|m| m.pairs());
        let reference: Denotation = stored.meaning(stmt, &env).map(|m| m.pairs());
        assert_eq!(codec, reference, "{what}");
        failures += usize::from(codec.is_err());
    }
    // Writes that leave the template, ill-formed tuples and unbound or
    // unset reads fail; the rest hold.
    assert_eq!(failures, 13);
}
