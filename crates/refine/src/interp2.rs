//! Interpretation `K` and the induced mapping `N`: functions level →
//! representation level (paper §5.3–5.4).
//!
//! `K` maps each level-2 update function to a procedure of the schema and
//! each level-2 query to a wff of `L3` (a [`QueryDef`], or a
//! [`FuncQueryDef`] for non-Boolean targets). The mapping `N` then turns a
//! representation-level universe into a finitely generated structure of
//! `L2`: states are database states, updates act by running the procedures,
//! queries evaluate their wffs — the [`InducedAlgebra`]. `T3` correctly
//! refines `T2` iff every equation of `A2` is valid in the induced algebra,
//! which [`check_equations_budget`] verifies by bounded induction on trace
//! length.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use eclectic_algebraic::{AlgSpec, OpKind, Rewriter};
use eclectic_kernel::{Budget, Exhaustion};
use eclectic_logic::{Domains, Elem, Formula, FuncId, SortId, Term, VarId};
use eclectic_rpr::{exec, DbState, FuncQueryDef, QueryDef, Schema};

use crate::bridge::ParamBridge;
use crate::error::{RefineError, Result};

/// The representation of one level-2 query at level 3.
#[derive(Debug, Clone)]
pub enum QueryImpl {
    /// Boolean query: a wff over the parameters.
    Bool(QueryDef),
    /// Non-Boolean query: a wff relating parameters to a unique output.
    Func(FuncQueryDef),
}

/// The interpretation `K`.
#[derive(Debug, Clone)]
pub struct InterpretationK {
    queries: BTreeMap<FuncId, QueryImpl>,
    updates: BTreeMap<FuncId, String>,
}

impl InterpretationK {
    /// Builds `K`, checking coverage (every query and update of `L2` must be
    /// interpreted) and arity agreement with the schema's procedures.
    ///
    /// # Errors
    /// Returns [`RefineError::BadInterpretation`] on the first problem.
    pub fn new(
        spec: &AlgSpec,
        schema: &Schema,
        queries: Vec<(&str, QueryImpl)>,
        updates: &[(&str, &str)],
    ) -> Result<Self> {
        let alg = spec.signature();
        let bad = |m: String| RefineError::BadInterpretation(m);

        let mut qmap = BTreeMap::new();
        for (qname, qi) in queries {
            let q = alg
                .logic()
                .func_id(qname)
                .map_err(|e| bad(format!("{e}")))?;
            if alg.kind(q) != OpKind::Query {
                return Err(bad(format!("`{qname}` is not a query function")));
            }
            let params = alg.query_params(q).map_err(RefineError::Alg)?;
            let got = match &qi {
                QueryImpl::Bool(d) => d.params.len(),
                QueryImpl::Func(d) => d.params.len(),
            };
            if got != params.len() {
                return Err(bad(format!(
                    "query `{qname}` takes {} parameter(s), K provides {got}",
                    params.len()
                )));
            }
            let is_bool = alg.logic().func(q).range == alg.bool_sort();
            match (&qi, is_bool) {
                (QueryImpl::Bool(_), true) | (QueryImpl::Func(_), false) => {}
                (QueryImpl::Bool(_), false) => {
                    return Err(bad(format!(
                        "query `{qname}` is non-Boolean but K maps it to a Boolean wff"
                    )))
                }
                (QueryImpl::Func(_), true) => {
                    return Err(bad(format!(
                        "query `{qname}` is Boolean but K maps it to a functional wff"
                    )))
                }
            }
            qmap.insert(q, qi);
        }

        let mut umap = BTreeMap::new();
        for (uname, pname) in updates {
            let u = alg
                .logic()
                .func_id(uname)
                .map_err(|e| bad(format!("{e}")))?;
            if alg.kind(u) != OpKind::Update {
                return Err(bad(format!("`{uname}` is not an update function")));
            }
            let proc = schema
                .proc(pname)
                .ok_or_else(|| bad(format!("schema has no procedure `{pname}`")))?;
            let params = alg.update_params(u).map_err(RefineError::Alg)?;
            if proc.params.len() != params.len() {
                return Err(bad(format!(
                    "update `{uname}` takes {} parameter(s), `{pname}` takes {}",
                    params.len(),
                    proc.params.len()
                )));
            }
            umap.insert(u, (*pname).to_string());
        }

        for q in alg.queries() {
            if !qmap.contains_key(&q) {
                return Err(bad(format!(
                    "query `{}` has no interpretation",
                    alg.logic().func(q).name
                )));
            }
        }
        for u in alg.updates() {
            if !umap.contains_key(&u) {
                return Err(bad(format!(
                    "update `{}` has no interpretation",
                    alg.logic().func(u).name
                )));
            }
        }
        Ok(InterpretationK {
            queries: qmap,
            updates: umap,
        })
    }

    /// The query implementation for a level-2 query.
    #[must_use]
    pub fn query_impl(&self, q: FuncId) -> Option<&QueryImpl> {
        self.queries.get(&q)
    }

    /// The procedure name for a level-2 update.
    #[must_use]
    pub fn proc_name(&self, u: FuncId) -> Option<&str> {
        self.updates.get(&u).map(String::as_str)
    }
}

/// A value of the induced algebra `N(U)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndValue {
    /// A Boolean.
    Bool(bool),
    /// A parameter value: `(logic sort, element)`.
    Param(SortId, Elem),
    /// A database state (the carrier of sort `state`).
    State(DbState),
}

/// The structure of `L2` induced by a schema under `K` (the mapping `N`).
#[derive(Debug)]
pub struct InducedAlgebra<'a> {
    spec: &'a AlgSpec,
    schema: &'a Schema,
    k: &'a InterpretationK,
    bridge: ParamBridge,
    domains: Arc<Domains>,
    /// Template used to evaluate `initiate`-style state constants.
    template: DbState,
    /// Rewriter for parameter-only terms (their semantics is shared across
    /// levels, given by the parameter equations of `A2`).
    rw: Rewriter<'a>,
}

impl<'a> InducedAlgebra<'a> {
    /// Creates the induced algebra; `template` supplies the domains and the
    /// start state on which `initiate` acts.
    ///
    /// # Errors
    /// Returns bridge errors if parameter names do not align.
    pub fn new(
        spec: &'a AlgSpec,
        schema: &'a Schema,
        k: &'a InterpretationK,
        template: DbState,
    ) -> Result<Self> {
        let bridge = ParamBridge::new(spec.signature(), schema.signature(), template.domains())?;
        Ok(InducedAlgebra {
            spec,
            schema,
            k,
            bridge,
            domains: template.domains().clone(),
            template,
            rw: Rewriter::new(spec),
        })
    }

    /// The bridge between parameter names and carrier elements.
    #[must_use]
    pub fn bridge(&self) -> &ParamBridge {
        &self.bridge
    }

    /// The shared domains.
    #[must_use]
    pub fn domains(&self) -> &Arc<Domains> {
        &self.domains
    }

    /// Evaluates a level-2 term in the induced algebra.
    ///
    /// # Errors
    /// Propagates execution/evaluation errors; unbound variables are
    /// reported as interpretation errors.
    pub fn eval_term(&mut self, t: &Term, env: &BTreeMap<VarId, IndValue>) -> Result<IndValue> {
        let alg = self.spec.signature().clone();
        match t {
            Term::Var(v) => env.get(v).cloned().ok_or_else(|| {
                RefineError::BadInterpretation(format!(
                    "unbound variable `{}` in induced evaluation",
                    alg.logic().var(*v).name
                ))
            }),
            Term::App(f, args) => match alg.kind(*f) {
                OpKind::Parameter => self.eval_param_app(*f, args, env),
                OpKind::Update => {
                    let proc = self
                        .k
                        .proc_name(*f)
                        .ok_or_else(|| {
                            RefineError::BadInterpretation("update not mapped by K".into())
                        })?
                        .to_string();
                    let takes_state = alg.update_takes_state(*f)?;
                    let (param_args, state) = if takes_state {
                        let (ps, st) = args.split_at(args.len() - 1);
                        let state = match self.eval_term(&st[0], env)? {
                            IndValue::State(s) => s,
                            _ => {
                                return Err(RefineError::BadInterpretation(
                                    "update applied to a non-state".into(),
                                ))
                            }
                        };
                        (ps.to_vec(), state)
                    } else {
                        (args.to_vec(), self.template.clone())
                    };
                    let elems = self.eval_param_elems(&param_args, env)?;
                    let next = exec::call_deterministic(self.schema, &state, &proc, &elems)?;
                    Ok(IndValue::State(next))
                }
                OpKind::Query => {
                    let (ps, st) = args.split_at(args.len() - 1);
                    let state = match self.eval_term(&st[0], env)? {
                        IndValue::State(s) => s,
                        _ => {
                            return Err(RefineError::BadInterpretation(
                                "query applied to a non-state".into(),
                            ))
                        }
                    };
                    let elems = self.eval_param_elems(ps, env)?;
                    match self.k.query_impl(*f) {
                        Some(QueryImpl::Bool(d)) => Ok(IndValue::Bool(d.eval(&state, &elems)?)),
                        Some(QueryImpl::Func(d)) => {
                            let out = d.eval(&state, &elems)?;
                            let sort = state.signature().var(d.output).sort;
                            Ok(IndValue::Param(sort, out))
                        }
                        None => Err(RefineError::BadInterpretation(
                            "query not mapped by K".into(),
                        )),
                    }
                }
            },
        }
    }

    /// Evaluates a parameter-sorted application: Boolean connectives and
    /// equality checks directly; anything else by rewriting (its arguments
    /// must be state-free).
    fn eval_param_app(
        &mut self,
        f: FuncId,
        args: &[Term],
        env: &BTreeMap<VarId, IndValue>,
    ) -> Result<IndValue> {
        let alg = self.spec.signature().clone();
        if f == alg.true_fn() {
            return Ok(IndValue::Bool(true));
        }
        if f == alg.false_fn() {
            return Ok(IndValue::Bool(false));
        }
        if f == alg.not_fn() {
            let a = self.eval_bool(&args[0], env)?;
            return Ok(IndValue::Bool(!a));
        }
        if f == alg.and_fn() {
            let a = self.eval_bool(&args[0], env)?;
            let b = self.eval_bool(&args[1], env)?;
            return Ok(IndValue::Bool(a && b));
        }
        if f == alg.or_fn() {
            let a = self.eval_bool(&args[0], env)?;
            let b = self.eval_bool(&args[1], env)?;
            return Ok(IndValue::Bool(a || b));
        }
        if f == alg.imp_fn() {
            let a = self.eval_bool(&args[0], env)?;
            let b = self.eval_bool(&args[1], env)?;
            return Ok(IndValue::Bool(!a || b));
        }
        if f == alg.iff_fn() {
            let a = self.eval_bool(&args[0], env)?;
            let b = self.eval_bool(&args[1], env)?;
            return Ok(IndValue::Bool(a == b));
        }
        if alg.param_sorts().any(|s| alg.eq_fn(s) == Some(f)) {
            let a = self.eval_term(&args[0], env)?;
            let b = self.eval_term(&args[1], env)?;
            return Ok(IndValue::Bool(a == b));
        }
        // Constant parameter name?
        if args.is_empty() {
            if let Ok((sort, e)) = self.bridge.elem(f) {
                return Ok(IndValue::Param(sort, e));
            }
        }
        // General parameter function: substitute evaluated arguments as
        // parameter-name constants, then rewrite to a parameter name.
        let mut ground = Vec::with_capacity(args.len());
        for a in args {
            let v = self.eval_term(a, env)?;
            ground.push(self.term_of_value(&v)?);
        }
        let n = self.rw.normalize(&Term::App(f, ground))?;
        self.value_of_param_term(&n)
    }

    fn eval_bool(&mut self, t: &Term, env: &BTreeMap<VarId, IndValue>) -> Result<bool> {
        match self.eval_term(t, env)? {
            IndValue::Bool(b) => Ok(b),
            _ => Err(RefineError::BadInterpretation(
                "expected a Boolean value".into(),
            )),
        }
    }

    fn eval_param_elems(
        &mut self,
        args: &[Term],
        env: &BTreeMap<VarId, IndValue>,
    ) -> Result<Vec<Elem>> {
        args.iter()
            .map(|a| match self.eval_term(a, env)? {
                IndValue::Param(_, e) => Ok(e),
                IndValue::Bool(_) | IndValue::State(_) => Err(RefineError::BadInterpretation(
                    "expected a parameter value".into(),
                )),
            })
            .collect()
    }

    /// The level-2 term (parameter name) denoting a non-state value.
    fn term_of_value(&self, v: &IndValue) -> Result<Term> {
        let alg = self.spec.signature();
        match v {
            IndValue::Bool(true) => Ok(alg.true_term()),
            IndValue::Bool(false) => Ok(alg.false_term()),
            IndValue::Param(sort, e) => self.bridge.term_of_elem(*sort, *e),
            IndValue::State(_) => Err(RefineError::BadInterpretation(
                "states have no parameter-name denotation".into(),
            )),
        }
    }

    fn value_of_param_term(&self, t: &Term) -> Result<IndValue> {
        let alg = self.spec.signature();
        if *t == alg.true_term() {
            return Ok(IndValue::Bool(true));
        }
        if *t == alg.false_term() {
            return Ok(IndValue::Bool(false));
        }
        let (sort, e) = self.bridge.elem_of_term(t)?;
        Ok(IndValue::Param(sort, e))
    }

    /// Evaluates an equation condition in the induced algebra.
    ///
    /// # Errors
    /// Propagates evaluation errors; predicates and modalities are invalid.
    pub fn eval_condition(&mut self, f: &Formula, env: &BTreeMap<VarId, IndValue>) -> Result<bool> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Not(p) => Ok(!self.eval_condition(p, env)?),
            Formula::And(p, q) => Ok(self.eval_condition(p, env)? && self.eval_condition(q, env)?),
            Formula::Or(p, q) => Ok(self.eval_condition(p, env)? || self.eval_condition(q, env)?),
            Formula::Implies(p, q) => {
                Ok(!self.eval_condition(p, env)? || self.eval_condition(q, env)?)
            }
            Formula::Iff(p, q) => Ok(self.eval_condition(p, env)? == self.eval_condition(q, env)?),
            Formula::Eq(a, b) => Ok(self.eval_term(a, env)? == self.eval_term(b, env)?),
            Formula::Exists(x, p) | Formula::Forall(x, p) => {
                let universal = matches!(f, Formula::Forall(..));
                let alg_sort = self.spec.signature().logic().var(*x).sort;
                let lsort = self.bridge.logic_sort(alg_sort)?;
                for e in self.domains.clone().elems(lsort) {
                    let mut env2 = env.clone();
                    env2.insert(*x, IndValue::Param(lsort, e));
                    let holds = self.eval_condition(p, &env2)?;
                    if universal && !holds {
                        return Ok(false);
                    }
                    if !universal && holds {
                        return Ok(true);
                    }
                }
                Ok(universal)
            }
            Formula::Pred(..) | Formula::Possibly(..) | Formula::Necessarily(..) => Err(
                RefineError::BadInterpretation("invalid construct in equation condition".into()),
            ),
        }
    }

    /// Enumerates the database states reachable by at most `max_depth`
    /// procedure calls from the interpreted `initiate`, breadth first, in
    /// (parent, operation) order. Hitting `max_states` reports truncation
    /// via the second component. The [`Budget`] is polled once per BFS
    /// level with the number of distinct states admitted so far;
    /// exhaustion returns the states admitted so far with `truncated` set
    /// and an [`Exhaustion`] record instead of failing.
    ///
    /// # Errors
    /// Propagates execution errors; budget exhaustion is *not* an error.
    pub fn reachable_states_budget(
        &mut self,
        max_depth: usize,
        max_states: usize,
        budget: &Budget,
    ) -> Result<(Vec<DbState>, bool, Option<Exhaustion>)> {
        if let Some(reason) = budget.check(0) {
            return Ok((Vec::new(), true, Some(budget.exhaustion("reach", reason, 0))));
        }
        let alg = self.spec.signature().clone();
        let mut initial = Vec::new();
        for u in alg.updates() {
            if !alg.update_takes_state(u)? {
                // Apply with every parameter tuple.
                for params in self.param_tuples_for_update(u)? {
                    let t = Term::App(u, params);
                    match self.eval_term(&t, &BTreeMap::new())? {
                        IndValue::State(s) => initial.push(s),
                        _ => unreachable!("updates produce states"),
                    }
                }
            }
        }
        // Precompute the operation list once: every state-taking procedure
        // with every parameter-element tuple, in (update, tuple) order.
        let mut ops: Vec<(String, Vec<Elem>)> = Vec::new();
        for u in alg.updates() {
            if !alg.update_takes_state(u)? {
                continue;
            }
            let proc = self.k.proc_name(u).expect("coverage checked").to_string();
            for params in self.param_tuples_for_update(u)? {
                let elems: Vec<Elem> = params
                    .iter()
                    .map(|p| self.bridge.elem_of_term(p).map(|(_, e)| e))
                    .collect::<Result<_>>()?;
                ops.push((proc.clone(), elems));
            }
        }

        let mut seen: BTreeSet<DbState> = BTreeSet::new();
        let mut order = Vec::new();
        let mut truncated = false;
        let mut frontier: Vec<DbState> = Vec::new();
        for s in initial {
            if seen.insert(s.clone()) {
                order.push(s.clone());
                frontier.push(s);
            }
        }

        let schema = self.schema;
        let mut exhausted = None;
        let mut d = 0;
        while !frontier.is_empty() {
            if d >= max_depth {
                truncated = true;
                break;
            }
            if let Some(reason) = budget.check(seen.len()) {
                // Level boundary: `seen` holds exactly the states the
                // completed levels admitted.
                truncated = true;
                exhausted = Some(budget.exhaustion("reach", reason, d));
                break;
            }
            // Admit successors in (parent, operation) order: FIFO order.
            let mut next_frontier = Vec::new();
            for st in &frontier {
                for (proc, elems) in &ops {
                    let next = exec::call_deterministic(schema, st, proc, elems)?;
                    if seen.len() >= max_states && !seen.contains(&next) {
                        truncated = true;
                        continue;
                    }
                    if seen.insert(next.clone()) {
                        order.push(next.clone());
                        next_frontier.push(next);
                    }
                }
            }
            frontier = next_frontier;
            d += 1;
        }
        Ok((order, truncated, exhausted))
    }

    /// All parameter-name tuples for an update's parameter sorts.
    fn param_tuples_for_update(&self, u: FuncId) -> Result<Vec<Vec<Term>>> {
        let alg = self.spec.signature();
        let sorts = alg.update_params(u)?;
        let mut out = vec![Vec::new()];
        for s in sorts {
            let lsort = self.bridge.logic_sort(s)?;
            let mut next = Vec::new();
            for prefix in &out {
                for e in self.domains.elems(lsort) {
                    let mut t = prefix.clone();
                    t.push(self.bridge.term_of_elem(lsort, e)?);
                    next.push(t);
                }
            }
            out = next;
        }
        Ok(out)
    }
}

/// One failed equation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EquationFailure {
    /// Equation name.
    pub equation: String,
    /// Rendering of the state at which it failed.
    pub state: String,
    /// Rendering of the parameter assignment.
    pub assignment: String,
}

/// Summary of checking every `A2` equation in the induced algebra.
#[derive(Debug, Clone, Default)]
pub struct EquationCheckReport {
    /// Ground instances evaluated.
    pub instances: usize,
    /// Database states visited.
    pub states: usize,
    /// Failures found (empty for a correct refinement).
    pub failures: Vec<EquationFailure>,
    /// Whether state enumeration was truncated.
    pub truncated: bool,
    /// Set when a [`Budget`] tripped during enumeration or instance
    /// evaluation; the counts above cover the completed prefix.
    pub exhausted: Option<Exhaustion>,
}

impl EquationCheckReport {
    /// Whether the refinement is correct (no equation failed).
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks that every equation of `A2` is valid in `N(U)`: for every
/// reachable database state, every assignment of the equation's parameter
/// variables, if the condition holds then both sides evaluate equal — the
/// paper's §5.4 induction on trace length, executed exhaustively up to
/// `max_depth`. Governed by a [`Budget`]: state enumeration is budgeted
/// (see [`InducedAlgebra::reachable_states_budget`]) and instance
/// evaluation polls the budget before each state with the number of
/// instances evaluated so far. Exhaustion returns the partial report with
/// `exhausted` set instead of failing.
///
/// # Errors
/// Propagates evaluation errors; budget exhaustion is *not* an error.
pub fn check_equations_budget(
    ind: &mut InducedAlgebra<'_>,
    max_depth: usize,
    max_states: usize,
    max_failures: usize,
    budget: &Budget,
) -> Result<EquationCheckReport> {
    let spec = ind.spec;
    let alg = spec.signature().clone();
    let (states, truncated, reach_exhausted) =
        ind.reachable_states_budget(max_depth, max_states, budget)?;
    let mut report = EquationCheckReport {
        states: states.len(),
        truncated,
        ..EquationCheckReport::default()
    };
    if reach_exhausted.is_some() {
        report.exhausted = reach_exhausted;
        return Ok(report);
    }

    for eq in spec.equations() {
        // Variables of the equation: parameter vars get all values, the
        // state variable ranges over reachable states.
        let mut param_vars: Vec<(VarId, SortId)> = Vec::new();
        let mut state_vars: Vec<VarId> = Vec::new();
        for v in eq.lhs.vars() {
            let sort = alg.logic().var(v).sort;
            if sort == alg.state_sort() {
                state_vars.push(v);
            } else {
                param_vars.push((v, ind.bridge.logic_sort(sort)?));
            }
        }
        if state_vars.len() > 1 {
            return Err(RefineError::BadInterpretation(
                "equations with several state variables are not supported".into(),
            ));
        }

        // Cartesian product of parameter assignments.
        let mut assignments: Vec<BTreeMap<VarId, IndValue>> = vec![BTreeMap::new()];
        for (v, lsort) in &param_vars {
            let mut next = Vec::new();
            for env in &assignments {
                for e in ind.domains.elems(*lsort) {
                    let mut env2 = env.clone();
                    env2.insert(*v, IndValue::Param(*lsort, e));
                    next.push(env2);
                }
            }
            assignments = next;
        }

        for st in &states {
            if let Some(reason) = budget.check(report.instances) {
                report.exhausted =
                    Some(budget.exhaustion("equations", reason, report.instances));
                return Ok(report);
            }
            for env in &assignments {
                let mut env = env.clone();
                if let Some(&sv) = state_vars.first() {
                    env.insert(sv, IndValue::State(st.clone()));
                }
                report.instances += 1;
                if !ind.eval_condition(&eq.condition, &env)? {
                    continue;
                }
                let lhs = ind.eval_term(&eq.lhs, &env)?;
                let rhs = ind.eval_term(&eq.rhs, &env)?;
                if lhs != rhs {
                    report.failures.push(EquationFailure {
                        equation: eq.name.clone(),
                        state: st.render().unwrap_or_else(|_| "<state>".into()),
                        assignment: render_env(&alg, ind, &env),
                    });
                    if report.failures.len() >= max_failures {
                        return Ok(report);
                    }
                }
            }
        }
    }
    Ok(report)
}

fn render_env(
    alg: &eclectic_algebraic::AlgSignature,
    ind: &InducedAlgebra<'_>,
    env: &BTreeMap<VarId, IndValue>,
) -> String {
    let mut parts = Vec::new();
    for (v, val) in env {
        let name = &alg.logic().var(*v).name;
        let rendered = match val {
            IndValue::Bool(b) => b.to_string(),
            IndValue::Param(sort, e) => ind
                .domains
                .elem_name(ind.schema.signature(), *sort, *e)
                .unwrap_or("?")
                .to_string(),
            IndValue::State(_) => "<state>".to_string(),
        };
        parts.push(format!("{name}={rendered}"));
    }
    parts.join(", ")
}
