//! Differential cross-engine fuzzing over W-grammar-derived domains.
//!
//! The scenario factory turns one `u64` seed into a complete random
//! tri-level specification: [`eclectic_rpr::wgrammar::derive_shape`] draws
//! a many-sorted signature from the RPR metagrammar's own identifier
//! language, [`eclectic_algebraic::random_descriptions`] draws structured
//! descriptions over it, §4.2 synthesis plus
//! [`crate::methodology::derive_schema`] produce the equations and the
//! representation schema, and
//! [`eclectic_refine::random::equivalent_variant`] perturbs the
//! interpretation `K` with logically equivalent query wffs. The result is
//! a [`TriLevelSpec`] that is *correct by construction* — so every engine
//! axis must agree on every verification outcome.
//!
//! [`run_differential`] then verifies one such domain under every engine
//! combination — dense/sparse/compressed/auto [`Rel`] backends, 1/2/4/8
//! workers, budget-capped partial runs against full
//! runs — and reports any pair whose schedule-independent [`Fingerprint`]s
//! differ. [`run_corpus`] sweeps seeds, shrinks each divergence to a
//! minimal seed/config with [`shrink`], and renders it as a
//! `tests/corpus/*.toml` fixture via [`fixture_toml`].
//!
//! [`Rel`]: eclectic_kernel::Rel

use std::sync::Arc;

use eclectic_algebraic::{random_descriptions, synthesize, AlgSignature, AlgSpec};
use eclectic_kernel::{
    effective_workers, env_threads, force_rel_backend, force_worker_cap, run_tasks, Exhaustion,
    RelChoice, Rng, REL_DENSE_MAX_DIM,
};
use eclectic_logic::{Formula, Signature, SortId, Term, Theory, VarId};
use eclectic_refine::{random::equivalent_variant, InterpretationI, InterpretationK, QueryImpl};
use eclectic_rpr::wgrammar::{derive_shape, ShapeConfig};
use eclectic_rpr::QueryDef;

use crate::error::{Result, SpecError};
use crate::methodology::derive_schema;
use crate::spec::{CarrierSpec, TriLevelSpec};
use crate::verify::{verify_with_threads, VerificationOutcome, VerifyConfig};

/// Node-budget used for the capped-prefix differential axis. Small enough
/// to trip inside refine12 on most generated domains, large enough that the
/// earlier stages still do representative work.
const CAPPED_NODES: usize = 200;

/// Label of the capped cross-engine arm: dense at one worker against sparse
/// at two.
const CAPPED_AXIS: &str = "capped:dense/1-vs-sparse/2";

/// Everything needed to regenerate one fuzzed domain: the W-grammar shape
/// knobs plus the verification exploration depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Shape of the generated signature (sorts, carriers, queries, updates,
    /// arities).
    pub shape: ShapeConfig,
    /// Reachability exploration depth for the 1→2 obligations.
    pub explore_depth: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            shape: ShapeConfig::default(),
            explore_depth: 4,
        }
    }
}

impl FuzzConfig {
    /// The verification configuration used for every engine combination.
    #[must_use]
    pub fn verify_config(&self) -> VerifyConfig {
        let mut vc = VerifyConfig::quick();
        vc.refine12.limits.max_depth = self.explore_depth.clamp(1, 8);
        vc.random_traces = 3;
        vc.trace_len = 8;
        vc
    }
}

/// Builds the complete random tri-level specification for `seed`.
///
/// The construction is deterministic in `(seed, cfg)` and, because every
/// artefact is derived by the §4.2 methodology, a sound engine reports
/// every obligation satisfied *except possibly* obligation (c): the
/// tautological information axioms make every candidate state valid, while
/// random updates rarely reach them all, so `valid ⇒ reachable` may fail —
/// deterministically, with the same unreached-state list on every engine.
/// The differential harness compares full fingerprints, so that failure is
/// itself a cross-checked artefact; any *disagreement* between engines is
/// an engine bug.
///
/// # Errors
/// Returns an error only if the derivation pipeline rejects the drawn
/// shape — which would indicate a generator bug, not user error.
pub fn build_domain(seed: u64, cfg: &FuzzConfig) -> Result<TriLevelSpec> {
    let shape_cfg = cfg.shape.clamped();
    let mut master = Rng::new(seed);
    let shape = derive_shape(master.next_u64(), &shape_cfg);
    let mut desc_rng = master.fork();
    let mut k_rng = master.fork();

    // ---- Level 1: information (temporal FO theory) ----------------------
    let mut isig = Signature::new();
    let mut info_sorts: Vec<SortId> = Vec::new();
    for (name, _) in &shape.sorts {
        info_sorts.push(isig.add_sort(name)?);
    }
    for q in &shape.queries {
        let dom: Vec<SortId> = q.param_sorts.iter().map(|&i| info_sorts[i]).collect();
        isig.add_db_predicate(&q.name, &dom)?;
    }
    // Tautological axioms over the first query: satisfied in every state
    // and every transition, so the generated domain is always correct and
    // the static/transition checkers still have a formula to evaluate.
    let q0 = &shape.queries[0];
    let pred0 = isig.pred_id(&q0.name)?;
    let mut vars: Vec<VarId> = Vec::new();
    for (i, &si) in q0.param_sorts.iter().enumerate() {
        vars.push(isig.add_var(&format!("v{i}"), info_sorts[si])?);
    }
    let atom = Formula::Pred(pred0, vars.iter().map(|&v| Term::Var(v)).collect());
    let taut = atom.clone().or(atom.not());
    let static_axiom = Formula::forall_all(&vars, taut.clone());
    let transition_axiom = Formula::forall_all(&vars, taut.necessarily());
    let mut information = Theory::new(Arc::new(isig));
    information.add_axiom("static-tautology", static_axiom)?;
    information.add_axiom("transition-tautology", transition_axiom)?;

    // ---- Level 2: functions (algebraic specification) -------------------
    let mut alg = AlgSignature::new()?;
    let mut alg_sorts: Vec<SortId> = Vec::new();
    for (name, elems) in &shape.sorts {
        let elems: Vec<&str> = elems.iter().map(String::as_str).collect();
        alg_sorts.push(alg.add_param_sort(name, &elems)?);
    }
    for q in &shape.queries {
        let dom: Vec<SortId> = q.param_sorts.iter().map(|&i| alg_sorts[i]).collect();
        alg.add_query(&q.name, &dom, None)?;
    }
    alg.add_update("initiate", &[], false)?;
    for u in &shape.updates {
        let dom: Vec<SortId> = u.param_sorts.iter().map(|&i| alg_sorts[i]).collect();
        alg.add_update(&u.name, &dom, true)?;
    }
    let (initial, descs) = random_descriptions(&mut alg, &mut desc_rng)?;
    let eqs = synthesize(&mut alg, &initial, &descs)?;
    let schema_input_alg = alg.clone();
    let functions = AlgSpec::new(alg, eqs)?;

    // ---- Level 3: representation (RPR schema) ---------------------------
    let rel_names: Vec<(String, String)> = shape
        .queries
        .iter()
        .map(|q| (q.name.clone(), format!("R_{}", q.name)))
        .collect();
    let pairs: Vec<(&str, &str)> = rel_names
        .iter()
        .map(|(q, r)| (q.as_str(), r.as_str()))
        .collect();
    let representation = derive_schema(&schema_input_alg, &initial, &descs, &pairs)?;

    // ---- Interpretations I and K ----------------------------------------
    let ipairs: Vec<(&str, &str)> = shape
        .queries
        .iter()
        .map(|q| (q.name.as_str(), q.name.as_str()))
        .collect();
    let interp_i = InterpretationI::new(&information.signature, functions.signature(), &ipairs)?;

    let rsig = representation.signature().clone();
    let mut kqueries: Vec<(&str, QueryImpl)> = Vec::new();
    for (qname, rname) in &rel_names {
        let rel = rsig.pred_id(rname)?;
        let dom = rsig.pred(rel).domain.clone();
        let mut params: Vec<VarId> = Vec::new();
        for &s in &dom {
            let v = rsig
                .var_ids()
                .find(|&v| rsig.var(v).sort == s && !params.contains(&v))
                .ok_or_else(|| {
                    SpecError::Derivation(format!(
                        "no distinct representation variable of sort `{}` for query `{qname}`",
                        rsig.sort_name(s)
                    ))
                })?;
            params.push(v);
        }
        let base = Formula::Pred(rel, params.iter().map(|&v| Term::Var(v)).collect());
        let wff = equivalent_variant(base, &mut k_rng);
        kqueries.push((qname, QueryImpl::Bool(QueryDef::new(&rsig, qname, params, wff)?)));
    }
    let mut kupdates: Vec<(&str, &str)> = vec![("initiate", "initiate")];
    for u in &shape.updates {
        kupdates.push((u.name.as_str(), u.name.as_str()));
    }
    let interp_k = InterpretationK::new(&functions, &representation, kqueries, &kupdates)?;

    // ---- Carriers and template state ------------------------------------
    let elem_lists: Vec<Vec<&str>> = shape
        .sorts
        .iter()
        .map(|(_, es)| es.iter().map(String::as_str).collect())
        .collect();
    let entries: Vec<(&str, &[&str])> = shape
        .sorts
        .iter()
        .zip(&elem_lists)
        .map(|((n, _), es)| (n.as_str(), es.as_slice()))
        .collect();
    let carriers = CarrierSpec::new(&entries);
    let info_domains = Arc::new(carriers.domains_for(&information.signature)?);
    let repr_domains = Arc::new(carriers.domains_for(representation.signature())?);
    let mut repr_template =
        eclectic_rpr::DbState::new(representation.signature().clone(), repr_domains.clone());
    repr_template.bind_named_constants()?;

    Ok(TriLevelSpec {
        name: format!("fuzz-{seed:#x}"),
        information,
        info_domains,
        functions,
        representation,
        repr_domains,
        interp_i,
        interp_k,
        repr_template,
    })
}

/// The schedule-independent portion of a [`VerificationOutcome`], rendered
/// to strings so any two runs — whatever their backend or worker count —
/// can be compared for exact agreement. Elapsed times are deliberately
/// excluded; the dynamic stage's denotation-cache counters are included,
/// because each procedure owns its cache and they are worker-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// W-grammar syntax check result.
    pub grammar_ok: bool,
    /// Overall verdict.
    pub correct: bool,
    /// 1→2 obligations (termination, completeness, violations).
    pub refine12: String,
    /// Reachability exploration (witnesses, depth, truncation, universe).
    pub exploration: String,
    /// Obligation (c): valid states reachable.
    pub valid_reachable: String,
    /// 2→3 equation check.
    pub equations: String,
    /// PDL dynamic obligations, including the denotation-cache counters.
    pub dynamic: String,
    /// Randomized cross-formalism agreement.
    pub cross: String,
    /// Stage names with their budget-exhaustion records (but not timings).
    pub stages: Vec<(&'static str, Option<Exhaustion>)>,
}

impl Fingerprint {
    /// Extracts the fingerprint of one verification outcome.
    #[must_use]
    pub fn of(o: &VerificationOutcome) -> Fingerprint {
        let r12 = &o.report.refine12;
        let u = &r12.exploration.universe;
        Fingerprint {
            grammar_ok: o.grammar_ok,
            correct: o.is_correct(),
            refine12: format!(
                "{:?}",
                (
                    &r12.termination,
                    &r12.completeness,
                    &r12.static_violations,
                    &r12.transition_violations
                )
            ),
            exploration: format!(
                "{:?}",
                (
                    &r12.exploration.witnesses,
                    &r12.exploration.depth,
                    r12.exploration.truncated,
                    r12.exploration.abstraction_collision,
                    &r12.exploration.exhausted,
                    u.state_count(),
                    u.edge_count()
                )
            ),
            valid_reachable: format!("{:?}", o.report.valid_reachable),
            equations: format!("{:?}", o.report.equations),
            dynamic: format!(
                "{:?}",
                (
                    &o.dynamic.failures,
                    o.dynamic.checked,
                    o.dynamic.universe_states,
                    &o.dynamic.unchecked_procs,
                    &o.dynamic.skipped,
                    &o.dynamic.exhausted,
                    &o.dynamic.cache_stats
                )
            ),
            cross: format!("{:?}", (&o.cross_mismatch, &o.cross_stats)),
            stages: o
                .stages
                .iter()
                .map(|s| (s.name, s.exhausted.clone()))
                .collect(),
        }
    }

    /// The first field in which `self` and `other` differ, as
    /// `name: self-value != other-value`, or `None` when equal.
    #[must_use]
    pub fn first_difference(&self, other: &Fingerprint) -> Option<String> {
        let fields: [(&str, String, String); 9] = [
            (
                "grammar_ok",
                format!("{:?}", self.grammar_ok),
                format!("{:?}", other.grammar_ok),
            ),
            (
                "correct",
                format!("{:?}", self.correct),
                format!("{:?}", other.correct),
            ),
            ("refine12", self.refine12.clone(), other.refine12.clone()),
            (
                "exploration",
                self.exploration.clone(),
                other.exploration.clone(),
            ),
            (
                "valid_reachable",
                self.valid_reachable.clone(),
                other.valid_reachable.clone(),
            ),
            ("equations", self.equations.clone(), other.equations.clone()),
            ("dynamic", self.dynamic.clone(), other.dynamic.clone()),
            ("cross", self.cross.clone(), other.cross.clone()),
            (
                "stages",
                format!("{:?}", self.stages),
                format!("{:?}", other.stages),
            ),
        ];
        fields
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name}: {a} != {b}"))
    }
}

/// The outcome of one engine combination: a fingerprint, or the rendered
/// verification error when the run degraded gracefully (e.g. the
/// obligation-(c) candidate cap on a large shape). Engines must agree on
/// errors exactly as they must agree on fingerprints.
pub type EngineOutcome = std::result::Result<Fingerprint, String>;

/// Verifies `spec` under one engine combination (a relation backend and a
/// worker count), capturing either the schedule-independent fingerprint or
/// the rendered error.
pub fn engine_outcome(
    spec: &TriLevelSpec,
    vc: &VerifyConfig,
    backend: RelChoice,
    workers: usize,
) -> EngineOutcome {
    let _backend = force_rel_backend(backend);
    fingerprint_run(spec, vc, workers)
}

/// One verification at `workers`, rendered as an [`EngineOutcome`].
fn fingerprint_run(spec: &TriLevelSpec, vc: &VerifyConfig, workers: usize) -> EngineOutcome {
    match verify_with_threads(spec, vc, workers) {
        Ok(o) => Ok(Fingerprint::of(&o)),
        Err(e) => Err(e.to_string()),
    }
}

/// The first difference between two engine outcomes, rendered for humans,
/// or `None` when they agree.
#[must_use]
pub fn outcome_difference(a: &EngineOutcome, b: &EngineOutcome) -> Option<String> {
    match (a, b) {
        (Ok(x), Ok(y)) => x.first_difference(y),
        (Err(x), Err(y)) if x == y => None,
        (Err(x), Err(y)) => Some(format!("errors differ: `{x}` != `{y}`")),
        (Ok(_), Err(e)) => Some(format!("one engine verified, the other errored: `{e}`")),
        (Err(e), Ok(_)) => Some(format!("one engine errored (`{e}`), the other verified")),
    }
}

/// One engine-pair disagreement found by [`run_differential`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which engine axis disagreed with the baseline (e.g.
    /// `backend:sparse/1`).
    pub axis: String,
    /// The first differing fingerprint field, rendered for humans.
    pub detail: String,
}

/// The full differential report for one seed.
#[derive(Debug)]
pub struct DifferentialReport {
    /// The generating seed.
    pub seed: u64,
    /// Baseline outcome (auto backend, 1 worker).
    pub baseline: EngineOutcome,
    /// All engine-pair disagreements (empty on a sound engine).
    pub divergences: Vec<Divergence>,
}

/// One engine combination of the differential grid:
/// `(label, backend, workers)`.
pub type EngineCombo = (String, RelChoice, usize);

/// The engine combinations every domain is verified under, beyond the
/// baseline: each pinned backend at one worker, and the auto backend at
/// 2/4/8 workers.
#[must_use]
pub fn engine_combos() -> Vec<EngineCombo> {
    let auto = RelChoice::AutoAt(REL_DENSE_MAX_DIM);
    let mut combos = vec![
        ("backend:dense/1".into(), RelChoice::Dense, 1),
        ("backend:sparse/1".into(), RelChoice::Sparse, 1),
        ("backend:compressed/1".into(), RelChoice::Compressed, 1),
    ];
    for workers in [2usize, 4, 8] {
        combos.push((format!("workers:{workers}"), auto, workers));
    }
    combos
}

/// Checks that a budget-capped run is a *prefix* of the uncapped one: same
/// stage names in the same order, and every stage that ran to completion
/// before the first exhaustion must match the uncapped stage record.
fn prefix_violation(capped: &Fingerprint, full: &Fingerprint) -> Option<String> {
    let capped_names: Vec<&str> = capped.stages.iter().map(|(n, _)| *n).collect();
    let full_names: Vec<&str> = full.stages.iter().map(|(n, _)| *n).collect();
    if capped_names != full_names {
        return Some(format!(
            "stage lists differ: {capped_names:?} != {full_names:?}"
        ));
    }
    let first_trip = capped
        .stages
        .iter()
        .position(|(_, e)| e.is_some())
        .unwrap_or(capped.stages.len());
    for (i, ((name, capped_e), (_, full_e))) in
        capped.stages.iter().zip(&full.stages).enumerate()
    {
        if i < first_trip && capped_e != full_e {
            return Some(format!(
                "pre-exhaustion stage `{name}` differs: {capped_e:?} != {full_e:?}"
            ));
        }
    }
    if first_trip == capped.stages.len() && capped != full {
        // No stage tripped, so the capped run must be the full run.
        return capped.first_difference(full);
    }
    None
}

/// Generates the domain for `seed` and verifies it under every engine
/// combination, recording every fingerprint disagreement with the baseline
/// (auto backend, single worker).
///
/// Also runs the budget-capped axis: a node-capped run under two distinct
/// backends must agree with each other, and must be a stage-prefix of the
/// uncapped baseline.
///
/// # Errors
/// Propagates domain-generation errors (a generator bug — generated
/// domains are well-formed by construction). Verification errors do *not*
/// abort the sweep: they are rendered into the per-engine outcome, which
/// every engine must agree on.
pub fn run_differential(seed: u64, cfg: &FuzzConfig) -> Result<DifferentialReport> {
    let spec = build_domain(seed, cfg)?;
    let vc = cfg.verify_config();
    let auto = RelChoice::AutoAt(REL_DENSE_MAX_DIM);
    let _cap = force_worker_cap(usize::MAX);

    let baseline = engine_outcome(&spec, &vc, auto, 1);
    let mut divergences = Vec::new();
    for (axis, backend, workers) in engine_combos() {
        let outcome = engine_outcome(&spec, &vc, backend, workers);
        if let Some(detail) = outcome_difference(&baseline, &outcome) {
            divergences.push(Divergence { axis, detail });
        }
    }

    // Budget-capped partial runs: deterministic across engines, and a
    // prefix of the uncapped outcome.
    let mut capped_vc = vc;
    capped_vc.max_nodes = Some(CAPPED_NODES);
    let capped_dense = engine_outcome(&spec, &capped_vc, RelChoice::Dense, 1);
    let capped_sparse = engine_outcome(&spec, &capped_vc, RelChoice::Sparse, 2);
    if let Some(detail) = outcome_difference(&capped_dense, &capped_sparse) {
        divergences.push(Divergence {
            axis: CAPPED_AXIS.into(),
            detail,
        });
    }
    if let (Ok(capped), Ok(full)) = (&capped_dense, &baseline) {
        if let Some(detail) = prefix_violation(capped, full) {
            divergences.push(Divergence {
                axis: "capped:prefix-of-uncapped".into(),
                detail,
            });
        }
    }

    #[cfg(feature = "legacy-rewrite")]
    divergences.extend(legacy_divergences(&spec)?);

    Ok(DifferentialReport {
        seed,
        baseline,
        divergences,
    })
}

/// Compares the interned rewriter against the legacy structural rewriter on
/// every ground query over short traces of the generated domain.
#[cfg(feature = "legacy-rewrite")]
fn legacy_divergences(spec: &TriLevelSpec) -> Result<Vec<Divergence>> {
    use eclectic_algebraic::{LegacyRewriter, Rewriter};

    let alg = spec.functions.signature();
    let initiate = alg
        .updates()
        .find(|&u| matches!(alg.update_takes_state(u), Ok(false)))
        .ok_or_else(|| SpecError::Incomplete("generated domain lacks initiate".into()))?;
    // Ground traces: the initial state plus one application of each update
    // with first-constant arguments.
    let mut states = vec![Term::constant(initiate)];
    for u in alg.updates() {
        if !alg.update_takes_state(u).map_err(SpecError::Alg)? {
            continue;
        }
        let mut args = Vec::new();
        for s in alg.update_params(u).map_err(SpecError::Alg)? {
            let consts = alg.param_names(s);
            args.push(Term::constant(consts[0]));
        }
        args.push(states[0].clone());
        states.push(Term::App(u, args));
    }

    let mut rw = Rewriter::new(&spec.functions);
    let mut legacy = LegacyRewriter::new(&spec.functions);
    let mut out = Vec::new();
    for q in alg.queries() {
        let qname = alg.logic().func(q).name.clone();
        for st in &states {
            let mut args = Vec::new();
            for s in alg.query_params(q).map_err(SpecError::Alg)? {
                let consts = alg.param_names(s);
                args.push(Term::constant(consts[0]));
            }
            args.push(st.clone());
            let t = Term::App(q, args);
            let a = rw.eval_bool(&t).map_err(SpecError::Alg)?;
            let b = legacy.eval_bool(&t).map_err(SpecError::Alg)?;
            if a != b {
                out.push(Divergence {
                    axis: format!("rewriter:legacy/{qname}"),
                    detail: format!("interned={a} legacy={b} on {t:?}"),
                });
            }
        }
    }
    Ok(out)
}

/// Greedily shrinks a divergent `(seed, cfg)` to a minimal configuration
/// that still diverges: each shape knob and the exploration depth is
/// decremented towards 1 as long as [`run_differential`] keeps reporting a
/// divergence. Generation failures during shrinking are treated as
/// "still interesting is false" (the candidate is rejected).
#[must_use]
pub fn shrink(seed: u64, cfg: &FuzzConfig) -> FuzzConfig {
    let diverges = |c: &FuzzConfig| {
        run_differential(seed, c)
            .map(|r| !r.divergences.is_empty())
            .unwrap_or(false)
    };
    let mut best = *cfg;
    loop {
        let mut improved = false;
        let mut candidates: Vec<FuzzConfig> = Vec::new();
        for i in 0..6 {
            let mut c = best;
            match i {
                0 if c.shape.sorts > 1 => c.shape.sorts -= 1,
                1 if c.shape.elems_per_sort > 1 => c.shape.elems_per_sort -= 1,
                2 if c.shape.queries > 1 => c.shape.queries -= 1,
                3 if c.shape.updates > 1 => c.shape.updates -= 1,
                4 if c.shape.max_arity > 1 => c.shape.max_arity -= 1,
                5 if c.explore_depth > 1 => c.explore_depth -= 1,
                _ => continue,
            }
            candidates.push(c);
        }
        for c in candidates {
            if diverges(&c) {
                best = c;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Renders a `(seed, cfg)` pair as a corpus fixture in the subset of TOML
/// the replay tests parse: one `key = integer` per line.
#[must_use]
pub fn fixture_toml(seed: u64, cfg: &FuzzConfig) -> String {
    format!(
        "# Differential-fuzzing corpus fixture: regenerate the domain with\n\
         # eclectic_spec::fuzz::build_domain and re-verify under every engine.\n\
         seed = {seed}\n\
         sorts = {}\n\
         elems_per_sort = {}\n\
         queries = {}\n\
         updates = {}\n\
         max_arity = {}\n\
         explore_depth = {}\n",
        cfg.shape.sorts,
        cfg.shape.elems_per_sort,
        cfg.shape.queries,
        cfg.shape.updates,
        cfg.shape.max_arity,
        cfg.explore_depth,
    )
}

/// Parses a corpus fixture written by [`fixture_toml`].
///
/// # Errors
/// Returns [`SpecError::Incomplete`] on unknown keys, malformed lines or a
/// missing `seed`.
pub fn parse_fixture(text: &str) -> Result<(u64, FuzzConfig)> {
    let mut seed: Option<u64> = None;
    let mut cfg = FuzzConfig::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            SpecError::Incomplete(format!("fixture line {}: expected `key = value`", lineno + 1))
        })?;
        let key = key.trim();
        let value: u64 = value.trim().parse().map_err(|_| {
            SpecError::Incomplete(format!("fixture line {}: `{key}` is not an integer", lineno + 1))
        })?;
        let n = value as usize;
        match key {
            "seed" => seed = Some(value),
            "sorts" => cfg.shape.sorts = n,
            "elems_per_sort" => cfg.shape.elems_per_sort = n,
            "queries" => cfg.shape.queries = n,
            "updates" => cfg.shape.updates = n,
            "max_arity" => cfg.shape.max_arity = n,
            "explore_depth" => cfg.explore_depth = n,
            other => {
                return Err(SpecError::Incomplete(format!(
                    "fixture line {}: unknown key `{other}`",
                    lineno + 1
                )))
            }
        }
    }
    let seed =
        seed.ok_or_else(|| SpecError::Incomplete("fixture is missing `seed`".into()))?;
    Ok((seed, cfg))
}

/// Parses the `ECLECTIC_FUZZ_SEEDS` environment variable (a decimal count),
/// falling back to `default` when unset or malformed.
#[must_use]
pub fn env_fuzz_seeds(default: usize) -> usize {
    parse_fuzz_seeds(std::env::var("ECLECTIC_FUZZ_SEEDS").ok().as_deref(), default)
}

/// Pure parsing behind [`env_fuzz_seeds`], exposed for tests.
#[must_use]
pub fn parse_fuzz_seeds(value: Option<&str>, default: usize) -> usize {
    match value {
        Some(s) => s.trim().parse().ok().filter(|&n| n > 0).unwrap_or(default),
        None => default,
    }
}

/// Outcome of a corpus sweep: per-seed divergences, already shrunk.
#[derive(Debug, Default)]
pub struct CorpusOutcome {
    /// Number of domains generated and verified.
    pub domains: usize,
    /// Shrunk divergent cases as `(original seed, shrunk config, axes)`.
    pub failures: Vec<(u64, FuzzConfig, Vec<Divergence>)>,
    /// Generation errors as `(seed, message)` — a generator bug if ever
    /// non-empty.
    pub generator_errors: Vec<(u64, String)>,
}

/// Sweeps seeds `0..count` (offset by `base`), running the full
/// differential battery on each and shrinking any divergence found.
///
/// The sweep runs `ECLECTIC_THREADS` seeds at a time, capped at the host's
/// parallelism, with the engine combinations *outer* and the seeds
/// *inner*: the force-guard that pins a backend is process-global, so each
/// combination is pinned once and every seed's verification runs
/// concurrently under it.
/// Fingerprints are thread-invariant by construction, so the outcome is
/// identical to the serial per-seed [`run_differential`] loop — results
/// land in seed order and any shrinking happens serially afterwards.
#[must_use]
pub fn run_corpus(base: u64, count: usize, cfg: &FuzzConfig) -> CorpusOutcome {
    let mut out = CorpusOutcome::default();
    // Capped here, before any guard lifts the cap: every seed's verify
    // below runs its own task list, so the threads multiply.
    let threads = effective_workers(env_threads());

    // Generate every domain first — pure and guard-free, so seeds fan out
    // directly.
    type Built = std::result::Result<TriLevelSpec, String>;
    let built: Vec<Built> = {
        let tasks: Vec<Box<dyn FnOnce() -> Built + Send + '_>> = (0..count)
            .map(|i| {
                let seed = base + i as u64;
                Box::new(move || build_domain(seed, cfg).map_err(|e| e.to_string()))
                    as Box<dyn FnOnce() -> Built + Send + '_>
            })
            .collect();
        run_tasks(threads, tasks)
    };
    let mut specs: Vec<(u64, TriLevelSpec)> = Vec::new();
    for (i, b) in built.into_iter().enumerate() {
        let seed = base + i as u64;
        match b {
            Ok(spec) => {
                out.domains += 1;
                specs.push((seed, spec));
            }
            Err(e) => out.generator_errors.push((seed, e)),
        }
    }

    // One engine arm across every seed, under one set of force guards.
    let vc = cfg.verify_config();
    let sweep = |backend: RelChoice, workers: usize, vc: &VerifyConfig| -> Vec<EngineOutcome> {
        let _cap = force_worker_cap(usize::MAX);
        let _backend = force_rel_backend(backend);
        let tasks: Vec<Box<dyn FnOnce() -> EngineOutcome + Send + '_>> = specs
            .iter()
            .map(|(_, spec)| {
                Box::new(move || fingerprint_run(spec, vc, workers))
                    as Box<dyn FnOnce() -> EngineOutcome + Send + '_>
            })
            .collect();
        run_tasks(threads, tasks)
    };

    let auto = RelChoice::AutoAt(REL_DENSE_MAX_DIM);
    let baseline = sweep(auto, 1, &vc);
    let mut per_seed: Vec<Vec<Divergence>> = vec![Vec::new(); specs.len()];
    for (axis, backend, workers) in engine_combos() {
        let outcomes = sweep(backend, workers, &vc);
        for (j, outcome) in outcomes.iter().enumerate() {
            if let Some(detail) = outcome_difference(&baseline[j], outcome) {
                per_seed[j].push(Divergence {
                    axis: axis.clone(),
                    detail,
                });
            }
        }
    }

    // Budget-capped partial runs: deterministic across engines, and a
    // prefix of the uncapped outcome.
    let mut capped_vc = vc;
    capped_vc.max_nodes = Some(CAPPED_NODES);
    let capped_dense = sweep(RelChoice::Dense, 1, &capped_vc);
    let capped_sparse = sweep(RelChoice::Sparse, 2, &capped_vc);
    for j in 0..specs.len() {
        if let Some(detail) = outcome_difference(&capped_dense[j], &capped_sparse[j]) {
            per_seed[j].push(Divergence {
                axis: CAPPED_AXIS.into(),
                detail,
            });
        }
        if let (Ok(capped), Ok(full)) = (&capped_dense[j], &baseline[j]) {
            if let Some(detail) = prefix_violation(capped, full) {
                per_seed[j].push(Divergence {
                    axis: "capped:prefix-of-uncapped".into(),
                    detail,
                });
            }
        }
    }

    #[cfg(feature = "legacy-rewrite")]
    for (j, (seed, spec)) in specs.iter().enumerate() {
        match legacy_divergences(spec) {
            Ok(divs) => per_seed[j].extend(divs),
            Err(e) => out.generator_errors.push((*seed, e.to_string())),
        }
    }

    // Shrink serially, in seed order, exactly as the serial sweep did.
    for ((seed, _), divergences) in specs.iter().zip(per_seed) {
        if divergences.is_empty() {
            continue;
        }
        let shrunk = shrink(*seed, cfg);
        let final_divs = run_differential(*seed, &shrunk)
            .map(|r| r.divergences)
            .unwrap_or(divergences);
        out.failures.push((*seed, shrunk, final_divs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_domain_is_deterministic_and_varies_with_seed() {
        let cfg = FuzzConfig::default();
        let a = build_domain(7, &cfg).unwrap();
        let b = build_domain(7, &cfg).unwrap();
        assert_eq!(a.name, b.name);
        assert_eq!(
            format!("{:?}", a.functions.equations()),
            format!("{:?}", b.functions.equations())
        );
        let c = build_domain(8, &cfg).unwrap();
        assert_ne!(
            format!("{:?}", a.functions.equations()),
            format!("{:?}", c.functions.equations())
        );
    }

    #[test]
    fn generated_domains_verify_sound() {
        // Every obligation except (c) holds by construction; (c) may fail
        // (tautological axioms validate more states than random updates
        // reach) but must do so deterministically.
        let cfg = FuzzConfig::default();
        for seed in [0u64, 1, 2] {
            let spec = build_domain(seed, &cfg).unwrap();
            let outcome = verify_with_threads(&spec, &cfg.verify_config(), 1).unwrap();
            assert!(outcome.grammar_ok, "seed {seed}: {:?}", outcome.grammar_error);
            let r12 = &outcome.report.refine12;
            assert!(r12.is_correct(), "seed {seed}: {}", outcome.report);
            assert!(outcome.report.equations.is_correct(), "seed {seed}");
            assert!(outcome.dynamic.is_correct(), "seed {seed}");
            assert!(outcome.cross_mismatch.is_none(), "seed {seed}");
        }
    }

    #[test]
    fn fixture_roundtrip() {
        let mut cfg = FuzzConfig::default();
        cfg.shape.queries = 3;
        cfg.explore_depth = 2;
        let text = fixture_toml(9001, &cfg);
        let (seed, parsed) = parse_fixture(&text).unwrap();
        assert_eq!(seed, 9001);
        assert_eq!(parsed, cfg);
        assert!(parse_fixture("nonsense\n").is_err());
        assert!(parse_fixture("sorts = 2\n").is_err(), "seed is required");
        assert!(parse_fixture("seed = 1\nbogus = 2\n").is_err());
    }

    #[test]
    fn fuzz_seed_env_parsing() {
        assert_eq!(parse_fuzz_seeds(None, 500), 500);
        assert_eq!(parse_fuzz_seeds(Some("32"), 500), 32);
        assert_eq!(parse_fuzz_seeds(Some("  8 "), 500), 8);
        assert_eq!(parse_fuzz_seeds(Some("0"), 500), 500);
        assert_eq!(parse_fuzz_seeds(Some("banana"), 500), 500);
    }
}
