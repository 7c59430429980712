//! Serial-vs-parallel verification-sweep bench: times the three verification
//! hot paths — confluence ground resolution, exhaustive sufficient-
//! completeness and the dynamic-logic (PDL) obligations — across the three
//! packaged domains and writes `BENCH_verify.json`.
//!
//! Run with: `cargo run -p eclectic-bench --bin bench_verify_parallel --release`
//!
//! Three quantities are recorded:
//!
//! * the **pre-refactor serial baseline** — the sweeps as they stood before
//!   this refactor, reproduced here against the public API: per-overlap
//!   re-enumeration of the ground state space and a fresh rewriter per
//!   resolution call, per-(state, query) parameter-tuple re-enumeration in
//!   the completeness loop, and per-contract *uncached* program denotation
//!   in the dynamic obligations (totality and functionality each recompute
//!   `m(body)` from scratch);
//! * the **new engine at 1/2/4/8 threads**: the serial confluence
//!   tie-break over one [`GroundSpace`](induction::GroundSpace) enumeration
//!   per spec+depth, the completeness sweep's strided parallel workers, and
//!   the batched PDL checker with one denotation cache per procedure, fanned
//!   out per procedure;
//! * a **bit-identity check**: every thread count must reproduce the serial
//!   overlap reports, ground resolutions, completeness reports and dynamic
//!   verdicts exactly.
//!
//! The pass gate compares the 4-thread engine against the pre-refactor
//! baseline (threshold 1.5×). The JSON records `available_cores` so flat
//! rows on starved containers are attributable, plus the rewrite-memo
//! hit/miss counters from [`Rewriter::stats`] for an untimed serial sweep.

use eclectic_algebraic::{
    completeness, confluence, induction, match_term, term_str, AlgError, AlgSpec,
    ConditionalEquation, RewriteStats, Rewriter,
};
use eclectic_bench::{Runner, SpeedupGate};
use eclectic_kernel::Budget;
use eclectic_logic::{Elem, Formula, Subst, Term, Valuation};
use eclectic_refine::{check_dynamic_budget, DynamicFailure};
use eclectic_rpr::{denote, FiniteUniverse, RprError};
use eclectic_spec::domains::{bank, courses, library};
use eclectic_spec::TriLevelSpec;

/// Ground-term depth shared by the confluence tie-break and the
/// completeness sweep (one `GroundSpace` enumeration per domain).
const GROUND_DEPTH: usize = 3;
/// State cap for the dynamic-logic obligations; admits the bank
/// representation universe (4096 states).
const PDL_CAP: usize = 8_192;
/// Failure cap for the completeness sweep (never reached on these domains).
const MAX_FAILURES: usize = 1_000;

/// Everything the verification sweep decides, for bit-identity comparison
/// across thread counts. Cache counters are intentionally absent: they are
/// per-worker sums and legitimately vary with the worker count.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    overlaps: Vec<confluence::Overlap>,
    resolutions: Vec<(usize, Option<String>)>,
    completeness: completeness::CompletenessReport,
    dynamic_failures: Vec<DynamicFailure>,
    dynamic_checked: usize,
    dynamic_skipped: Option<String>,
}

/// The new engine: serial confluence over one ground enumeration, the
/// strided parallel completeness sweep, batched PDL checking with one
/// denotation cache per procedure.
fn verify_new_engine(spec: &TriLevelSpec, threads: usize) -> Fingerprint {
    let alg = &spec.functions;
    let unlimited = Budget::unlimited();
    let overlaps = confluence::critical_overlaps(alg).unwrap();
    let space = induction::GroundSpace::new(alg.signature(), GROUND_DEPTH).unwrap();
    let pairs: Vec<(&ConditionalEquation, &ConditionalEquation)> = overlaps
        .iter()
        .map(|o| {
            (
                alg.equation(&o.first).unwrap(),
                alg.equation(&o.second).unwrap(),
            )
        })
        .collect();
    let (resolutions, _) = confluence::resolve_overlaps(alg, &space, &pairs, &unlimited).unwrap();
    let completeness =
        completeness::exhaustive_budget(alg, GROUND_DEPTH, MAX_FAILURES, &unlimited, threads)
            .unwrap();
    let dynamic = check_dynamic_budget(
        &spec.representation,
        &spec.empty_state(),
        PDL_CAP,
        &unlimited,
        threads,
    )
    .unwrap();
    Fingerprint {
        overlaps,
        resolutions,
        completeness,
        dynamic_failures: dynamic.failures,
        dynamic_checked: dynamic.checked,
        dynamic_skipped: dynamic.skipped,
    }
}

/// Coarse volume counters for the baseline (the pre-refactor code rendered
/// overlap reports against a shared mutated signature, so its strings are
/// not byte-comparable to the order-independent per-pair renderings; the
/// decision-relevant numbers are).
#[derive(Debug, PartialEq)]
struct Coarse {
    overlap_count: usize,
    both_fired: usize,
    disagreements: usize,
    evaluated: usize,
    stuck: usize,
    dynamic_checked: usize,
    dynamic_failures: usize,
}

impl Coarse {
    fn of(fp: &Fingerprint) -> Coarse {
        Coarse {
            overlap_count: fp.overlaps.len(),
            both_fired: fp.resolutions.iter().map(|(n, _)| n).sum(),
            disagreements: fp.resolutions.iter().filter(|(_, d)| d.is_some()).count(),
            evaluated: fp.completeness.evaluated,
            stuck: fp.completeness.stuck.len(),
            dynamic_checked: fp.dynamic_checked,
            dynamic_failures: fp.dynamic_failures.len(),
        }
    }
}

/// The verification sweep as it stood before this refactor: serial
/// throughout, no shared ground enumeration, no denotation cache.
fn verify_pre_refactor(spec: &TriLevelSpec) -> Coarse {
    let alg = &spec.functions;
    let overlaps = confluence::critical_overlaps(alg).unwrap();
    let mut both_fired = 0usize;
    let mut disagreements = 0usize;
    for o in &overlaps {
        let e1 = alg.equation(&o.first).unwrap();
        let e2 = alg.equation(&o.second).unwrap();
        let (n, d) = baseline_resolve(alg, e1, e2, GROUND_DEPTH);
        both_fired += n;
        disagreements += usize::from(d.is_some());
    }
    let (evaluated, stuck) = baseline_completeness(alg, GROUND_DEPTH);
    let (dynamic_checked, dynamic_failures) = baseline_dynamic(spec);
    Coarse {
        overlap_count: overlaps.len(),
        both_fired,
        disagreements,
        evaluated,
        stuck,
        dynamic_checked,
        dynamic_failures,
    }
}

/// Pre-refactor single-pair resolution: a fresh rewriter per call and
/// per-call re-enumeration of state terms and parameter tuples.
fn baseline_resolve(
    spec: &AlgSpec,
    e1: &ConditionalEquation,
    e2: &ConditionalEquation,
    max_steps: usize,
) -> (usize, Option<String>) {
    let sig = spec.signature().clone();
    let mut rw = Rewriter::new(spec);
    let Some(root) = e1.lhs_root() else {
        return (0, None);
    };
    if e2.lhs_root() != Some(root) {
        return (0, None);
    }
    let qsorts = sig.query_params(root).unwrap();
    let mut both_fired = 0usize;
    for st in induction::state_terms(&sig, max_steps).unwrap() {
        for params in induction::param_tuples(&sig, &qsorts).unwrap() {
            let mut args = params.clone();
            args.push(st.clone());
            let subject = Term::App(root, args);
            let r1 = baseline_try_rule(&mut rw, e1, &subject);
            let r2 = baseline_try_rule(&mut rw, e2, &subject);
            if let (Some(v1), Some(v2)) = (r1, r2) {
                both_fired += 1;
                if v1 != v2 {
                    return (
                        both_fired,
                        Some(format!(
                            "{} vs {} at {}",
                            term_str(&sig, &v1),
                            term_str(&sig, &v2),
                            term_str(&sig, &subject)
                        )),
                    );
                }
            }
        }
    }
    (both_fired, None)
}

fn baseline_try_rule(
    rw: &mut Rewriter<'_>,
    eq: &ConditionalEquation,
    subject: &Term,
) -> Option<Term> {
    let mut binding = Subst::new();
    if !match_term(&eq.lhs, subject, &mut binding) {
        return None;
    }
    let cond = binding
        .apply_formula_no_rename(rw.spec().signature().logic(), &eq.condition)
        .unwrap();
    if !baseline_ground_condition(rw, &cond) {
        return None;
    }
    Some(rw.normalize(&binding.apply_term(&eq.rhs)).unwrap())
}

fn baseline_ground_condition(rw: &mut Rewriter<'_>, cond: &Formula) -> bool {
    match cond {
        Formula::True => true,
        Formula::False => false,
        Formula::Not(p) => !baseline_ground_condition(rw, p),
        Formula::And(p, q) => baseline_ground_condition(rw, p) && baseline_ground_condition(rw, q),
        Formula::Or(p, q) => baseline_ground_condition(rw, p) || baseline_ground_condition(rw, q),
        Formula::Implies(p, q) => {
            !baseline_ground_condition(rw, p) || baseline_ground_condition(rw, q)
        }
        Formula::Iff(p, q) => baseline_ground_condition(rw, p) == baseline_ground_condition(rw, q),
        Formula::Eq(a, b) => rw.normalize(a).unwrap() == rw.normalize(b).unwrap(),
        Formula::Exists(x, p) | Formula::Forall(x, p) => {
            let universal = matches!(cond, Formula::Forall(..));
            let sig = rw.spec().signature().clone();
            let sort = sig.logic().var(*x).sort;
            for k in sig.param_names(sort) {
                let inst = Subst::single(*x, Term::constant(k))
                    .apply_formula_no_rename(sig.logic(), p)
                    .unwrap();
                let holds = baseline_ground_condition(rw, &inst);
                if universal && !holds {
                    return false;
                }
                if !universal && holds {
                    return true;
                }
            }
            universal
        }
        Formula::Pred(..) | Formula::Possibly(..) | Formula::Necessarily(..) => false,
    }
}

/// Pre-refactor completeness sweep: parameter tuples re-enumerated
/// per (state, query) pair.
fn baseline_completeness(spec: &AlgSpec, max_steps: usize) -> (usize, usize) {
    let sig = spec.signature().clone();
    let mut rw = Rewriter::new(spec);
    let mut evaluated = 0usize;
    let mut stuck = 0usize;
    for st in induction::state_terms(&sig, max_steps).unwrap() {
        for q in sig.queries() {
            for params in induction::param_tuples(&sig, &sig.query_params(q).unwrap()).unwrap() {
                evaluated += 1;
                let mut args = params.clone();
                args.push(st.clone());
                match rw.normalize(&Term::App(q, args)) {
                    Ok(n) if sig.is_param_name(&n) => {}
                    Ok(_) | Err(AlgError::RewriteLimit { .. }) => stuck += 1,
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }
    (evaluated, stuck)
}

/// Pre-refactor dynamic obligations: totality and functionality each
/// recompute the procedure body's denotation from scratch (per-formula
/// model checking with no denotation cache).
fn baseline_dynamic(spec: &TriLevelSpec) -> (usize, usize) {
    let schema = &spec.representation;
    let u = match FiniteUniverse::enumerate(
        &spec.empty_state(),
        schema.relations(),
        &[],
        PDL_CAP,
    ) {
        Ok(u) => u,
        Err(RprError::UniverseTooLarge { .. }) => return (0, 0),
        Err(e) => panic!("{e}"),
    };
    let sig = u.signature().clone();
    let domains = u.domains().clone();
    let mut checked = 0usize;
    let mut failures = 0usize;
    for proc in schema.procs() {
        if !proc.body.is_loop_and_choice_free() {
            continue;
        }
        let mut tuples: Vec<Vec<Elem>> = vec![Vec::new()];
        for &p in &proc.params {
            let elems: Vec<Elem> = domains.elems(sig.var(p).sort).collect();
            let mut next = Vec::new();
            for prefix in &tuples {
                for &e in &elems {
                    let mut t = prefix.clone();
                    t.push(e);
                    next.push(t);
                }
            }
            tuples = next;
        }
        for args in tuples {
            let mut env = Valuation::new();
            for (&p, &v) in proc.params.iter().zip(&args) {
                env.set(p, v);
            }
            checked += 1;
            // Two independent formula checks, two full denotations.
            let total = denote::meaning(&u, &proc.body, &env).unwrap();
            failures += usize::from(!total.is_total(u.len()));
            let functional = denote::meaning(&u, &proc.body, &env).unwrap();
            failures += usize::from(!functional.is_functional());
        }
    }
    (checked, failures)
}

/// Untimed instrumented serial sweep: normalises every ground query
/// application at the bench depth and reads the memo counters off
/// [`Rewriter::stats`].
fn rewrite_memo_stats(spec: &AlgSpec) -> RewriteStats {
    let sig = spec.signature().clone();
    let mut rw = Rewriter::new(spec);
    for st in induction::state_terms(&sig, GROUND_DEPTH).unwrap() {
        for q in sig.queries() {
            for params in induction::param_tuples(&sig, &sig.query_params(q).unwrap()).unwrap() {
                let mut args = params.clone();
                args.push(st.clone());
                let _ = rw.normalize(&Term::App(q, args)).unwrap();
            }
        }
    }
    rw.stats()
}

fn main() {
    let specs: Vec<(&str, TriLevelSpec)> = vec![
        (
            "courses",
            courses::courses(&courses::CoursesConfig::default()).unwrap(),
        ),
        (
            "library",
            library::library(&library::LibraryConfig::default()).unwrap(),
        ),
        ("bank", bank::bank(&bank::BankConfig::default()).unwrap()),
    ];
    let workload = format!(
        "courses+library+bank verify sweep, ground depth {GROUND_DEPTH}, pdl cap {PDL_CAP}"
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Bit-identity across thread counts, checked before timing.
    let serial: Vec<Fingerprint> = specs.iter().map(|(_, s)| verify_new_engine(s, 1)).collect();
    let mut matches = true;
    for threads in [2, 4, 8] {
        for ((name, spec), fp1) in specs.iter().zip(&serial) {
            let fp = verify_new_engine(spec, threads);
            if &fp != fp1 {
                eprintln!("MISMATCH: {name} at {threads} threads");
                matches = false;
            }
        }
    }
    // The baseline must agree on every decision-relevant count.
    for ((name, spec), fp1) in specs.iter().zip(&serial) {
        let base = verify_pre_refactor(spec);
        let new = Coarse::of(fp1);
        assert_eq!(base, new, "{name}: baseline disagrees with new engine");
    }
    println!("{workload}: parallel matches serial: {matches}");

    // Rewrite-memo counters from an untimed instrumented serial sweep.
    let mut memo = RewriteStats::default();
    for (_, spec) in &specs {
        let s = rewrite_memo_stats(&spec.functions);
        memo.steps += s.steps;
        memo.cache_hits += s.cache_hits;
        memo.cache_misses += s.cache_misses;
        memo.conditions += s.conditions;
    }

    let mut r = Runner::new("verify_parallel").sample_size(5).warmup(1);
    let baseline = r
        .bench("verify/pre_refactor_serial", || {
            specs
                .iter()
                .map(|(_, s)| verify_pre_refactor(s).dynamic_checked)
                .sum::<usize>()
        })
        .median_ns;

    let mut rows: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let m = r
            .bench(format!("verify/threads_{threads}"), || {
                specs
                    .iter()
                    .map(|(_, s)| verify_new_engine(s, threads).dynamic_checked)
                    .sum::<usize>()
            })
            .median_ns;
        rows.push((threads, m));
    }
    r.finish();

    let threshold = 1.5f64;
    let at4 = rows
        .iter()
        .find(|(t, _)| *t == 4)
        .map(|&(_, ns)| baseline / ns)
        .unwrap_or(0.0);
    let gate = SpeedupGate::new(4, threshold, at4);
    let pass = gate.pass() && matches;

    let mut json = String::from("{\n  \"bench\": \"verify_parallel\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"baseline\": \"pre_refactor_serial\",\n  \"baseline_median_ns\": {baseline:.0},\n"
    ));
    json.push_str(&format!(
        "  \"rewrite_memo\": {{\"steps\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"conditions\": {}}},\n",
        memo.steps, memo.cache_hits, memo.cache_misses, memo.conditions
    ));
    json.push_str("  \"rows\": [\n");
    for (i, (threads, ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"median_ns\": {ns:.0}, \"speedup_vs_baseline\": {:.3}}}{}\n",
            baseline / ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"speedup_at_4_threads\": {at4:.3},\n  \"threshold\": {threshold},\n  \"speedup_gate\": {},\n  \"parallel_matches_serial\": {matches},\n  \"pass\": {pass}\n}}\n",
        gate.json()
    ));
    std::fs::write("BENCH_verify.json", &json).expect("write BENCH_verify.json");
    println!(
        "\nBENCH_verify.json written (4-thread speedup {at4:.2}x vs pre-refactor serial, threshold {threshold}x, identical: {matches})"
    );
    assert!(
        matches,
        "parallel verification sweeps must be bit-identical to serial"
    );
    gate.check("BENCH_verify 4-thread speedup");
}
