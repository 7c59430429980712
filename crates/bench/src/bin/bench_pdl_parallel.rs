//! Old-vs-new relation-kernel bench for the PDL/dynamic-logic verification
//! path: times batched PDL model checking plus the `check_dynamic_budget`
//! obligations across the three packaged domains and writes
//! `BENCH_pdl.json`.
//!
//! Run with: `cargo run -p eclectic-bench --bin bench_pdl_parallel --release`
//!
//! Three quantities are recorded:
//!
//! * the **old-kernel serial baseline** — `BinRel` as it stood before this
//!   refactor, reproduced here as a `BTreeSet<(usize, usize)>` relation
//!   with the per-call `BTreeMap` compose index and per-source `BTreeSet`
//!   BFS star, driving the same batched checks (atomic statement
//!   denotations go through the public `denote::meaning` and are converted
//!   once — they enumerate states identically under either kernel — while
//!   every composite operator, guard-test pair and modality sweep runs on
//!   the old representation, including the old engine's separate
//!   denotation of each negated guard);
//! * the **new bitset engine at 1/2/4/8 threads**: dense row-major bit
//!   matrices with word-parallel union/compose/star, row-strided workers,
//!   complement-mask negated guards and the shared denotation cache;
//! * **bit-identity checks**: every thread count must reproduce the serial
//!   `BatchReport` verdicts and `DynamicReport` exactly, also under a
//!   node-cap budget partial; the full `verify` pipeline's
//!   `VerificationOutcome` must agree at 1/2/4/8 threads both unbudgeted
//!   and under a node cap; and the old-kernel baseline must produce the
//!   same satisfying sets and verdicts bit for bit.
//!
//! The pass gate compares the 4-thread engine against the old-kernel
//! serial baseline (threshold 1.5×). `available_cores` is recorded so flat
//! rows on starved containers are attributable.

use std::collections::{BTreeMap, BTreeSet};

use eclectic_bench::{Runner, SpeedupGate};
use eclectic_kernel::Budget;
use eclectic_logic::{Elem, Formula, Valuation};
use eclectic_refine::check_dynamic_budget;
use eclectic_rpr::{
    check_batch_budget_with, denote, BatchReport, DenoteCache, FiniteUniverse, Pdl, RprError,
    Schema, Stmt,
};
use eclectic_spec::domains::{bank, courses, library};
use eclectic_spec::{verify, TriLevelSpec, VerifyConfig};

/// State cap for the representation universes. The bank domain is scaled
/// to 2 accounts x 3 amounts (a 1024-state universe): at the default
/// 4096-state size the workload is dominated by representation-independent
/// per-state successor enumeration, which is identical under either kernel
/// and would only dilute the comparison (see EXPERIMENTS.md).
const PDL_CAP: usize = 8_192;

// ---------------------------------------------------------------------------
// The old kernel, kept verbatim as the baseline: a sorted pair set.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct SetRel {
    pairs: BTreeSet<(usize, usize)>,
}

impl SetRel {
    fn from_new(r: &eclectic_rpr::BinRel) -> SetRel {
        SetRel {
            pairs: r.iter().collect(),
        }
    }

    fn image(&self, a: usize) -> BTreeSet<usize> {
        self.pairs
            .range((a, 0)..=(a, usize::MAX))
            .map(|&(_, b)| b)
            .collect()
    }

    fn union(&self, other: &SetRel) -> SetRel {
        SetRel {
            pairs: self.pairs.union(&other.pairs).copied().collect(),
        }
    }

    fn compose(&self, other: &SetRel) -> SetRel {
        let mut by_src: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(a, b) in &other.pairs {
            by_src.entry(a).or_default().push(b);
        }
        let mut out = SetRel::default();
        for &(a, b) in &self.pairs {
            if let Some(cs) = by_src.get(&b) {
                for &c in cs {
                    out.pairs.insert((a, c));
                }
            }
        }
        out
    }

    fn star(&self, n: usize) -> SetRel {
        let mut succ: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(a, b) in &self.pairs {
            succ.entry(a).or_default().push(b);
        }
        let mut out = SetRel::default();
        for start in 0..n {
            let mut seen = BTreeSet::new();
            let mut stack = vec![start];
            seen.insert(start);
            while let Some(s) = stack.pop() {
                out.pairs.insert((start, s));
                if let Some(ts) = succ.get(&s) {
                    for &t in ts {
                        if seen.insert(t) {
                            stack.push(t);
                        }
                    }
                }
            }
        }
        out
    }

    fn is_functional(&self) -> bool {
        let mut last = None;
        for &(a, _) in &self.pairs {
            if last == Some(a) {
                return false;
            }
            last = Some(a);
        }
        true
    }

    fn is_total(&self, n: usize) -> bool {
        (0..n).all(|a| self.pairs.range((a, 0)..=(a, usize::MAX)).next().is_some())
    }
}

/// Old-kernel statement denotation: atomic statements go through the public
/// `meaning` (the state enumeration is representation-independent) and are
/// converted once; composites — including the old engine's *separate*
/// denotation of every negated guard test — run on the set representation.
fn meaning_set(
    u: &FiniteUniverse,
    stmt: &Stmt,
    env: &Valuation,
    cache: &mut BTreeMap<String, SetRel>,
) -> SetRel {
    let key = format!("{stmt:?}");
    if let Some(r) = cache.get(&key) {
        return r.clone();
    }
    let out = match stmt {
        Stmt::Skip
        | Stmt::Assign(..)
        | Stmt::RelAssign(..)
        | Stmt::Test(_)
        | Stmt::Insert(..)
        | Stmt::Delete(..) => SetRel::from_new(&denote::meaning(u, stmt, env).unwrap()),
        Stmt::Union(p, q) => meaning_set(u, p, env, cache).union(&meaning_set(u, q, env, cache)),
        Stmt::Seq(p, q) => meaning_set(u, p, env, cache).compose(&meaning_set(u, q, env, cache)),
        Stmt::Star(p) => meaning_set(u, p, env, cache).star(u.len()),
        Stmt::IfThen(c, p) => {
            let test = meaning_set(u, &Stmt::Test(c.clone()), env, cache);
            let ntest = meaning_set(u, &Stmt::Test(c.clone().not()), env, cache);
            test.compose(&meaning_set(u, p, env, cache)).union(&ntest)
        }
        Stmt::IfThenElse(c, p, q) => {
            let test = meaning_set(u, &Stmt::Test(c.clone()), env, cache);
            let ntest = meaning_set(u, &Stmt::Test(c.clone().not()), env, cache);
            test.compose(&meaning_set(u, p, env, cache))
                .union(&ntest.compose(&meaning_set(u, q, env, cache)))
        }
        Stmt::While(c, p) => {
            let test = meaning_set(u, &Stmt::Test(c.clone()), env, cache);
            let ntest = meaning_set(u, &Stmt::Test(c.clone().not()), env, cache);
            test.compose(&meaning_set(u, p, env, cache))
                .star(u.len())
                .compose(&ntest)
        }
    };
    cache.insert(key, out.clone());
    out
}

/// Old-kernel PDL satisfaction: modalities scan per-state `image` sets.
fn satisfying_set(
    u: &FiniteUniverse,
    phi: &Pdl,
    env: &Valuation,
    cache: &mut BTreeMap<String, SetRel>,
) -> Vec<bool> {
    let n = u.len();
    match phi {
        Pdl::Atom(_) | Pdl::Not(_) | Pdl::And(..) | Pdl::Or(..) | Pdl::Implies(..) => match phi {
            // Atoms hold no program, so the public evaluator is the old
            // kernel's evaluator too.
            Pdl::Atom(_) => {
                eclectic_rpr::pdl::satisfying_states_cached(u, phi, env, &mut DenoteCache::new())
                    .unwrap()
            }
            Pdl::Not(p) => satisfying_set(u, p, env, cache)
                .into_iter()
                .map(|b| !b)
                .collect(),
            Pdl::And(p, q) => satisfying_set(u, p, env, cache)
                .into_iter()
                .zip(satisfying_set(u, q, env, cache))
                .map(|(a, b)| a && b)
                .collect(),
            Pdl::Or(p, q) => satisfying_set(u, p, env, cache)
                .into_iter()
                .zip(satisfying_set(u, q, env, cache))
                .map(|(a, b)| a || b)
                .collect(),
            Pdl::Implies(p, q) => satisfying_set(u, p, env, cache)
                .into_iter()
                .zip(satisfying_set(u, q, env, cache))
                .map(|(a, b)| !a || b)
                .collect(),
            _ => unreachable!(),
        },
        Pdl::Box(prog, p) => {
            let m = meaning_set(u, prog, env, cache);
            let inner = satisfying_set(u, p, env, cache);
            (0..n)
                .map(|i| m.image(i).into_iter().all(|j| inner[j]))
                .collect()
        }
        Pdl::Diamond(prog, p) => {
            let m = meaning_set(u, prog, env, cache);
            let inner = satisfying_set(u, p, env, cache);
            (0..n)
                .map(|i| m.image(i).into_iter().any(|j| inner[j]))
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Shared workload: one PDL batch per checked procedure application, plus
// the check_dynamic_budget obligations.
// ---------------------------------------------------------------------------

/// The PDL batch for one procedure body: totality/functionality-adjacent
/// modalities plus iteration (`star`) and composition shapes that exercise
/// the relational operators the kernels differ on.
fn formulas_for(body: &Stmt) -> Vec<Pdl> {
    let t = || Pdl::Atom(Formula::True);
    let b = || body.clone();
    let step = || b().union(Stmt::Skip);
    // Distinct programs so each contributes a denotation: seq chains,
    // iterated unions and nested stars over the body. Star results are the
    // densest relations in the pipeline (every reachable pair), so they —
    // and the modal sweeps over them — are where the kernels differ most.
    let mut programs = vec![
        b(),
        b().star(),
        step(),
        step().star(),
        b().seq(b()),
        b().seq(b()).star(),
        step().seq(step()),
        step().seq(step()).star(),
        b().seq(b()).seq(b()),
        b().seq(b()).seq(b()).seq(b()),
        step().seq(step()).seq(step()),
        b().star().seq(b().star()),
        step().star().seq(step().star()),
        b().seq(b()).union(Stmt::Skip).star(),
        b().star().star(),
        step().star().seq(b()),
    ];
    let mut out: Vec<Pdl> = Vec::with_capacity(programs.len() * 2 + 1);
    for p in programs.drain(..) {
        out.push(Pdl::after_some(p.clone(), t()));
        out.push(Pdl::after_all(p, t()));
    }
    out.push(Pdl::after_all(b().star(), Pdl::after_some(b(), t())));
    out
}

/// The checked applications of a schema: loop- and choice-free procs ×
/// their parameter tuples, in serial order — the same flattening
/// `check_dynamic_budget` performs.
fn applications(u: &FiniteUniverse, schema: &Schema) -> Vec<(Stmt, Valuation)> {
    let sig = u.signature().clone();
    let domains = u.domains().clone();
    let mut out = Vec::new();
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
                    let mut tt = prefix.clone();
                    tt.push(e);
                    next.push(tt);
                }
            }
            tuples = next;
        }
        for args in tuples {
            let mut env = Valuation::new();
            for (&p, &v) in proc.params.iter().zip(&args) {
                env.set(p, v);
            }
            out.push((proc.body.clone(), env));
        }
    }
    out
}

fn universe(spec: &TriLevelSpec) -> Option<FiniteUniverse> {
    match FiniteUniverse::enumerate(
        &spec.empty_state(),
        spec.representation.relations(),
        &[],
        PDL_CAP,
    ) {
        Ok(u) => Some(u),
        Err(RprError::UniverseTooLarge { .. }) => None,
        Err(e) => panic!("{e}"),
    }
}

/// One spec's workload, built once outside the timed region: the
/// enumerated universe and, per checked application, the body, its
/// environment and its formula batch. Universe enumeration is
/// representation-independent serial work that would otherwise swamp the
/// relational operations under measurement.
struct Prepared {
    name: &'static str,
    spec: TriLevelSpec,
    u: Option<FiniteUniverse>,
    apps: Vec<(Stmt, Valuation, Vec<Pdl>)>,
}

fn prepare(name: &'static str, spec: TriLevelSpec) -> Prepared {
    let u = universe(&spec);
    let apps = u
        .as_ref()
        .map(|u| {
            applications(u, &spec.representation)
                .into_iter()
                .map(|(body, env)| {
                    let phis = formulas_for(&body);
                    (body, env, phis)
                })
                .collect()
        })
        .unwrap_or_default();
    Prepared { name, spec, u, apps }
}

/// One application on the new engine: the PDL batch plus the
/// dynamic-contract verdicts read off the cached denotation, on a fresh
/// per-application cache (matching the baseline's caching granularity, so
/// the comparison isolates the relation kernel and the parallel striding).
fn app_new(
    u: &FiniteUniverse,
    body: &Stmt,
    env: &Valuation,
    phis: &[Pdl],
    threads: usize,
) -> (Vec<Vec<bool>>, Vec<bool>) {
    let mut cache = DenoteCache::new();
    let batch =
        check_batch_budget_with(phis, u, env, &mut cache, &Budget::unlimited(), threads).unwrap();
    let m = denote::meaning_cached(u, body, env, &mut cache).unwrap();
    let mut valid = batch.valid;
    valid.push(m.is_total(u.len()));
    valid.push(m.is_functional());
    (batch.satisfying, valid)
}

/// The new engine's PDL pass: applications strided across workers in the
/// same serial-order pattern `check_dynamic_budget` uses (worker `w` takes slots
/// `w, w + workers, …`; results merge by slot index), each application on
/// its own cache with its batch run serially. Thread-count invariance of
/// the merged output is asserted by the fingerprint comparison in `main`.
fn pdl_new(p: &Prepared, threads: usize) -> (Vec<Vec<bool>>, Vec<bool>) {
    let Some(u) = &p.u else {
        return (Vec::new(), Vec::new());
    };
    // Cap at the machine like every shipped parallel path does — extra
    // workers on a starved box would only add scheduling overhead.
    let workers = eclectic_kernel::effective_workers(threads)
        .min(p.apps.len())
        .max(1);
    let mut per_app: Vec<Option<AppOut>> = Vec::new();
    per_app.resize_with(p.apps.len(), || None);
    if workers <= 1 {
        for (slot, (body, env, phis)) in p.apps.iter().enumerate() {
            per_app[slot] = Some(app_new(u, body, env, phis, 1));
        }
    } else {
        let results: Vec<Vec<(usize, AppOut)>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let apps = &p.apps;
                        s.spawn(move || {
                            apps.iter()
                                .enumerate()
                                .skip(w)
                                .step_by(workers)
                                .map(|(slot, (body, env, phis))| {
                                    (slot, app_new(u, body, env, phis, 1))
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        for chunk in results {
            for (slot, r) in chunk {
                per_app[slot] = Some(r);
            }
        }
    }
    let mut satisfying = Vec::new();
    let mut valid = Vec::new();
    for r in per_app {
        let (s, v) = r.expect("every application slot filled");
        satisfying.extend(s);
        valid.extend(v);
    }
    (satisfying, valid)
}

/// The old-kernel serial baseline: the same batches and contract verdicts
/// on the set representation — the algorithm as of the previous PR, on the
/// representation it ran on, including its separate denotation of every
/// negated guard.
fn pdl_old(p: &Prepared) -> (Vec<Vec<bool>>, Vec<bool>) {
    let mut satisfying = Vec::new();
    let mut valid = Vec::new();
    if let Some(u) = &p.u {
        for (body, env, phis) in &p.apps {
            let mut cache = BTreeMap::new();
            for phi in phis {
                let sat = satisfying_set(u, phi, env, &mut cache);
                valid.push(sat.iter().all(|b| *b));
                satisfying.push(sat);
            }
            let m = meaning_set(u, body, env, &mut cache);
            valid.push(m.is_total(u.len()));
            valid.push(m.is_functional());
        }
    }
    (satisfying, valid)
}

/// One application's output: the per-formula satisfying sets and the
/// verdict vector (formula validity plus the two contract booleans).
type AppOut = (Vec<Vec<bool>>, Vec<bool>);

/// Everything the PDL/dynamic path decides, for bit-identity comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    satisfying: Vec<Vec<bool>>,
    valid: Vec<bool>,
    dynamic_failures: Vec<eclectic_refine::DynamicFailure>,
    dynamic_checked: usize,
    dynamic_skipped: Option<String>,
}

/// The full new-engine fingerprint: the PDL pass plus the parallel
/// `check_dynamic_budget` obligations (identity coverage for the refine layer;
/// kept out of the timed region because it re-enumerates the universe).
fn run_new_engine(p: &Prepared, threads: usize) -> Fingerprint {
    let (satisfying, valid) = pdl_new(p, threads);
    let dynamic = check_dynamic_budget(
        &p.spec.representation,
        &p.spec.empty_state(),
        PDL_CAP,
        &Budget::unlimited(),
        threads,
    )
    .unwrap();
    Fingerprint {
        satisfying,
        valid,
        dynamic_failures: dynamic.failures,
        dynamic_checked: dynamic.checked,
        dynamic_skipped: dynamic.skipped,
    }
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
        ("bank", bank::bank(&bank::BankConfig::sized(2, 3)).unwrap()),
    ];
    let prepared: Vec<Prepared> = specs
        .into_iter()
        .map(|(name, spec)| prepare(name, spec))
        .collect();
    let workload = format!(
        "courses+library+bank(2 accounts x 3 amounts) PDL batches + dynamic contracts, pdl cap {PDL_CAP}"
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Bit-identity across thread counts, checked before timing.
    let serial: Vec<Fingerprint> = prepared.iter().map(|p| run_new_engine(p, 1)).collect();
    let mut matches = true;
    for threads in [2, 4, 8] {
        for (p, fp1) in prepared.iter().zip(&serial) {
            let fp = run_new_engine(p, threads);
            if &fp != fp1 {
                eprintln!("MISMATCH: {} at {threads} threads", p.name);
                matches = false;
            }
        }
    }
    // The old kernel must produce the same satisfying sets and verdicts.
    for (p, fp1) in prepared.iter().zip(&serial) {
        let (old_satisfying, old_valid) = pdl_old(p);
        assert_eq!(
            old_satisfying, fp1.satisfying,
            "{}: old kernel disagrees on satisfying sets",
            p.name
        );
        assert_eq!(
            old_valid, fp1.valid,
            "{}: old kernel disagrees on verdicts",
            p.name
        );
    }

    // Node-cap budget partials must be bit-identical at every thread count.
    let probe = &prepared[0];
    let u = probe.u.as_ref().expect("courses universe fits the cap");
    let (_, env, formulas) = &probe.apps[0];
    for cap in [1usize, 3, 5] {
        let budget = Budget::unlimited().with_max_nodes(cap);
        let runs: Vec<BatchReport> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                let mut cache = DenoteCache::new();
                check_batch_budget_with(formulas, u, env, &mut cache, &budget, t).unwrap()
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.satisfying, runs[0].satisfying, "capped partial diverged");
            assert_eq!(r.valid, runs[0].valid, "capped partial diverged");
            assert_eq!(
                r.exhausted.as_ref().map(|e| (e.stage, e.completed_units)),
                runs[0].exhausted.as_ref().map(|e| (e.stage, e.completed_units)),
                "capped partial exhaustion diverged"
            );
        }
    }

    // The full verify pipeline must agree at every thread count, both
    // unbudgeted and under a node cap (VerificationOutcome has no
    // PartialEq; compare its decision-relevant fields).
    let verify_fingerprint = |config: &VerifyConfig, threads: usize| {
        std::env::set_var("ECLECTIC_THREADS", threads.to_string());
        let outcome = verify(&probe.spec, config).unwrap();
        (
            outcome.grammar_ok,
            outcome.dynamic.clone(),
            outcome
                .stages
                .iter()
                .map(|s| (s.name, s.exhausted.clone()))
                .collect::<Vec<_>>(),
        )
    };
    for config in [VerifyConfig::quick(), {
        let mut c = VerifyConfig::quick();
        c.max_nodes = Some(200);
        c
    }] {
        let base = verify_fingerprint(&config, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                verify_fingerprint(&config, threads),
                base,
                "VerificationOutcome diverged at {threads} threads"
            );
        }
    }
    std::env::remove_var("ECLECTIC_THREADS");
    println!("{workload}: parallel matches serial: {matches}");

    let mut r = Runner::new("pdl_parallel").sample_size(5).warmup(1);
    let baseline = r
        .bench("pdl/old_kernel_serial", || {
            prepared.iter().map(|p| pdl_old(p).1.len()).sum::<usize>()
        })
        .median_ns;

    let mut rows: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let m = r
            .bench(format!("pdl/threads_{threads}"), || {
                prepared
                    .iter()
                    .map(|p| pdl_new(p, threads).1.len())
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

    let mut json = String::from("{\n  \"bench\": \"pdl_parallel\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"baseline\": \"old_kernel_serial\",\n  \"baseline_median_ns\": {baseline:.0},\n"
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
    std::fs::write("BENCH_pdl.json", &json).expect("write BENCH_pdl.json");
    println!(
        "\nBENCH_pdl.json written (4-thread speedup {at4:.2}x vs old-kernel serial, threshold {threshold}x, identical: {matches})"
    );
    assert!(
        matches,
        "parallel PDL checking must be bit-identical to serial"
    );
    gate.check("BENCH_pdl 4-thread speedup");
}
