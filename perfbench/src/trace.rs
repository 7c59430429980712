//! The traced run. For each spec it calls, from here, the per-obligation
//! public functions that `verify_with_threads` calls, in its order and with
//! its arguments and worker count, and records each call as one span. Two
//! replays follow under their own parent span: a benchmark-owned rewriter
//! over the completeness grid (for the memo and term-store counters), and
//! the relation-kernel operations on the procedure denotations, under each
//! backend. Spans stay in memory and are returned when the run ends.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

use eclectic_algebraic::completeness;
use eclectic_algebraic::induction::GroundSpace;
use eclectic_algebraic::Rewriter;
use eclectic_kernel::{force_rel_backend, Budget, RelChoice, REL_DENSE_MAX_DIM};
use eclectic_logic::Valuation;
use eclectic_refine::{
    check_dynamic_budget, check_equations_budget, check_valid_reachable, cross_check_budget,
    obligation_axioms, obligation_completeness, obligation_exploration, obligation_termination,
    random_ops, InducedAlgebra,
};
use eclectic_rpr::wgrammar::{rpr_wgrammar, schema_derivation, validate};
use eclectic_rpr::{denote, BinRel, FiniteUniverse, RprError, Stmt};
use eclectic_spec::{verify_with_threads, TriLevelSpec};

use crate::json::Json;
use crate::workload::{self, Case, Workload};

/// The xorshift64* seed `verify` draws its cross-check traces from.
const CROSS_SEED: u64 = 0x5eed_1234_abcd_0001;

/// Relation-kernel backends, in metric-name order.
const BACKENDS: [(RelChoice, &str); 3] = [
    (RelChoice::Dense, "dense"),
    (RelChoice::Sparse, "sparse"),
    (RelChoice::Compressed, "compressed"),
];

fn err<E: Display>(e: E) -> String {
    e.to_string()
}

/// One timed call: name, interval in µs since the run began, and the span
/// that caused it.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// The in-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        (end - span.start_us) / 1e3
    }

    /// Runs `f` as span `name` under `parent`; returns its result and
    /// duration in milliseconds.
    fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        (out, self.close(id))
    }
}

/// Everything one round measures, summed over the workload's specs.
#[derive(Default)]
struct Round {
    /// Milliseconds per stage or replay, by metric name.
    ms: BTreeMap<&'static str, f64>,
    /// Deterministic counters, by metric name.
    counts: BTreeMap<&'static str, u64>,
    /// Relation-kernel op time in µs and op count, by (op, backend).
    rel: BTreeMap<(&'static str, &'static str), (f64, u64)>,
}

impl Round {
    fn add_ms(&mut self, name: &'static str, ms: f64) {
        *self.ms.entry(name).or_default() += ms;
    }

    fn add_count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as u64;
    }
}

/// A per-layer metric value with its unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a traced run.
pub struct TraceRun {
    /// Per-layer metrics: medians over rounds for times, exact for counts.
    pub metrics: BTreeMap<String, Metric>,
    pub spans: Vec<Span>,
    /// Untraced verdicts checked against the known answers.
    pub verdicts: usize,
    /// Descriptions of the verdicts that differ from the known answer.
    pub wrong: Vec<String>,
}

impl TraceRun {
    /// The run as one JSON object.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, m)| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::Str(s.name.clone())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ])
        });
        Json::obj([
            ("metrics", Json::obj(metrics)),
            ("spans", Json::Arr(spans.collect())),
            ("verdicts", Json::Int(self.verdicts as u64)),
            (
                "wrong",
                Json::Arr(self.wrong.iter().map(|w| Json::Str(w.clone())).collect()),
            ),
        ])
    }
}

/// Runs `rounds` traced rounds of workload `w` from `seed`. Each round
/// constructs the specs afresh, then per spec runs the untraced `verify`
/// once, the traced stage calls, and the replays. A spec whose `verify`
/// returns `Err`, or whose traced stages do, counts as one wrong verdict and
/// its remaining stages are skipped, as the untraced passes count it.
///
/// # Errors
/// Returns the error of a spec construction, rendered.
pub fn run(w: Workload, seed: u64, rounds: usize) -> Result<TraceRun, String> {
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut results = Vec::new();
    let mut verdicts = 0;
    let mut wrong = Vec::new();
    for r in 0..rounds.max(1) {
        let round_span = tracer.open(format!("round {r}"), None);
        let mut round = Round::default();
        let (cases, setup_ms) = tracer.time("setup", round_span, || {
            workload::build(w, seed).map_err(err)
        });
        round.add_ms("setup.spec_ms", setup_ms);
        for case in cases? {
            let spec_span = tracer.open(format!("spec {}", case.label), Some(round_span));
            let (outcome, verify_ms) = tracer.time("verify (untraced)", spec_span, || {
                verify_with_threads(&case.spec, &case.config, w.threads())
            });
            verdicts += 1;
            let mut why = workload::wrong(&case.expect, &outcome);
            if outcome.is_ok() {
                let traced = trace_spec(&mut tracer, spec_span, &case, w, verify_ms, &mut round);
                if let Err(e) = traced {
                    why.get_or_insert(format!("traced stage failed: {e}"));
                }
            }
            if let Some(why) = why {
                wrong.push(format!("{}: {why}", case.label));
            }
            tracer.close(spec_span);
        }
        tracer.close(round_span);
        results.push(round);
    }
    Ok(TraceRun {
        metrics: summarize(&results),
        spans: tracer.spans,
        verdicts,
        wrong,
    })
}

/// The traced stages and the replays of one spec whose untraced `verify`
/// took `verify_ms`.
fn trace_spec(
    t: &mut Tracer,
    parent: usize,
    case: &Case,
    w: Workload,
    verify_ms: f64,
    round: &mut Round,
) -> Result<(), String> {
    let stages_ms = traced_battery(t, parent, case, w.threads(), round)?;
    round.add_ms("verify.unattributed_ms", verify_ms - stages_ms);
    replays(t, parent, case, round)
}

/// The stages of `verify`, one span each; returns their summed duration.
fn traced_battery(
    t: &mut Tracer,
    parent: usize,
    case: &Case,
    threads: usize,
    round: &mut Round,
) -> Result<f64, String> {
    let spec = &case.spec;
    let config = &case.config;
    let budget = config.budget();
    let mut total = 0.0;
    let mut stage = |round: &mut Round, name: &'static str, ms: f64| {
        round.add_ms(name, ms);
        total += ms;
    };

    // W-grammar: derivation tree, then validation against the RPR grammar.
    let (tree, ms) = t.time("wgrammar.derive", parent, || {
        schema_derivation(&spec.representation)
    });
    stage(round, "wgrammar.derive_ms", ms);
    if let Ok(tree) = tree {
        let (_, ms) = t.time("wgrammar.validate", parent, || {
            black_box(validate(&rpr_wgrammar(), &tree))
        });
        stage(round, "wgrammar.validate_ms", ms);
        round.add_count("wgrammar.nodes", tree.node_count());
    }

    // Refinement 1→2: obligations (a), (b) and (d).
    let (r, ms) = t.time("termination", parent, || {
        obligation_termination(&spec.functions)
    });
    stage(round, "termination.ms", ms);
    r.map_err(err)?;
    let (r, ms) = t.time("completeness", parent, || {
        obligation_completeness(
            &spec.functions,
            config.refine12.completeness_depth,
            &budget,
            threads,
        )
    });
    stage(round, "completeness.ms", ms);
    round.add_count("completeness.evaluated", r.map_err(err)?.evaluated);
    let (r, ms) = t.time("explore", parent, || {
        obligation_exploration(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            config.refine12.limits,
            &budget,
            threads,
        )
    });
    stage(round, "explore.ms", ms);
    let exploration = r.map_err(err)?;
    round.add_count("explore.states", exploration.universe.state_count());
    round.add_count("explore.edges", exploration.universe.edge_count());
    let (r, ms) = t.time("axioms", parent, || {
        obligation_axioms(
            &spec.information,
            &spec.functions,
            config.refine12.policy,
            &exploration,
        )
    });
    stage(round, "axioms.ms", ms);
    r.map_err(err)?;

    // Obligation (c), skipped over a budget-truncated universe as in verify.
    if exploration.exhausted.is_none() {
        let (r, ms) = t.time("witness", parent, || {
            check_valid_reachable(&spec.information, &exploration, config.candidate_cap)
        });
        stage(round, "witness.ms", ms);
        round.add_count("witness.candidates", r.map_err(err)?.candidates);
    }

    // Refinement 2→3: the §5.4 equations in the induced algebra.
    let (r, ms) = t.time("equations", parent, || {
        let mut induced = InducedAlgebra::new(
            &spec.functions,
            &spec.representation,
            &spec.interp_k,
            spec.empty_state(),
        )?;
        let report = check_equations_budget(
            &mut induced,
            config.eq_depth,
            config.eq_max_states,
            20,
            &budget,
        )?;
        Ok::<_, eclectic_refine::RefineError>((induced, report))
    });
    stage(round, "equations.ms", ms);
    let (mut induced, equations) = r.map_err(err)?;
    round.add_count("equations.instances", equations.instances);

    // Dynamic-logic contracts over the representation universe.
    let (r, ms) = t.time("dynamic", parent, || {
        check_dynamic_budget(
            &spec.representation,
            &spec.empty_state(),
            config.pdl_universe_cap,
            &budget,
            threads,
        )
    });
    stage(round, "dynamic.ms", ms);
    let dynamic = r.map_err(err)?;
    round.add_count("dynamic.apps", dynamic.checked);
    round.add_count("denote.computed", dynamic.cache_stats.computed);
    round.add_count("denote.hits", dynamic.cache_stats.hits);

    // Randomised cross-level testing from verify's trace seed.
    let initial = initial_update_name(spec)?;
    let (r, ms) = t.time("cross", parent, || {
        let mut state = CROSS_SEED;
        let mut choose = move |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
        };
        let mut comparisons = 0;
        for _ in 0..config.random_traces {
            let ops = random_ops(
                &spec.functions,
                &induced,
                &initial,
                config.trace_len,
                &mut choose,
            )?;
            let (mismatch, stats, exhausted) =
                cross_check_budget(&spec.functions, &mut induced, &ops, &budget, threads)?;
            comparisons += stats.comparisons;
            if mismatch.is_some() || exhausted.is_some() {
                break;
            }
        }
        Ok::<_, eclectic_refine::RefineError>(comparisons)
    });
    stage(round, "cross.ms", ms);
    round.add_count("cross.comparisons", r.map_err(err)?);
    Ok(total)
}

/// The name of the spec's initial update constant (the update that takes
/// no state), as `verify` finds it.
fn initial_update_name(spec: &TriLevelSpec) -> Result<String, String> {
    let alg = spec.functions.signature();
    for u in alg.updates() {
        if !alg.update_takes_state(u).map_err(err)? {
            return Ok(alg.logic().func(u).name.clone());
        }
    }
    Err(format!("{}: no initial state constant", spec.name))
}

/// The rewriter and relation-kernel replays, under one `replay` span.
fn replays(t: &mut Tracer, parent: usize, case: &Case, round: &mut Round) -> Result<(), String> {
    let spec = &case.spec;
    let config = &case.config;
    let replay = t.open("replay", Some(parent));

    // A benchmark-owned rewriter over the completeness grid: its memo and
    // term-store counters are the ones `obligation_completeness` leaves
    // inside the library.
    let (space, ms) = t.time("ground.space", replay, || {
        GroundSpace::new(
            spec.functions.signature(),
            config.refine12.completeness_depth,
        )
    });
    let space = space.map_err(err)?;
    round.add_ms("ground.space_ms", ms);
    round.add_count("ground.states", space.states().len());
    let mut rw = Rewriter::new(&spec.functions);
    let (r, ms) = t.time("rewrite.sweep", replay, || {
        completeness::exhaustive_budget_with(&mut rw, &space, 20, &Budget::unlimited())
    });
    round.add_ms("rewrite.sweep_ms", ms);
    round.add_count("rewrite.evaluated", r.map_err(err)?.evaluated);
    let stats = rw.stats();
    round.add_count("rewrite.steps", stats.steps);
    round.add_count("rewrite.memo_hits", stats.cache_hits);
    round.add_count("rewrite.memo_misses", stats.cache_misses);
    round.add_count("store.nodes", rw.store().len());

    // The representation universe, enumerated as the dynamic stage does.
    let (u, ms) = t.time("universe.enumerate", replay, || {
        FiniteUniverse::enumerate(
            &spec.empty_state(),
            spec.representation.relations(),
            &[],
            config.pdl_universe_cap,
        )
    });
    round.add_ms("universe.ms", ms);
    let u = match u {
        Ok(u) => u,
        Err(RprError::UniverseTooLarge { .. }) => {
            t.close(replay);
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    round.add_count("universe.states", u.len());
    rel_replay(t, replay, &u, spec, round)?;
    t.close(replay);
    Ok(())
}

/// Denotes each checkable procedure body at its first argument tuple, then
/// times `compose`, `union` and `star` on those relations under each
/// backend.
fn rel_replay(
    t: &mut Tracer,
    parent: usize,
    u: &FiniteUniverse,
    spec: &TriLevelSpec,
    round: &mut Round,
) -> Result<(), String> {
    let n = u.len();
    let sig = u.signature();
    let mut pairs: Vec<Vec<(usize, usize)>> = Vec::new();
    for proc in spec.representation.procs() {
        if !proc.body.is_deterministic() || !while_free(&proc.body) {
            continue;
        }
        let mut env = Valuation::new();
        let bound = proc.params.iter().all(|&p| {
            let first = u.domains().elems(sig.var(p).sort).next();
            first.map(|e| env.set(p, e)).is_some()
        });
        if bound {
            pairs.push(denote::meaning(u, &proc.body, &env).map_err(err)?.pairs());
        }
    }
    if pairs.is_empty() {
        return Ok(());
    }
    for (choice, backend) in BACKENDS {
        // Past the dense crossover every dense relation costs n²/8 bytes and
        // the auto policy never picks it, so dense is replayed only below.
        if matches!(choice, RelChoice::Dense) && n > REL_DENSE_MAX_DIM {
            continue;
        }
        let _guard = force_rel_backend(choice);
        let rels: Vec<BinRel> = pairs
            .iter()
            .map(|ps| {
                let mut r = BinRel::with_dim(n);
                for &(a, b) in ps {
                    r.insert(a, b);
                }
                r
            })
            .collect();
        let k = rels.len();
        let ops: [(&'static str, &dyn Fn(usize) -> BinRel); 3] = [
            ("compose", &|i| rels[i].compose(&rels[(i + 1) % k])),
            ("union", &|i| rels[i].union(&rels[(i + 1) % k])),
            ("star", &|i| rels[i].star(n)),
        ];
        for (op, f) in ops {
            let span = t.open(format!("rel.{op}.{backend}"), Some(parent));
            let start = Instant::now();
            for i in 0..k {
                black_box(f(black_box(i)));
            }
            let us = start.elapsed().as_secs_f64() * 1e6;
            t.close(span);
            let slot = round.rel.entry((op, backend)).or_default();
            slot.0 += us;
            slot.1 += k as u64;
        }
    }
    Ok(())
}

/// Whether a statement contains no `while` loop: the fragment whose
/// deterministic procedures the dynamic stage checks.
fn while_free(s: &Stmt) -> bool {
    match s {
        Stmt::While(..) => false,
        Stmt::Seq(p, q) | Stmt::Union(p, q) | Stmt::IfThenElse(_, p, q) => {
            while_free(p) && while_free(q)
        }
        Stmt::IfThen(_, p) | Stmt::Star(p) => while_free(p),
        Stmt::Assign(..)
        | Stmt::RelAssign(..)
        | Stmt::Test(_)
        | Stmt::Insert(..)
        | Stmt::Delete(..)
        | Stmt::Skip => true,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-round metric values, before the median over rounds.
fn round_metrics(r: &Round) -> BTreeMap<String, Metric> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), Metric { value, unit });
    };
    let ms = |k: &str| r.ms.get(k).copied().unwrap_or(0.0);
    let count = |k: &str| r.counts.get(k).copied().unwrap_or(0) as f64;
    for name in [
        "setup.spec_ms",
        "wgrammar.derive_ms",
        "wgrammar.validate_ms",
        "ground.space_ms",
        "termination.ms",
        "completeness.ms",
        "explore.ms",
        "axioms.ms",
        "witness.ms",
        "equations.ms",
        "dynamic.ms",
        "cross.ms",
        "universe.ms",
        "verify.unattributed_ms",
    ] {
        put(name, ms(name), "ms");
    }
    for name in [
        "wgrammar.nodes",
        "ground.states",
        "completeness.evaluated",
        "rewrite.steps",
        "rewrite.memo_hits",
        "rewrite.memo_misses",
        "store.nodes",
        "explore.states",
        "explore.edges",
        "witness.candidates",
        "equations.instances",
        "cross.comparisons",
        "universe.states",
        "dynamic.apps",
        "denote.computed",
        "denote.hits",
    ] {
        put(name, count(name), "count");
    }
    put(
        "wgrammar.validate_us_per_node",
        ratio(ms("wgrammar.validate_ms") * 1e3, count("wgrammar.nodes")),
        "us",
    );
    let (hits, misses) = (count("rewrite.memo_hits"), count("rewrite.memo_misses"));
    put(
        "rewrite.memo_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    put(
        "rewrite.ns_per_eval",
        ratio(ms("rewrite.sweep_ms") * 1e6, count("rewrite.evaluated")),
        "ns",
    );
    let (computed, dhits) = (count("denote.computed"), count("denote.hits"));
    put("denote.hit_ratio", ratio(dhits, computed + dhits), "ratio");
    for op in ["compose", "union", "star"] {
        for (_, backend) in BACKENDS {
            let (us, n) = r.rel.get(&(op, backend)).copied().unwrap_or((0.0, 0));
            put(&format!("rel.{op}_us.{backend}"), ratio(us, n as f64), "us");
        }
    }
    m
}

/// The median over rounds of each metric (counts repeat exactly, so their
/// median is their value).
fn summarize(rounds: &[Round]) -> BTreeMap<String, Metric> {
    let per_round: Vec<_> = rounds.iter().map(round_metrics).collect();
    let Some(first) = per_round.first() else {
        return BTreeMap::new();
    };
    first
        .iter()
        .map(|(name, m)| {
            let values = per_round.iter().map(|r| r[name].value).collect();
            (
                name.clone(),
                Metric {
                    value: median(values),
                    unit: m.unit,
                },
            )
        })
        .collect()
}
