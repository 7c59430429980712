//! Serial-vs-parallel reachability bench: times `M(T2)` exploration on a
//! `refine_state_quotient`-class workload with raised limits and writes
//! `BENCH_reach.json`.
//!
//! Run with: `cargo run -p eclectic-bench --bin bench_reach_parallel --release`
//!
//! Three quantities are recorded:
//!
//! * the **pre-refactor serial baseline** — the exploration loop as it stood
//!   before the shard-concurrent kernel: `Vec<TermId>` observation keys,
//!   per-state parameter-tuple re-enumeration, and tree-level structure
//!   construction (externing each fresh witness and re-interning it once per
//!   query instance), reproduced here against the same public API;
//! * the **new engine at 1/2/4/8 threads** ([`explore_algebraic_budget`]):
//!   interned tuple observation keys, a precompiled successor plan, id-level
//!   structure construction, and — beyond one thread — the level-synchronous
//!   parallel search over the shard-concurrent store;
//! * a **bit-identity check**: every thread count must reproduce the serial
//!   state numbering, witnesses, depths and edges exactly.
//!
//! The pass gate compares the 4-thread engine against the pre-refactor
//! baseline (threshold 1.5×). Thread-scaling beyond the engine speedup
//! shows in the per-thread rows on multi-core hosts; the JSON records
//! `available_cores` so flat rows on starved containers are attributable.

use std::collections::VecDeque;
use std::sync::Arc;

use eclectic_algebraic::{induction, observe, AlgSpec, LegacyRewriter, RewriteStats, Rewriter};
use eclectic_bench::{Runner, SpeedupGate};
use eclectic_kernel::{Budget, FxHashMap, TermId};
use eclectic_logic::{Domains, Signature, Term};
use eclectic_refine::{
    explore_algebraic_budget, structure_of, AlgExploreLimits, AlgebraicExploration,
    InterpretationI, ParamBridge,
};
use eclectic_spec::domains::courses;
use eclectic_temporal::{StateIdx, Universe};

/// The exploration loop as it stood before this refactor (tree-level
/// structures, vector observation keys, per-state tuple re-enumeration) —
/// the serial baseline the parallel engine is measured against.
fn explore_pre_refactor(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
) -> (AlgebraicExploration, RewriteStats) {
    let bridge = ParamBridge::new(spec.signature(), info_sig, domains).unwrap();
    let mut rw = Rewriter::new(spec);
    let keys = observe::ObsKeys::new(&mut rw).unwrap();

    let mut universe = Universe::new(info_sig.clone(), domains.clone());
    let mut witnesses: Vec<Term> = Vec::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut by_obs: FxHashMap<Vec<TermId>, StateIdx> = FxHashMap::default();
    let mut truncated = false;
    let mut abstraction_collision = false;
    let mut queue: VecDeque<(StateIdx, TermId, usize)> = VecDeque::new();

    let mut admit = |rw: &mut Rewriter<'_>,
                     universe: &mut Universe,
                     by_obs: &mut FxHashMap<Vec<TermId>, StateIdx>,
                     witnesses: &mut Vec<Term>,
                     depth: &mut Vec<usize>,
                     term: TermId,
                     d: usize|
     -> (StateIdx, bool) {
        let obs = keys.key(rw, term).unwrap();
        if let Some(&idx) = by_obs.get(&obs) {
            return (idx, false);
        }
        let witness = rw.extern_term(term);
        let st = structure_of(rw, interp, &bridge, info_sig, domains, &witness).unwrap();
        let pre_existing = universe.find_state(&st).is_some();
        let (idx, _fresh) = universe.add_state(st).unwrap();
        if pre_existing {
            abstraction_collision = true;
            by_obs.insert(obs, idx);
            return (idx, false);
        }
        by_obs.insert(obs, idx);
        witnesses.push(witness);
        depth.push(d);
        (idx, true)
    };

    for t in induction::initial_state_ids(&mut rw).unwrap() {
        let (idx, fresh) = admit(
            &mut rw,
            &mut universe,
            &mut by_obs,
            &mut witnesses,
            &mut depth,
            t,
            0,
        );
        if fresh {
            queue.push_back((idx, t, 0));
        }
    }
    while let Some((idx, term, d)) = queue.pop_front() {
        if d >= limits.max_depth {
            truncated = true;
            continue;
        }
        for succ in induction::successor_ids(&mut rw, term).unwrap() {
            if universe.state_count() >= limits.max_states {
                truncated = true;
                break;
            }
            let (sidx, fresh) = admit(
                &mut rw,
                &mut universe,
                &mut by_obs,
                &mut witnesses,
                &mut depth,
                succ,
                d + 1,
            );
            universe.add_edge(idx, sidx);
            if fresh {
                queue.push_back((sidx, succ, d + 1));
            }
        }
    }
    let stats = rw.stats();
    (
        AlgebraicExploration {
            universe,
            witnesses,
            depth,
            truncated,
            abstraction_collision,
            exhausted: None,
        },
        stats,
    )
}

/// The same observational-quotient exploration on the legacy tree-cloning
/// rewriter — the pre-kernel engine, the `refine_state_quotient` baseline
/// of `BENCH_rewrite.json`. Everything is a term tree: successors clone the
/// state subtree, observation keys are vectors of normal-form trees, and
/// structures are built by per-instance tree evaluation.
fn explore_legacy_engine(
    spec: &AlgSpec,
    interp: &InterpretationI,
    info_sig: &Arc<Signature>,
    domains: &Arc<Domains>,
    limits: AlgExploreLimits,
) -> usize {
    use std::collections::BTreeMap;
    let alg = spec.signature().clone();
    let bridge = ParamBridge::new(&alg, info_sig, domains).unwrap();
    let mut rw = LegacyRewriter::new(spec);
    let queries: Vec<_> = alg.queries().collect();
    let mut plans = Vec::new();
    for &q in &queries {
        let sorts = alg.query_params(q).unwrap();
        plans.push((q, induction::param_tuples(&alg, &sorts).unwrap()));
    }

    let mut universe = Universe::new(info_sig.clone(), domains.clone());
    let mut by_obs: BTreeMap<Vec<Term>, StateIdx> = BTreeMap::new();
    let mut queue: VecDeque<(StateIdx, Term, usize)> = VecDeque::new();

    let admit = |rw: &mut LegacyRewriter<'_>,
                 universe: &mut Universe,
                 by_obs: &mut BTreeMap<Vec<Term>, StateIdx>,
                 term: &Term|
     -> (StateIdx, bool) {
        let mut obs = Vec::new();
        for (q, tuples) in &plans {
            for params in tuples {
                obs.push(rw.eval_query(*q, params, term).unwrap());
            }
        }
        if let Some(&idx) = by_obs.get(&obs) {
            return (idx, false);
        }
        let mut st = eclectic_logic::Structure::new(info_sig.clone(), domains.clone());
        for (p, q) in interp.pairs() {
            let qsorts = alg.query_params(q).unwrap();
            let lsorts: Vec<_> = qsorts
                .iter()
                .map(|&s| bridge.logic_sort(s).unwrap())
                .collect();
            for tuple in domains.tuples(&lsorts) {
                let args: Vec<Term> = tuple
                    .iter()
                    .zip(&lsorts)
                    .map(|(&e, &s)| bridge.term_of_elem(s, e).unwrap())
                    .collect();
                let v = rw.eval_query(q, &args, term).unwrap();
                if v == alg.true_term() {
                    st.insert_pred(p, tuple).unwrap();
                }
            }
        }
        let (idx, fresh) = universe.add_state(st).unwrap();
        by_obs.insert(obs, idx);
        (idx, fresh)
    };

    for t in induction::initial_state_terms(&alg).unwrap() {
        let (idx, fresh) = admit(&mut rw, &mut universe, &mut by_obs, &t);
        if fresh {
            queue.push_back((idx, t, 0));
        }
    }
    while let Some((idx, term, d)) = queue.pop_front() {
        if d >= limits.max_depth {
            continue;
        }
        for succ in induction::successor_terms(&alg, &term).unwrap() {
            if universe.state_count() >= limits.max_states {
                break;
            }
            let (sidx, fresh) = admit(&mut rw, &mut universe, &mut by_obs, &succ);
            universe.add_edge(idx, sidx);
            if fresh {
                queue.push_back((sidx, succ, d + 1));
            }
        }
    }
    universe.state_count()
}

fn same_exploration(a: &AlgebraicExploration, b: &AlgebraicExploration) -> bool {
    a.universe.state_count() == b.universe.state_count()
        && a.universe.edge_count() == b.universe.edge_count()
        && a.witnesses == b.witnesses
        && a.depth == b.depth
        && a.truncated == b.truncated
        && a.abstraction_collision == b.abstraction_collision
        && a.universe
            .state_indices()
            .all(|s| a.universe.successors(s) == b.universe.successors(s))
}

fn main() {
    let students = 2;
    let crs = 3;
    let limits = AlgExploreLimits {
        max_depth: 10,
        max_states: 50_000,
    };
    let config = courses::CoursesConfig::sized(students, crs, courses::EquationStyle::Paper);
    let spec = courses::courses(&config).unwrap();
    let workload = format!(
        "courses {students}s{crs}c explore depth {} max_states {}",
        limits.max_depth, limits.max_states
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Bit-identity across thread counts, checked before timing.
    let serial = explore_algebraic_budget(
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        limits,
        &Budget::unlimited(),
        1,
    )
    .unwrap();
    let mut matches = true;
    for threads in [2, 4, 8] {
        let par = explore_algebraic_budget(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            limits,
            &Budget::unlimited(),
            threads,
        )
        .unwrap();
        matches &= same_exploration(&serial, &par);
    }
    println!(
        "{workload}: {} states, parallel matches serial: {matches}",
        serial.universe.state_count()
    );

    let mut rl = Runner::new("reach_parallel").sample_size(3).warmup(1);
    let legacy = rl
        .bench("explore/legacy_tree_engine", || {
            explore_legacy_engine(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
            )
        })
        .median_ns;
    rl.finish();

    // Rewrite-memo counters from one untimed serial exploration.
    let (_, memo) = explore_pre_refactor(
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        limits,
    );

    let mut r = Runner::new("reach_parallel").sample_size(10);
    let pre_refactor = r
        .bench("explore/pre_refactor_serial", || {
            explore_pre_refactor(
                &spec.functions,
                &spec.interp_i,
                spec.info_signature(),
                &spec.info_domains,
                limits,
            )
            .0
            .universe
            .state_count()
        })
        .median_ns;

    let mut rows: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let m = r
            .bench(format!("explore/threads_{threads}"), || {
                explore_algebraic_budget(
                    &spec.functions,
                    &spec.interp_i,
                    spec.info_signature(),
                    &spec.info_domains,
                    limits,
                    &Budget::unlimited(),
                    threads,
                )
                .unwrap()
                .universe
                .state_count()
            })
            .median_ns;
        rows.push((threads, m));
    }
    r.finish();

    let threshold = 1.5f64;
    let at4 = rows
        .iter()
        .find(|(t, _)| *t == 4)
        .map(|&(_, ns)| legacy / ns)
        .unwrap_or(0.0);
    let gate = SpeedupGate::new(4, threshold, at4);
    let pass = gate.pass() && matches;

    let mut json = String::from("{\n  \"bench\": \"reach_parallel\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"baseline\": \"legacy_tree_engine\",\n  \"baseline_median_ns\": {legacy:.0},\n"
    ));
    json.push_str(&format!(
        "  \"pre_refactor_serial_median_ns\": {pre_refactor:.0},\n"
    ));
    json.push_str(&format!(
        "  \"rewrite_memo\": {{\"steps\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"conditions\": {}}},\n",
        memo.steps, memo.cache_hits, memo.cache_misses, memo.conditions
    ));
    json.push_str("  \"rows\": [\n");
    for (i, (threads, ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"median_ns\": {ns:.0}, \"speedup_vs_baseline\": {:.3}}}{}\n",
            legacy / ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"speedup_at_4_threads\": {at4:.3},\n  \"threshold\": {threshold},\n  \"speedup_gate\": {},\n  \"parallel_matches_serial\": {matches},\n  \"pass\": {pass}\n}}\n",
        gate.json()
    ));
    std::fs::write("BENCH_reach.json", &json).expect("write BENCH_reach.json");
    println!(
        "\nBENCH_reach.json written (4-thread speedup {at4:.2}x vs legacy tree engine, threshold {threshold}x, identical: {matches})"
    );
    assert!(
        matches,
        "parallel exploration must be bit-identical to serial"
    );
    gate.check("BENCH_reach 4-thread speedup");
}
