//! Dense vs sparse vs compressed vs auto relation-kernel comparison on
//! sparse star-closure workloads; writes `BENCH_rel.json`.
//!
//! The workload is the shape the non-dense backends exist for: disjoint
//! 8-node rings, so every source's reflexive-transitive closure reaches
//! exactly its own cluster. Entry count stays linear in the dimension
//! while the dense bit matrix pays `n · ⌈n/64⌉` words regardless — the
//! dense per-source BFS touches whole rows, the semi-naive worklists only
//! the eight reached nodes. Four arms per dimension (256 / 1 k / 4 k):
//! forced dense, forced sparse, forced compressed, and the unforced
//! automatic policy.
//!
//! Pass gates:
//! - at every dimension the auto arm is within 10% of the best backend
//!   (the crossover constants must route each size to the right kernel);
//! - sparse beats dense by ≥ 1.5× at dim 4096;
//! - closure pair sets are bit-identical across all four arms at every
//!   dimension, and a 1024-state PDL + contract batch produces
//!   bit-identical verdicts under forced dense, sparse, and compressed;
//! - the generated-domain capstone completes: a 2¹⁷-state domain (far
//!   beyond the dense wall of ~2 GB per relation, and past the automatic
//!   policy's compressed floor) model-checks its full PDL batch and its
//!   totality/functionality contracts;
//! - the million-state capstone completes: a 2²⁰-state block-ring
//!   relation closes under a relation-memory byte budget the uncompressed
//!   sparse backend *exceeds* (asserted both ways), and the demand-driven
//!   modal sweeps and contracts agree between sparse and compressed.

use std::sync::Arc;
use std::time::Instant;

use eclectic_bench::{warning_json, Runner, SpeedupGate};
use eclectic_kernel::{
    force_rel_backend, Budget, BudgetExceeded, LazyClosure, Rel, RelBackend, RelChoice,
};
use eclectic_logic::{Domains, Elem, Formula, Signature, Term as LogicTerm, Valuation};
use eclectic_rpr::denote::meaning;
use eclectic_rpr::{check_batch_budget_with, DbState, DenoteCache, FiniteUniverse, Pdl, Stmt};

/// Cluster size of the star-closure workload: each source reaches exactly
/// this many nodes whatever the dimension.
const CLUSTER: usize = 8;

/// Block size of the million-state capstone: contiguous 64-state rings,
/// so every closure row is a single 64-wide run — the shape run-length
/// containers compress and adjacency lists cannot.
const BLOCK: usize = 64;

/// Relation-memory budget for the million-state capstone: 64 MiB. The
/// compressed closure fits in ~12 MiB; the sparse closure would need
/// ~256 MiB.
const LARGE_BUDGET_BYTES: usize = 64 << 20;

/// Edges of the disjoint-ring workload (`n` must be a multiple of
/// [`CLUSTER`]): node `i` points at the next node of its ring.
fn ring_edges(n: usize) -> impl Iterator<Item = (usize, usize)> {
    assert_eq!(n % CLUSTER, 0);
    (0..n).map(|i| {
        let base = i - i % CLUSTER;
        (i, base + (i + 1) % CLUSTER)
    })
}

fn build(n: usize, backend: Option<RelBackend>) -> Rel {
    let mut r = match backend {
        Some(b) => Rel::with_backend(n, b),
        None => Rel::new(n),
    };
    for (a, b) in ring_edges(n) {
        r.set(a, b);
    }
    r
}

/// The million-state block-ring: state `i` steps to the next state of its
/// 64-state block (`i → (i & !63) + ((i + 1) & 63)`), so every closure
/// row is its block — one contiguous run.
fn block_ring(n: usize, backend: RelBackend) -> Rel {
    assert_eq!(n % BLOCK, 0);
    let mut r = Rel::with_backend(n, backend);
    for i in 0..n {
        r.set(i, (i & !(BLOCK - 1)) + ((i + 1) & (BLOCK - 1)));
    }
    r
}

/// A generated domain with one marked-items predicate over `bits` items:
/// the representation universe is all `2^bits` subsets.
fn synthetic_universe(bits: usize, cap: usize) -> (FiniteUniverse, Vec<Pdl>, Stmt) {
    let mut sig = Signature::new();
    let item = sig.add_sort("item").unwrap();
    let marked = sig.add_db_predicate("MARKED", &[item]).unwrap();
    let x = sig.add_constant("x", item).unwrap();
    let names: Vec<String> = (0..bits).map(|i| format!("i{i:02}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let dom = Domains::from_names(&sig, &[("item", &name_refs)]).unwrap();
    let sig = Arc::new(sig);
    let mut template = DbState::new(sig, Arc::new(dom));
    template.set_scalar(x, Elem(0)).unwrap();
    // `x` stays pinned at the template value (it is not a varying scalar),
    // so the universe is exactly the `2^bits` subsets of MARKED.
    let u = FiniteUniverse::enumerate(&template, &[marked], &[], cap).unwrap();
    let insert = Stmt::Insert(marked, vec![LogicTerm::constant(x)]);
    let atom = Pdl::Atom(Formula::Pred(marked, vec![LogicTerm::constant(x)]));
    let formulas = vec![
        Pdl::after_all(insert.clone(), atom.clone()),
        Pdl::after_some(insert.clone(), atom.clone()),
        Pdl::after_all(Stmt::Skip, atom.clone()),
        Pdl::after_all(insert.clone().seq(Stmt::Skip), atom),
    ];
    (u, formulas, insert)
}

/// PDL verdicts plus the dynamic-contract observations (totality and
/// functionality of the deterministic `insert` application) on a
/// synthetic universe — the fields that must be backend-invariant.
fn batch_fingerprint(bits: usize) -> (Vec<bool>, Vec<bool>, bool, bool) {
    let (u, formulas, insert) = synthetic_universe(bits, 1 << bits);
    let (env, budget) = (Valuation::new(), Budget::unlimited());
    let mut cache = DenoteCache::new();
    let report = check_batch_budget_with(&formulas, &u, &env, &mut cache, &budget).unwrap();
    let r = meaning(&u, &insert, &env).unwrap();
    let first_sat = report.satisfying.first().cloned().unwrap_or_default();
    (
        report.valid,
        first_sat,
        r.is_total(u.len()),
        r.is_functional(),
    )
}

/// Observations of the million-state capstone that must agree between the
/// sparse and compressed backends.
struct LargeCapstone {
    states: usize,
    budget_bytes: usize,
    compressed_bytes: usize,
    sparse_bytes: usize,
    closure_pairs: usize,
    elapsed_ms: u128,
    sparse_trips: bool,
    verdicts_identical: bool,
    total: bool,
    functional: bool,
    ok: bool,
}

/// Runs the 2²⁰-state block-ring capstone: the compressed closure must
/// complete under a byte budget the sparse closure trips on, with
/// demand-driven modal sweeps and contracts agreeing between the two
/// surviving backends.
fn large_capstone() -> LargeCapstone {
    let n = 1usize << 20;
    let budget_bytes = LARGE_BUDGET_BYTES;
    let budget = Budget::unlimited().with_max_rel_entries(budget_bytes);

    let comp = block_ring(n, RelBackend::Compressed);
    let sparse = block_ring(n, RelBackend::Sparse);

    // Compressed closure completes under the byte budget.
    let t0 = Instant::now();
    let closed = comp
        .closure_governed(&budget)
        .expect("compressed closure must fit the byte budget");
    let elapsed_ms = t0.elapsed().as_millis();
    let compressed_bytes = closed.mem_bytes();
    let closure_pairs = closed.count_ones();
    // What the sparse backend would need for the same pair set: exactly
    // 4 bytes per pair.
    let sparse_bytes = 4 * closure_pairs;

    // The sparse closure on the same budget must trip the memory axis
    // (that is the point of the compressed representation).
    let sparse_trips = matches!(
        sparse.closure_governed(&budget),
        Err(BudgetExceeded::RelMemory)
    );

    // Demand-driven modal sweeps over the closure (never materialized on
    // the sparse side) and the contracts must agree between backends.
    let inner: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
    let sweep_budget = Budget::unlimited();
    let (box_c, dia_c) = {
        let mut lc = LazyClosure::new(&comp);
        (
            lc.box_star_states(&inner, &sweep_budget).unwrap(),
            lc.diamond_star_states(&inner, &sweep_budget).unwrap(),
        )
    };
    let (box_s, dia_s) = {
        let mut ls = LazyClosure::new(&sparse);
        (
            ls.box_star_states(&inner, &sweep_budget).unwrap(),
            ls.diamond_star_states(&inner, &sweep_budget).unwrap(),
        )
    };
    let total = closed.is_total(n) && sparse.is_total(n);
    let functional = comp.is_functional() == sparse.is_functional() && comp.is_functional();
    let verdicts_identical = box_c == box_s
        && dia_c == dia_s
        && box_c == closed.box_states(&inner)
        && dia_c == closed.diamond_states(&inner);

    let ok = compressed_bytes < budget_bytes
        && sparse_bytes > budget_bytes
        && sparse_trips
        && verdicts_identical
        && total
        && functional
        && closure_pairs == n * BLOCK;
    LargeCapstone {
        states: n,
        budget_bytes,
        compressed_bytes,
        sparse_bytes,
        closure_pairs,
        elapsed_ms,
        sparse_trips,
        verdicts_identical,
        total,
        functional,
        ok,
    }
}

fn report_large(large: &LargeCapstone) {
    println!(
        "million-state capstone: {} states, compressed {} B vs sparse {} B under a {} B \
         budget (sparse trips: {}), {} closure pairs in {} ms — ok: {}",
        large.states,
        large.compressed_bytes,
        large.sparse_bytes,
        large.budget_bytes,
        large.sparse_trips,
        large.closure_pairs,
        large.elapsed_ms,
        large.ok,
    );
}

fn main() {
    // `bench_rel_crossover large` runs only the million-state capstone —
    // the `just bench-rel-large` entry point. The full run (no argument)
    // also includes it and records it in BENCH_rel.json.
    if std::env::args().nth(1).as_deref() == Some("large") {
        let large = large_capstone();
        report_large(&large);
        assert!(large.ok, "million-state capstone gates failed");
        return;
    }

    let dims = [256usize, 1024, 4096];
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workload =
        format!("disjoint {CLUSTER}-ring reflexive-transitive closure at dims {dims:?}");

    // Closure pair sets must be bit-identical across backends before any
    // timing is trusted.
    let mut identical = true;
    for &n in &dims {
        let dense = build(n, Some(RelBackend::Dense)).closure_reflexive_transitive();
        let sparse = build(n, Some(RelBackend::Sparse)).closure_reflexive_transitive();
        let comp = build(n, Some(RelBackend::Compressed)).closure_reflexive_transitive();
        let auto = build(n, None).closure_reflexive_transitive();
        if !dense.set_eq(&sparse) || !dense.set_eq(&comp) || !dense.set_eq(&auto) {
            eprintln!("MISMATCH: closure pair sets diverge at dim {n}");
            identical = false;
        }
    }
    // The same PDL + contract batch on a 2^10-state generated domain must
    // produce bit-identical verdicts under each forced backend.
    let fp_dense = {
        let _g = force_rel_backend(RelChoice::Dense);
        batch_fingerprint(10)
    };
    let fp_sparse = {
        let _g = force_rel_backend(RelChoice::Sparse);
        batch_fingerprint(10)
    };
    let fp_comp = {
        let _g = force_rel_backend(RelChoice::Compressed);
        batch_fingerprint(10)
    };
    if fp_dense != fp_sparse || fp_dense != fp_comp {
        eprintln!("MISMATCH: PDL/contract verdicts diverge between backends");
        identical = false;
    }

    // Generated-domain capstone: 2^17 states is past the dense wall
    // (2^17 · 2^17/64 words ≈ 2 GB) *and* past the automatic policy's
    // compressed floor, so the full PDL batch plus the dynamic contracts
    // run on the compressed backend unforced.
    let cap_start = Instant::now();
    let (valid, first_sat, total, functional) = batch_fingerprint(17);
    let cap_elapsed_ms = cap_start.elapsed().as_millis();
    let cap_states = 1usize << 17;
    let capstone_ok = valid == fp_dense.0 && total && functional && !first_sat.is_empty();
    println!(
        "large universe: {cap_states} states, {} formulas valid, contracts total={total} \
         functional={functional}, {cap_elapsed_ms} ms",
        valid.iter().filter(|&&v| v).count()
    );

    // Million-state capstone: closure under a byte budget only the
    // compressed rows fit.
    let large = large_capstone();
    report_large(&large);

    let mut r = Runner::new("rel_crossover").sample_size(12).warmup(2);
    // Per row: (dim, median dense/sparse/compressed/auto, min
    // dense/sparse/compressed/auto, auto backend). Medians are reported;
    // the routing gate compares best-case (min) samples — on a shared
    // single-core host the median absorbs scheduler noise that has
    // nothing to do with backend routing (under auto the 4k arm runs the
    // *same* sparse code path as the forced-sparse arm).
    type Row = (usize, [f64; 4], [f64; 4], &'static str);
    let mut rows: Vec<Row> = Vec::new();
    for &n in &dims {
        let dense = build(n, Some(RelBackend::Dense));
        let sparse = build(n, Some(RelBackend::Sparse));
        let comp = build(n, Some(RelBackend::Compressed));
        let auto = build(n, None);
        let auto_backend = match auto.backend() {
            RelBackend::Dense => "dense",
            RelBackend::Sparse => "sparse",
            RelBackend::Compressed => "compressed",
        };
        let mut med = [0.0f64; 4];
        let mut min = [0.0f64; 4];
        let arms: [(&str, &Rel); 4] = [
            ("dense", &dense),
            ("sparse", &sparse),
            ("compressed", &comp),
            ("auto", &auto),
        ];
        for (k, (arm, rel)) in arms.iter().enumerate() {
            let m = r.bench(format!("star/{arm}_{n}"), || {
                rel.closure_reflexive_transitive().count_ones()
            });
            med[k] = m.median_ns;
            min[k] = m.min_ns;
        }
        rows.push((n, med, min, auto_backend));
    }
    r.finish();

    let best = |t: &[f64; 4]| t[0].min(t[1]).min(t[2]);
    let gate_auto = rows.iter().all(|&(_, _, min, _)| min[3] <= best(&min) * 1.10);
    let sparse_speedup_4k = rows
        .iter()
        .find(|&&(n, ..)| n == 4096)
        .map(|&(_, med, ..)| med[0] / med[1])
        .unwrap_or(0.0);
    // The sparse-vs-dense claim is backend-algorithmic, not thread-scaling,
    // so it is enforceable on any host (gate threads = 1).
    let gate = SpeedupGate::new(1, 1.5, sparse_speedup_4k);
    let gate_sparse = gate.pass();
    let pass = gate_auto && gate_sparse && identical && capstone_ok && large.ok;

    let mut json = String::from("{\n  \"bench\": \"rel_crossover\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!("  {},\n", warning_json()));
    json.push_str("  \"rows\": [\n");
    for (i, (n, med, min, ab)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dim\": {n}, \"dense_ns\": {:.0}, \"sparse_ns\": {:.0}, \
             \"compressed_ns\": {:.0}, \"auto_ns\": {:.0}, \"auto_min_ns\": {:.0}, \
             \"best_min_ns\": {:.0}, \"auto_backend\": \"{ab}\", \
             \"sparse_speedup_vs_dense\": {:.3}, \"auto_within_10pct_of_best\": {}}}{}\n",
            med[0],
            med[1],
            med[2],
            med[3],
            min[3],
            best(min),
            med[0] / med[1],
            min[3] <= best(min) * 1.10,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"sparse_speedup_at_4096\": {sparse_speedup_4k:.3},\n  \
         \"sparse_speedup_threshold\": 1.5,\n  \"speedup_gate\": {},\n  \
         \"gate_auto_within_10pct\": {gate_auto},\n  \
         \"gate_sparse_speedup\": {gate_sparse},\n  \"verdicts_bit_identical\": {identical},\n",
        gate.json()
    ));
    json.push_str(&format!(
        "  \"large_universe\": {{\"states\": {cap_states}, \"formulas\": {}, \
         \"valid_count\": {}, \"contracts_total_and_functional\": {}, \
         \"elapsed_ms\": {cap_elapsed_ms}, \"completed\": {capstone_ok}}},\n",
        valid.len(),
        valid.iter().filter(|&&v| v).count(),
        total && functional,
    ));
    json.push_str(&format!(
        "  \"million_state_capstone\": {{\"states\": {}, \"budget_bytes\": {}, \
         \"compressed_bytes\": {}, \"sparse_bytes\": {}, \"closure_pairs\": {}, \
         \"elapsed_ms\": {}, \"sparse_trips_budget\": {}, \
         \"verdicts_bit_identical\": {}, \
         \"contracts_total_and_functional\": {}, \"completed\": {}}},\n",
        large.states,
        large.budget_bytes,
        large.compressed_bytes,
        large.sparse_bytes,
        large.closure_pairs,
        large.elapsed_ms,
        large.sparse_trips,
        large.verdicts_identical,
        large.total && large.functional,
        large.ok,
    ));
    json.push_str(&format!("  \"pass\": {pass}\n}}\n"));
    std::fs::write("BENCH_rel.json", &json).expect("write BENCH_rel.json");
    println!(
        "\nBENCH_rel.json written (sparse {sparse_speedup_4k:.2}x dense at 4096, auto within \
         10% of best: {gate_auto}, identical: {identical}, capstone: {capstone_ok}, \
         million-state: {})",
        large.ok
    );
    assert!(pass, "BENCH_rel gates failed");
}
