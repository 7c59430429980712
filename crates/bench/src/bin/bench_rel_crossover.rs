//! Dense vs sparse vs compressed relation-kernel comparison on sparse
//! star-closure workloads; writes `BENCH_rel.json`.
//!
//! The workload is the shape the non-dense backends exist for: disjoint
//! 8-node rings, so every source's reflexive-transitive closure reaches
//! exactly its own cluster. Entry count stays linear in the dimension
//! while the dense bit matrix pays `n · ⌈n/64⌉` words regardless — the
//! dense per-source BFS touches whole rows, the semi-naive worklists only
//! the eight reached nodes. Three timed arms per dimension (256 / 1 k /
//! 4 k): forced dense, forced sparse and forced compressed, sampled
//! round-robin — each round times one closure of every arm, and the arm
//! that goes first rotates — so a host phase change mid-run falls on all
//! three arms alike instead of on one arm's block of samples.
//!
//! Pass gates:
//! - at every dimension the automatic policy ([`rel_backend_for`]) picks
//!   the arm with the lowest median of its interleaved samples (the
//!   crossover constants must route each size to the fastest kernel);
//! - sparse beats dense by ≥ 1.5× at dim 4096;
//! - closure pair sets are bit-identical across the three forced backends
//!   and the automatic policy at every dimension, and a 1024-state PDL +
//!   contract batch produces bit-identical verdicts under forced dense,
//!   sparse, and compressed;
//! - the generated-domain capstone completes: a 2¹⁷-state domain (far
//!   beyond the dense wall of ~2 GB per relation, and past the automatic
//!   policy's compressed floor) model-checks its full PDL batch and its
//!   totality/functionality contracts;
//! - the million-state capstone completes: a 2²⁰-state block-ring
//!   relation closes under a relation-memory byte budget the uncompressed
//!   sparse backend *exceeds* (asserted both ways), the `[p*]`/`⟨p*⟩`
//!   sweeps over the compressed closure match the block structure (every
//!   node reaches exactly its own block), and the contracts agree between
//!   sparse and compressed.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use eclectic_bench::{fmt_ns, starved_host_warning, warning_json};
use eclectic_kernel::{
    force_rel_backend, rel_backend_for, Budget, BudgetExceeded, Rel, RelBackend, RelChoice,
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

/// Minimum speedup of sparse over dense at dimension 4096: the
/// content-proportional closure must clearly beat the `n · ⌈n/64⌉`-word
/// one where the crossover policy sends that dimension.
const SPARSE_SPEEDUP_MIN: f64 = 1.5;

/// Untimed warmup rounds and timed rounds of the interleaved arm sampling;
/// every round takes one sample of each arm.
const WARMUP_ROUNDS: usize = 2;
const SAMPLE_ROUNDS: usize = 12;

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

/// Times the closure of each relation in `rels` round-robin: round `i`
/// takes one sample of every arm, starting with arm `i mod 3`. Returns
/// each arm's sorted samples in nanoseconds.
fn interleaved_samples(rels: &[Rel; 3]) -> [Vec<f64>; 3] {
    let mut samples: [Vec<f64>; 3] = Default::default();
    for round in 0..WARMUP_ROUNDS + SAMPLE_ROUNDS {
        for k in 0..3 {
            let arm = (round + k) % 3;
            let t0 = Instant::now();
            black_box(rels[arm].closure_reflexive_transitive().count_ones());
            let ns = t0.elapsed().as_nanos() as f64;
            if round >= WARMUP_ROUNDS {
                samples[arm].push(ns);
            }
        }
    }
    for s in &mut samples {
        s.sort_by(f64::total_cmp);
    }
    samples
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
    sweeps_match_blocks: bool,
    total: bool,
    functional: bool,
    ok: bool,
}

/// Runs the 2²⁰-state block-ring capstone: the compressed closure must
/// complete under a byte budget the sparse closure trips on, its modal
/// sweeps must see exactly each node's own block, and the contracts must
/// agree between the two row backends.
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

    // `[p*]`/`⟨p*⟩` sweeps over the closure see exactly each node's own
    // block: marking the multiples of 193 (a prime above the block size,
    // so a block holds at most one), a node's `⟨p*⟩` holds iff its block
    // holds a marked node and `[p*]¬marked` iff it does not.
    let marked: Vec<bool> = (0..n).map(|i| i % 193 == 0).collect();
    let unmarked: Vec<bool> = marked.iter().map(|&m| !m).collect();
    let block_marked: Vec<bool> = (0..n)
        .map(|i| (i & !(BLOCK - 1)..(i | (BLOCK - 1)) + 1).any(|j| marked[j]))
        .collect();
    let sweeps_match_blocks = closed.diamond_states(&marked) == block_marked
        && closed
            .box_states(&unmarked)
            .iter()
            .zip(&block_marked)
            .all(|(&all_unmarked, &has_mark)| all_unmarked != has_mark);
    let total = closed.is_total(n) && sparse.is_total(n);
    let functional = comp.is_functional() == sparse.is_functional() && comp.is_functional();

    let ok = compressed_bytes < budget_bytes
        && sparse_bytes > budget_bytes
        && sparse_trips
        && sweeps_match_blocks
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
        sweeps_match_blocks,
        total,
        functional,
        ok,
    }
}

fn main() {
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

    let arms = [
        RelBackend::Dense,
        RelBackend::Sparse,
        RelBackend::Compressed,
    ];
    let name = |b: RelBackend| match b {
        RelBackend::Dense => "dense",
        RelBackend::Sparse => "sparse",
        RelBackend::Compressed => "compressed",
    };
    // Per row: (dim, median dense/sparse/compressed, the backend the
    // automatic policy picks, the arm with the lowest median).
    type Row = (usize, [f64; 3], RelBackend, RelBackend);
    let mut rows: Vec<Row> = Vec::new();
    for &n in &dims {
        let samples = interleaved_samples(&arms.map(|backend| build(n, Some(backend))));
        let med = samples.each_ref().map(|s| s[s.len() / 2]);
        for (k, s) in samples.iter().enumerate() {
            println!(
                "{:<40} median {:>12} min {:>12}",
                format!("rel_crossover/star/{}_{n}", name(arms[k])),
                fmt_ns(med[k]),
                fmt_ns(s[0]),
            );
        }
        let fastest = (0..3).min_by(|&a, &b| med[a].total_cmp(&med[b])).unwrap();
        rows.push((n, med, rel_backend_for(n), arms[fastest]));
    }
    if let Some(w) = starved_host_warning() {
        println!("WARN: {w}");
    }

    let gate_routing = rows
        .iter()
        .all(|&(_, _, picked, fastest)| picked == fastest);
    let sparse_speedup_4k = rows
        .iter()
        .find(|&&(n, ..)| n == 4096)
        .map(|&(_, med, ..)| med[0] / med[1])
        .unwrap_or(0.0);
    let gate_sparse = sparse_speedup_4k >= SPARSE_SPEEDUP_MIN;
    let pass = gate_routing && gate_sparse && identical && capstone_ok && large.ok;

    let mut json = String::from("{\n  \"bench\": \"rel_crossover\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!(
        "  \"sampling\": \"round-robin over the three arms, first arm rotated each round, \
         {SAMPLE_ROUNDS} timed rounds after {WARMUP_ROUNDS} warmup rounds\",\n"
    ));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!("  {},\n", warning_json()));
    json.push_str("  \"rows\": [\n");
    for (i, &(n, med, picked, fastest)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dim\": {n}, \"dense_ns\": {:.0}, \"sparse_ns\": {:.0}, \
             \"compressed_ns\": {:.0}, \"policy_backend\": \"{}\", \
             \"fastest_backend\": \"{}\", \"sparse_speedup_vs_dense\": {:.3}}}{}\n",
            med[0],
            med[1],
            med[2],
            name(picked),
            name(fastest),
            med[0] / med[1],
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"sparse_speedup_at_4096\": {sparse_speedup_4k:.3},\n  \
         \"sparse_speedup_threshold\": {SPARSE_SPEEDUP_MIN},\n  \
         \"gate_policy_picks_fastest\": {gate_routing},\n  \
         \"gate_sparse_speedup\": {gate_sparse},\n  \"verdicts_bit_identical\": {identical},\n"
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
         \"sweeps_match_blocks\": {}, \
         \"contracts_total_and_functional\": {}, \"completed\": {}}},\n",
        large.states,
        large.budget_bytes,
        large.compressed_bytes,
        large.sparse_bytes,
        large.closure_pairs,
        large.elapsed_ms,
        large.sparse_trips,
        large.sweeps_match_blocks,
        large.total && large.functional,
        large.ok,
    ));
    json.push_str(&format!("  \"pass\": {pass}\n}}\n"));
    std::fs::write("BENCH_rel.json", &json).expect("write BENCH_rel.json");
    println!(
        "\nBENCH_rel.json written (sparse {sparse_speedup_4k:.2}x dense at 4096, policy picks \
         the fastest arm: {gate_routing}, identical: {identical}, capstone: {capstone_ok}, \
         million-state: {})",
        large.ok
    );
    assert!(
        gate_sparse,
        "sparse is {sparse_speedup_4k:.2}x dense at 4096, below {SPARSE_SPEEDUP_MIN}x"
    );
    assert!(pass, "BENCH_rel gates failed");
}
