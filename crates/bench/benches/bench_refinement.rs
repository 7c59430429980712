//! E4/E6: the 1→2 refinement obligations — exploration of `M(T2)` and
//! checking of all axioms at all states — vs exploration depth and carrier
//! size; accessibility-policy ablation (single step vs transitive closure),
//! and the observational-dedup ablation (term-level enumeration grows
//! exponentially where the state quotient stays polynomial).

use eclectic_bench::Runner;
use eclectic_kernel::Budget;
use eclectic_refine::{check_refinement_1_2_budget, AlgExploreLimits, Refine12Config};
use eclectic_spec::domains::courses;
use eclectic_temporal::AccessibilityPolicy;

fn main() {
    let mut r = Runner::new("e4_e6_refinement").sample_size(10);

    for (students, crs, depth) in [(1, 2, 6), (2, 2, 6), (2, 2, 8)] {
        let config = courses::CoursesConfig::sized(students, crs, courses::EquationStyle::Paper);
        let spec = courses::courses(&config).unwrap();
        for policy in [AccessibilityPolicy::AsIs, AccessibilityPolicy::TransitiveClosure] {
            let tag = format!(
                "{students}s{crs}c_d{depth}_{}",
                match policy {
                    AccessibilityPolicy::AsIs => "step",
                    AccessibilityPolicy::TransitiveClosure => "closure",
                }
            );
            r.bench(format!("check_1_2/{tag}"), || {
                let mut cfg = Refine12Config::quick();
                cfg.limits = AlgExploreLimits {
                    max_depth: depth,
                    max_states: 10_000,
                };
                cfg.policy = policy;
                cfg.completeness_depth = 2;
                let res = check_refinement_1_2_budget(
                    &spec.information,
                    &spec.functions,
                    &spec.interp_i,
                    spec.info_signature(),
                    &spec.info_domains,
                    cfg,
                    &Budget::unlimited(),
                    1,
                )
                .unwrap();
                assert!(res.is_correct());
            });
        }
    }

    // Ablation: raw term enumeration vs the observational quotient. The
    // number of distinct *terms* explodes with depth while the number of
    // distinct *states* is bounded by the valid-state space.
    let config = courses::CoursesConfig::sized(1, 2, courses::EquationStyle::Paper);
    let spec = courses::functions_level(&config).unwrap();
    let sig = spec.signature().clone();
    for depth in [2usize, 3, 4] {
        r.bench(format!("term_enumeration/{depth}"), || {
            eclectic_algebraic::induction::state_terms(&sig, depth)
                .unwrap()
                .len()
        });
        r.bench(format!("state_quotient/{depth}"), || {
            let mut rw = eclectic_algebraic::Rewriter::new(&spec);
            let terms = eclectic_algebraic::induction::state_terms(&sig, depth).unwrap();
            eclectic_algebraic::observe::quotient_states(&mut rw, &terms)
                .unwrap()
                .len()
        });
    }
    r.finish();
}
