//! E1: modal model checking of the §3.2 axioms over Kripke universes of
//! growing carrier size.

use eclectic_bench::Runner;
use eclectic_kernel::Budget;
use eclectic_refine::{explore_algebraic_budget, AlgExploreLimits};
use eclectic_spec::domains::courses;
use eclectic_temporal::satisfaction;

fn main() {
    let mut r = Runner::new("e1_model_checking").sample_size(20);

    for (students, crs) in [(1, 2), (2, 2), (2, 3)] {
        let config = courses::CoursesConfig::sized(students, crs, courses::EquationStyle::Paper);
        let spec = courses::courses(&config).unwrap();
        let exploration = explore_algebraic_budget(
            &spec.functions,
            &spec.interp_i,
            spec.info_signature(),
            &spec.info_domains,
            AlgExploreLimits {
                max_depth: 8,
                max_states: 10_000,
            },
            &Budget::unlimited(),
        )
        .unwrap();
        let u = exploration.universe;
        let label = format!("{students}s{crs}c_{}states", u.state_count());

        let static_ax = &spec.information.axioms[0].formula;
        let trans_ax = &spec.information.axioms[1].formula;

        r.bench(format!("static_axiom_all_states/{label}"), || {
            for s in u.state_indices() {
                assert!(satisfaction::models_at(&u, s, static_ax).unwrap());
            }
        });
        r.bench(format!("transition_axiom_all_states/{label}"), || {
            for s in u.state_indices() {
                assert!(satisfaction::models_at(&u, s, trans_ax).unwrap());
            }
        });
    }
    r.finish();
}
