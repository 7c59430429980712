//! E3: the §4.4(a) analyses — circularity detection and exhaustive
//! sufficient-completeness checking — vs check depth and domain.

use eclectic_algebraic::{completeness, termination};
use eclectic_bench::Runner;
use eclectic_spec::domains::{bank, courses, library};

fn main() {
    let mut r = Runner::new("e3_completeness").sample_size(10);

    let specs = vec![
        (
            "courses",
            courses::functions_level(&courses::CoursesConfig::default()).unwrap(),
        ),
        (
            "library",
            library::functions_level(&library::LibraryConfig::default()).unwrap(),
        ),
        (
            "bank",
            bank::functions_level(&bank::BankConfig::default()).unwrap(),
        ),
    ];

    for (name, spec) in &specs {
        r.bench(format!("termination/{name}"), || {
            let res = termination::check_termination(spec).unwrap();
            assert!(res.is_terminating());
        });
        for depth in [1usize, 2, 3] {
            r.bench(format!("exhaustive_{name}/{depth}"), || {
                let res = completeness::exhaustive(spec, depth, 10).unwrap();
                assert!(res.is_sufficiently_complete());
            });
        }
    }
    r.finish();
}
