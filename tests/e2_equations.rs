//! E2 (§4.2): the paper's Q-equations evaluate every query correctly, and
//! the mechanically synthesised equation set is observationally equivalent
//! to the hand-written one. Correctness is judged against an independent
//! reference simulator (plain Rust sets implementing the prose semantics).

use std::collections::BTreeSet;

use eclectic::algebraic::induction::GroundSpace;
use eclectic::algebraic::{
    confluence, induction, parse_equations, AlgSignature, AlgSpec, ConditionalEquation, Rewriter,
};
use eclectic::logic::Term;
use eclectic::spec::domains::courses::{functions_level, CoursesConfig, EquationStyle};
use eclectic::spec::domains::{bank, library};
use eclectic_kernel::Budget;

/// Straight-line reference simulator for the courses prose semantics.
#[derive(Debug, Clone, Default, PartialEq)]
struct RefState {
    offered: BTreeSet<String>,
    takes: BTreeSet<(String, String)>,
}

impl RefState {
    fn apply(&mut self, op: &str, args: &[String]) {
        match op {
            "initiate" => {
                self.offered.clear();
                self.takes.clear();
            }
            "offer" => {
                self.offered.insert(args[0].clone());
            }
            "cancel" => {
                let c = &args[0];
                if !self.takes.iter().any(|(_, tc)| tc == c) {
                    self.offered.remove(c);
                }
            }
            "enroll" => {
                let (s, c) = (&args[0], &args[1]);
                if self.offered.contains(c) {
                    self.takes.insert((s.clone(), c.clone()));
                }
            }
            "transfer" => {
                let (s, c, c2) = (&args[0], &args[1], &args[2]);
                let pre = self.takes.contains(&(s.clone(), c.clone()))
                    && !self.takes.contains(&(s.clone(), c2.clone()))
                    && self.offered.contains(c2);
                if pre {
                    self.takes.remove(&(s.clone(), c.clone()));
                    self.takes.insert((s.clone(), c2.clone()));
                }
            }
            other => panic!("unknown op {other}"),
        }
    }
}

/// Decomposes a ground state term into its operation list (innermost
/// first), returning op names with parameter-name arguments.
fn ops_of(sig: &eclectic::algebraic::AlgSignature, t: &Term) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut cur = t.clone();
    loop {
        let Term::App(f, args) = cur else { unreachable!() };
        let name = sig.logic().func(f).name.clone();
        let takes_state = sig.update_takes_state(f).unwrap();
        let (params, rest) = if takes_state {
            let (p, r) = args.split_at(args.len() - 1);
            (p.to_vec(), Some(r[0].clone()))
        } else {
            (args, None)
        };
        let pnames = params
            .iter()
            .map(|p| match p {
                Term::App(c, _) => sig.logic().func(*c).name.clone(),
                Term::Var(_) => unreachable!("ground"),
            })
            .collect();
        out.push((name, pnames));
        match rest {
            Some(inner) => cur = inner,
            None => break,
        }
    }
    out.reverse();
    out
}

fn agree_with_reference(style: EquationStyle, depth: usize) {
    let config = CoursesConfig {
        students: vec!["ana".into()],
        courses: vec!["db".into(), "logic".into()],
        style,
    };
    let spec = functions_level(&config).unwrap();
    let sig = spec.signature().clone();
    let mut rw = Rewriter::new(&spec);
    let offered = sig.logic().func_id("offered").unwrap();
    let takes = sig.logic().func_id("takes").unwrap();

    let mut checked = 0usize;
    for t in induction::state_terms(&sig, depth).unwrap() {
        // Replay in the reference simulator.
        let mut reference = RefState::default();
        for (op, args) in ops_of(&sig, &t) {
            reference.apply(&op, &args);
        }
        // Compare every simple observation.
        for c in ["db", "logic"] {
            let cterm = Term::constant(sig.logic().func_id(c).unwrap());
            let got = rw.eval_query(offered, std::slice::from_ref(&cterm), &t).unwrap();
            let want = reference.offered.contains(c);
            assert_eq!(got == sig.true_term(), want, "offered({c}) at {t:?}");
            let s = Term::constant(sig.logic().func_id("ana").unwrap());
            let got = rw.eval_query(takes, &[s, cterm], &t).unwrap();
            let want = reference.takes.contains(&("ana".into(), c.into()));
            assert_eq!(got == sig.true_term(), want, "takes(ana,{c}) at {t:?}");
            checked += 2;
        }
    }
    assert!(checked > 100, "exercised {checked} observations");
}

#[test]
fn paper_equations_agree_with_reference_simulator() {
    agree_with_reference(EquationStyle::Paper, 3);
}

#[test]
fn synthesized_equations_agree_with_reference_simulator() {
    agree_with_reference(EquationStyle::Synthesized, 3);
}

#[test]
fn paper_equation_count_matches_section_4_2() {
    let spec = functions_level(&CoursesConfig::default()).unwrap();
    // 15 numbered equations, equation 6 split into its two conditionals.
    assert_eq!(spec.equations().len(), 16);
    for i in [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15] {
        assert!(
            spec.equation(&format!("eq{i}")).is_some(),
            "equation {i} present"
        );
    }
    assert!(spec.equation("eq6a").is_some());
    assert!(spec.equation("eq6b").is_some());
}

#[test]
fn long_random_traces_agree_between_styles() {
    let mk = |style| {
        functions_level(&CoursesConfig {
            style,
            ..CoursesConfig::default()
        })
        .unwrap()
    };
    let paper = mk(EquationStyle::Paper);
    let synth = mk(EquationStyle::Synthesized);
    let sig = paper.signature().clone();
    let mut rw_p = Rewriter::new(&paper);
    let mut rw_s = Rewriter::new(&synth);

    // Deterministic xorshift for reproducibility.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    };

    let updates: Vec<_> = sig
        .updates()
        .filter(|&u| sig.update_takes_state(u).unwrap())
        .collect();
    let initiate = sig.logic().func_id("initiate").unwrap();

    for _ in 0..20 {
        let mut t = Term::constant(initiate);
        for _ in 0..60 {
            let u = updates[next(updates.len())];
            let sorts = sig.update_params(u).unwrap();
            let mut args: Vec<Term> = sorts
                .iter()
                .map(|&s| {
                    let names = sig.param_names(s);
                    Term::constant(names[next(names.len())])
                })
                .collect();
            args.push(t);
            t = Term::App(u, args);
        }
        for q in sig.queries() {
            for params in induction::param_tuples(&sig, &sig.query_params(q).unwrap()).unwrap() {
                let vp = rw_p.eval_query(q, &params, &t).unwrap();
                let vs = rw_s.eval_query(q, &params, &t).unwrap();
                assert_eq!(vp, vs);
            }
        }
    }
}

#[test]
fn paper_equation_overlaps_are_harmless() {
    // The guarded overlaps among the 16 equations (eq3/eq4, eq6a/eq6b,
    // eq13/eq14/eq15, …) never disagree on ground redexes — the system is
    // ground confluent on the example.
    let spec = functions_level(&CoursesConfig::default()).unwrap();
    let overlaps = confluence::critical_overlaps(&spec).unwrap();
    assert!(!overlaps.is_empty(), "the paper's equations do overlap");
    let space = GroundSpace::new(spec.signature(), 2).unwrap();
    let pairs = overlap_pairs(&spec, &overlaps);
    let (resolved, exhausted) =
        confluence::resolve_overlaps(&spec, &space, &pairs, &Budget::unlimited()).unwrap();
    assert!(exhausted.is_none());
    for (o, (_both, disagreement)) in overlaps.iter().zip(&resolved) {
        assert!(
            disagreement.is_none(),
            "{}/{} disagree: {disagreement:?}",
            o.first,
            o.second
        );
    }
}

/// The equation pairs behind a list of overlaps, in list order.
fn overlap_pairs<'s>(
    spec: &'s AlgSpec,
    overlaps: &[confluence::Overlap],
) -> Vec<(&'s ConditionalEquation, &'s ConditionalEquation)> {
    overlaps
        .iter()
        .map(|o| {
            (
                spec.equation(&o.first).unwrap(),
                spec.equation(&o.second).unwrap(),
            )
        })
        .collect()
}

/// The functions level of every packaged domain.
fn every_domain() -> Vec<(&'static str, AlgSpec)> {
    vec![
        (
            "courses",
            functions_level(&CoursesConfig::default()).unwrap(),
        ),
        (
            "library",
            library::functions_level(&library::LibraryConfig::default()).unwrap(),
        ),
        (
            "bank",
            bank::functions_level(&bank::BankConfig::default()).unwrap(),
        ),
    ]
}

#[test]
fn resolving_overlaps_together_matches_one_pair_at_a_time() {
    // One rewriter serves the whole list, so later pairs see a memo warmed
    // by earlier ones; memo warmth must never change a verdict.
    for (name, spec) in every_domain() {
        let overlaps = confluence::critical_overlaps(&spec).unwrap();
        let space = GroundSpace::new(spec.signature(), 2).unwrap();
        let pairs = overlap_pairs(&spec, &overlaps);
        let (together, exhausted) =
            confluence::resolve_overlaps(&spec, &space, &pairs, &Budget::unlimited()).unwrap();
        assert!(exhausted.is_none(), "{name}");
        let mut one_at_a_time = Vec::new();
        for pair in &pairs {
            let (r, _) =
                confluence::resolve_overlaps(&spec, &space, &[*pair], &Budget::unlimited())
                    .unwrap();
            one_at_a_time.extend(r);
        }
        assert_eq!(together, one_at_a_time, "{name}");
    }
}

#[test]
fn pair_capped_confluence_returns_the_uncapped_prefix() {
    for (name, spec) in every_domain() {
        let overlaps = confluence::critical_overlaps(&spec).unwrap();
        if overlaps.is_empty() {
            continue;
        }
        let space = GroundSpace::new(spec.signature(), 2).unwrap();
        let pairs = overlap_pairs(&spec, &overlaps);
        let (all, _) =
            confluence::resolve_overlaps(&spec, &space, &pairs, &Budget::unlimited()).unwrap();
        for cap in [0, pairs.len() - 1] {
            let budget = Budget::unlimited().with_max_nodes(cap);
            let (prefix, exhausted) =
                confluence::resolve_overlaps(&spec, &space, &pairs, &budget).unwrap();
            let e = exhausted.expect(name);
            assert_eq!((e.stage, e.completed_units), ("confluence", cap), "{name}");
            assert_eq!(prefix[..], all[..cap], "{name}: cap {cap}");
        }
    }
}

/// `offered` over two courses with a genuinely conflicting pair (`good`
/// and `evil` both define `offered(c, offer(c, U))`) next to guarded,
/// harmless overlaps (`good`/`keep`, `gone`/`other`).
fn conflicting_spec() -> AlgSpec {
    let mut a = AlgSignature::new().unwrap();
    let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
    a.add_query("offered", &[course], None).unwrap();
    a.add_update("initiate", &[], false).unwrap();
    a.add_update("offer", &[course], true).unwrap();
    a.add_update("cancel", &[course], true).unwrap();
    a.add_param_var("c", course).unwrap();
    a.add_param_var("c'", course).unwrap();
    let eqs = parse_equations(
        &mut a,
        &[
            ("base", "offered(c, initiate) = False"),
            ("good", "offered(c, offer(c, U)) = True"),
            ("evil", "offered(c, offer(c, U)) = False"),
            (
                "keep",
                "c != c' ==> offered(c, offer(c', U)) = offered(c, U)",
            ),
            ("gone", "offered(c, cancel(c, U)) = False"),
            (
                "other",
                "c != c' ==> offered(c, cancel(c', U)) = offered(c, U)",
            ),
        ],
    )
    .unwrap();
    AlgSpec::new(a, eqs).unwrap()
}

#[test]
fn a_conflicting_pair_disagrees_alone_among_harmless_pairs() {
    let spec = conflicting_spec();
    let eq = |name: &str| spec.equation(name).unwrap();
    let pairs = [
        (eq("good"), eq("keep")),
        (eq("good"), eq("evil")),
        (eq("gone"), eq("other")),
    ];
    let space = GroundSpace::new(spec.signature(), 2).unwrap();
    let (resolved, exhausted) =
        confluence::resolve_overlaps(&spec, &space, &pairs, &Budget::unlimited()).unwrap();
    assert!(exhausted.is_none());
    let disagreeing: Vec<bool> = resolved.iter().map(|(_, d)| d.is_some()).collect();
    assert_eq!(disagreeing, [false, true, false], "{resolved:?}");
    assert!(resolved[1].0 > 0, "the conflicting rules fire together");
}

#[test]
fn an_overlap_free_spec_has_no_overlaps() {
    let mut a = AlgSignature::new().unwrap();
    let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
    a.add_query("offered", &[course], None).unwrap();
    a.add_update("initiate", &[], false).unwrap();
    a.add_update("offer", &[course], true).unwrap();
    a.add_param_var("c", course).unwrap();
    let eqs = parse_equations(&mut a, &[("all", "offered(c, U) = False")]).unwrap();
    let spec = AlgSpec::new(a, eqs).unwrap();
    assert!(confluence::critical_overlaps(&spec).unwrap().is_empty());
}
