//! E7 (§5.2 + §5.1): the representation level — the paper's schema parses
//! verbatim, validates against the RPR W-grammar, and its denotational
//! meaning agrees with operational execution over a finite universe.

use std::sync::Arc;

use eclectic::logic::{Elem, Signature, Valuation};
use eclectic::rpr::wgrammar::{Child, DerivTree};
use eclectic::rpr::{
    denote, exec, parse_schema, wgrammar, DbState, FiniteUniverse, Schema, PAPER_COURSES_SCHEMA,
};
use eclectic::spec::domains::{bank, courses, library};
use eclectic::spec::fuzz::{build_domain, FuzzConfig};

fn paper_schema() -> (Schema, DbState) {
    let mut sig = Signature::new();
    sig.add_sort("student").unwrap();
    sig.add_sort("course").unwrap();
    let (rels, procs) = parse_schema(&mut sig, PAPER_COURSES_SCHEMA).unwrap();
    let dom = eclectic::logic::Domains::from_names(
        &sig,
        &[("student", &["ana"]), ("course", &["db", "logic"])],
    )
    .unwrap();
    let sig = Arc::new(sig);
    let schema = Schema::new(sig.clone(), rels, procs).unwrap();
    let state = DbState::new(sig, Arc::new(dom));
    (schema, state)
}

#[test]
fn paper_schema_parses_with_five_procedures() {
    let (schema, _) = paper_schema();
    let names: Vec<&str> = schema.procs().iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["initiate", "offer", "cancel", "enroll", "transfer"]);
    assert!(schema.procs().iter().all(|p| p.body.is_deterministic()));
}

#[test]
fn paper_schema_is_generated_by_the_w_grammar() {
    let (schema, _) = paper_schema();
    let tree = wgrammar::check_schema(&schema).unwrap();
    assert!(tree.node_count() > 30);
}

#[test]
fn printed_schema_reparses_and_revalidates() {
    let (schema, _) = paper_schema();
    let text = eclectic::rpr::schema_str(&schema);
    let mut sig2 = Signature::new();
    sig2.add_sort("student").unwrap();
    sig2.add_sort("course").unwrap();
    let (rels2, procs2) = parse_schema(&mut sig2, &text).unwrap();
    let schema2 = Schema::new(Arc::new(sig2), rels2, procs2).unwrap();
    wgrammar::check_schema(&schema2).unwrap();
}

/// `sig`'s sorts and function symbols, without its relations and
/// variables: what a schema's text is parsed against.
fn sorts_and_functions(sig: &Signature) -> Signature {
    let mut base = Signature::new();
    for s in sig.sort_ids() {
        base.add_sort(sig.sort_name(s)).unwrap();
    }
    for f in sig.func_ids() {
        let d = sig.func(f);
        base.add_func(&d.name, &d.domain, d.range).unwrap();
    }
    base
}

#[test]
fn printed_schemas_round_trip_on_every_packaged_and_factory_domain() {
    // Printing a schema and parsing the text back gives the same relations
    // (names and columns) and procedures whose bodies print the same.
    let mut schemas = vec![
        (
            "courses".to_string(),
            courses::courses(&Default::default())
                .unwrap()
                .representation,
        ),
        (
            "library".to_string(),
            library::library(&Default::default())
                .unwrap()
                .representation,
        ),
        (
            "bank".to_string(),
            bank::bank(&Default::default()).unwrap().representation,
        ),
    ];
    let cfg = FuzzConfig::default();
    for seed in 0..64u64 {
        schemas.push((
            format!("seed {seed}"),
            build_domain(seed, &cfg).unwrap().representation,
        ));
    }
    for (name, schema) in &schemas {
        let sig = schema.signature();
        let text = eclectic::rpr::schema_str(schema);
        let mut sig2 = sorts_and_functions(sig);
        let (rels2, procs2) =
            parse_schema(&mut sig2, &text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        let columns =
            |sig: &Signature, rels: &[eclectic::logic::PredId]| -> Vec<(String, Vec<String>)> {
                rels.iter()
                    .map(|&r| {
                        let d = sig.pred(r);
                        let cols = d
                            .domain
                            .iter()
                            .map(|&s| sig.sort_name(s).to_string())
                            .collect();
                        (d.name.clone(), cols)
                    })
                    .collect()
            };
        assert_eq!(
            columns(sig, schema.relations()),
            columns(&sig2, &rels2),
            "{name}"
        );
        assert_eq!(schema.procs().len(), procs2.len(), "{name}");
        for (a, b) in schema.procs().iter().zip(&procs2) {
            assert_eq!(a.name, b.name, "{name}");
            assert_eq!(
                eclectic::rpr::stmt_str(sig, &a.body),
                eclectic::rpr::stmt_str(&sig2, &b.body),
                "{name}: proc {}",
                a.name
            );
        }
    }
}

#[test]
fn procedure_meanings_are_total_functions() {
    // k(d) for deterministic procedures is a total function on the universe
    // (the paper: "the range of k is the set of all functions from U to U").
    let (schema, template) = paper_schema();
    let offered = schema.signature().pred_id("OFFERED").unwrap();
    let takes = schema.signature().pred_id("TAKES").unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered, takes], &[], 1 << 12).unwrap();
    // 2^2 OFFERED values × 2^2 TAKES values (1 student × 2 courses).
    assert_eq!(u.len(), 16);
    for (proc, args) in [
        ("initiate", vec![]),
        ("offer", vec![Elem(0)]),
        ("cancel", vec![Elem(1)]),
        ("enroll", vec![Elem(0), Elem(0)]),
        ("transfer", vec![Elem(0), Elem(0), Elem(1)]),
    ] {
        let k = denote::proc_meaning(&u, &schema, proc, &args).unwrap();
        assert!(k.is_functional(), "{proc} must be deterministic");
        assert!(k.is_total(u.len()), "{proc} must be total");
    }
}

#[test]
fn denotation_agrees_with_execution_for_every_procedure() {
    let (schema, template) = paper_schema();
    let offered = schema.signature().pred_id("OFFERED").unwrap();
    let takes = schema.signature().pred_id("TAKES").unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered, takes], &[], 1 << 12).unwrap();

    for (proc, args) in [
        ("offer", vec![Elem(1)]),
        ("cancel", vec![Elem(0)]),
        ("enroll", vec![Elem(0), Elem(1)]),
        ("transfer", vec![Elem(0), Elem(1), Elem(0)]),
    ] {
        let k = denote::proc_meaning(&u, &schema, proc, &args).unwrap();
        for i in 0..u.len() {
            let direct = exec::call_deterministic(&schema, &u.state(i), proc, &args).unwrap();
            let expected = u.index_of(&direct).unwrap();
            assert_eq!(
                k.image(i).into_iter().collect::<Vec<_>>(),
                vec![expected],
                "{proc} at state {i}"
            );
        }
    }
}

#[test]
fn nondeterministic_statement_meanings_compose() {
    // m obeys the union/composition/star rules as relations.
    let (schema, template) = paper_schema();
    let sig = schema.signature().clone();
    let offered = sig.pred_id("OFFERED").unwrap();
    let takes = sig.pred_id("TAKES").unwrap();
    let u = FiniteUniverse::enumerate(&template, &[offered, takes], &[], 1 << 12).unwrap();
    let env = Valuation::new();

    let offer_body = &schema.proc("offer").unwrap().body;
    let cancel_body = &schema.proc("cancel").unwrap().body;
    let c = sig.var_id("c").unwrap();
    let mut env2 = env.clone();
    env2.set(c, Elem(0));

    let m_offer = denote::meaning(&u, offer_body, &env2).unwrap();
    let m_cancel = denote::meaning(&u, cancel_body, &env2).unwrap();

    let union_stmt = offer_body.clone().union(cancel_body.clone());
    assert_eq!(
        denote::meaning(&u, &union_stmt, &env2).unwrap(),
        m_offer.union(&m_cancel)
    );
    let seq_stmt = offer_body.clone().seq(cancel_body.clone());
    assert_eq!(
        denote::meaning(&u, &seq_stmt, &env2).unwrap(),
        m_offer.compose(&m_cancel)
    );
    let star_stmt = offer_body.clone().star();
    assert_eq!(
        denote::meaning(&u, &star_stmt, &env2).unwrap(),
        m_offer.star(u.len())
    );
}

#[test]
fn undeclared_relation_is_rejected_by_the_grammar() {
    // A schema whose OPL uses a relation absent from SCL fails W-grammar
    // validation (the context-sensitive check of §5.1.1).
    let mut sig = Signature::new();
    sig.add_sort("course").unwrap();
    // Declare GHOST in the signature but not in the schema declaration list.
    let course = sig.sort_id("course").unwrap();
    let ghost = sig.add_db_predicate("GHOST", &[course]).unwrap();
    let (rels, mut procs) = parse_schema(
        &mut sig,
        "schema R(course); proc touch(c: course) = insert R(c) end-schema",
    )
    .unwrap();
    // Tamper with the body to use GHOST.
    let c = sig.var_id("c").unwrap();
    procs[0].body = eclectic::rpr::Stmt::Insert(ghost, vec![eclectic::logic::Term::Var(c)]);
    let schema = Schema::new(Arc::new(sig), rels, procs).unwrap();
    assert!(wgrammar::check_schema(&schema).is_err());
}

/// Adds one `i` to the arity of the first `rname ALPHA has NUM in DECS`
/// notion in pre-order; `false` when the tree has none. Names are
/// one-character tokens, so the first `in` ends the arity.
fn add_arity_to_first_rname(tree: &mut DerivTree) -> bool {
    if tree.notion.first().map(String::as_str) == Some("rname") {
        if let Some(at) = tree.notion.iter().position(|t| t == "in") {
            tree.notion.insert(at, "i".to_string());
            return true;
        }
    }
    for child in &mut tree.children {
        if let Child::Node(n) = child {
            if add_arity_to_first_rname(n) {
                return true;
            }
        }
    }
    false
}

#[test]
fn wrong_arity_is_rejected_on_every_factory_schema() {
    // §5.4 step 1 must be able to say no on generated schemas too: on each
    // of 64 factory seeds, one extra `i` in the arity of the first
    // relation-name notion leaves a derivation no hyperrule instance covers.
    let g = wgrammar::rpr_wgrammar();
    let cfg = FuzzConfig::default();
    for seed in 0..64u64 {
        let spec = build_domain(seed, &cfg).unwrap();
        let tree = wgrammar::schema_derivation(&spec.representation).unwrap();
        wgrammar::validate(&g, &tree).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut tampered = tree.clone();
        assert!(
            add_arity_to_first_rname(&mut tampered),
            "seed {seed}: no rname node"
        );
        match wgrammar::validate(&g, &tampered) {
            Err(e) => assert!(
                e.to_string().contains("no hyperrule instance"),
                "seed {seed}: {e}"
            ),
            Ok(()) => panic!("seed {seed}: the tampered derivation validated"),
        }
    }
}
