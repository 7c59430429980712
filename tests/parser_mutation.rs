//! No parser panics on malformed text: seeded byte mutations of the paper's
//! courses texts (the representation schema, the transition axiom, the §4.2
//! equations, one RPR statement and one query term) are fed to every text
//! parser of the workspace under `catch_unwind`. A mutant may parse or be
//! rejected with a typed error; it may never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use eclectic::algebraic::{parse_equation, AlgSignature};
use eclectic::logic::{parse_formula, parse_term, Signature};
use eclectic::rpr::{parse_schema, parse_stmt, parse_wff, PAPER_COURSES_SCHEMA};
use eclectic::spec::domains::courses;
use eclectic_kernel::Rng;

/// Mutants drawn per input text (the equations count as one input).
const MUTANTS_PER_INPUT: usize = 4_000;

/// The pinned seed of the mutation stream.
const SEED: u64 = 0x9a75_e12b_0d1e_5eed;

/// The transition axiom of the courses information level (§3.2).
const TRANSITION_AXIOM: &str =
    "~exists s:student. exists c:course. dia (takes(s, c) & dia ~exists c':course. takes(s, c'))";

/// The `transfer` procedure's body, read as a statement.
const STATEMENT: &str =
    "if TAKES(s, c) & ~TAKES(s, c2) & OFFERED(c2) then (delete TAKES(s, c); insert TAKES(s, c2)) fi";

/// The `transfer` procedure's guard, read as a wff.
const WFF: &str = "TAKES(s, c) & ~TAKES(s, c2) & OFFERED(c2)";

/// A ground query term over the courses functions signature.
const QUERY_TERM: &str =
    "takes(ana, logic, transfer(ana, db, logic, enroll(ana, db, offer(logic, offer(db, initiate)))))";

/// Bytes that mutations insert besides copies of the source's own bytes
/// and arbitrary bytes: the punctuation and keywords' letters the grammars
/// branch on.
const ALPHABET: &[u8] = b"()[],;:.=&|~!<>?*-_ '\"#\n\t0123456789aeifnstxyzSTU";

/// The text parsers under test.
#[derive(Clone, Copy)]
enum Parser {
    Schema,
    Formula,
    Equation,
    Stmt,
    Wff,
    Term,
}

/// The signatures each parser extends while it reads.
struct Sigs {
    schema: Signature,
    info: Signature,
    functions: AlgSignature,
    repr: Signature,
}

impl Sigs {
    fn courses() -> Self {
        let config = courses::CoursesConfig::default();
        let mut schema = Signature::new();
        schema.add_sort("student").unwrap();
        schema.add_sort("course").unwrap();
        let info = (*courses::information_level().unwrap().signature).clone();
        let functions = courses::functions_signature(&config).unwrap();
        let repr = (**courses::representation_level(&config).unwrap().0.signature()).clone();
        Sigs {
            schema,
            info,
            functions,
            repr,
        }
    }

    /// Runs `parser` on `text` against a fresh copy of its signature: `None`
    /// if it panicked, else whether it parsed.
    fn parses(&self, parser: Parser, text: &str) -> Option<bool> {
        catch_unwind(AssertUnwindSafe(|| match parser {
            Parser::Schema => parse_schema(&mut self.schema.clone(), text).is_ok(),
            Parser::Formula => parse_formula(&mut self.info.clone(), text).is_ok(),
            Parser::Equation => parse_equation(&mut self.functions.clone(), "m", text).is_ok(),
            Parser::Stmt => parse_stmt(&mut self.repr.clone(), text).is_ok(),
            Parser::Wff => parse_wff(&mut self.repr.clone(), text).is_ok(),
            Parser::Term => parse_term(&mut self.functions.logic().clone(), text).is_ok(),
        }))
        .ok()
    }
}

/// Replaces, inserts or deletes 1–3 bytes of `src`.
fn mutate(rng: &mut Rng, src: &[u8]) -> Vec<u8> {
    let mut out = src.to_vec();
    for _ in 0..rng.range(1, 3) {
        let byte = match rng.below(3) {
            0 => src[rng.below(src.len())],
            1 => ALPHABET[rng.below(ALPHABET.len())],
            _ => rng.below(256) as u8,
        };
        match rng.below(3) {
            0 if !out.is_empty() => {
                let i = rng.below(out.len());
                out[i] = byte;
            }
            1 => out.insert(rng.below(out.len() + 1), byte),
            _ if !out.is_empty() => {
                out.remove(rng.below(out.len()));
            }
            _ => out.push(byte),
        }
    }
    out
}

#[test]
fn byte_mutated_spec_texts_never_panic_a_parser() {
    let sigs = Sigs::courses();
    // Each input with the parsers that read it and its mutant count; the
    // first parser must accept the unmutated text. The statement's mutants
    // also go to the wff parser. The equations share one input's count.
    let per_equation = MUTANTS_PER_INPUT / courses::PAPER_EQUATIONS.len();
    let mut inputs: Vec<(&str, &[Parser], usize)> = vec![
        (PAPER_COURSES_SCHEMA, &[Parser::Schema], MUTANTS_PER_INPUT),
        (TRANSITION_AXIOM, &[Parser::Formula], MUTANTS_PER_INPUT),
        (STATEMENT, &[Parser::Stmt, Parser::Wff], MUTANTS_PER_INPUT),
        (WFF, &[Parser::Wff], MUTANTS_PER_INPUT),
        (QUERY_TERM, &[Parser::Term], MUTANTS_PER_INPUT),
    ];
    for (_, eq) in courses::PAPER_EQUATIONS {
        inputs.push((eq, &[Parser::Equation], per_equation));
    }

    for (text, parsers, _) in &inputs {
        assert_eq!(
            sigs.parses(parsers[0], text),
            Some(true),
            "the unmutated input must parse: {text}"
        );
    }

    let mut rng = Rng::new(SEED);
    let (mut runs, mut parsed, mut panics) = (0usize, 0usize, Vec::new());
    for (text, parsers, count) in &inputs {
        for _ in 0..*count {
            let mutant = mutate(&mut rng, text.as_bytes());
            let mutant = String::from_utf8_lossy(&mutant);
            for &parser in *parsers {
                runs += 1;
                match sigs.parses(parser, &mutant) {
                    None => panics.push(mutant.to_string()),
                    Some(ok) => parsed += usize::from(ok),
                }
            }
        }
    }
    assert!(panics.is_empty(), "{} of {runs} parses panicked: {panics:?}", panics.len());
    // Some mutants survive as valid text, so the stream reaches past the
    // tokenizers into the grammars and the signature checks.
    assert!(parsed > 0, "no mutant of {runs} parsed");
}
