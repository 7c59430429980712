//! `eclectic` — command-line front end for the tri-level specification
//! framework.
//!
//! ```text
//! eclectic axioms    <domain>                    print the T1 axioms
//! eclectic equations <domain> [--style paper|synth]
//! eclectic schema    <domain>                    print the T3 schema
//! eclectic verify    <domain> [--depth N] [--deadline-ms N] [--max-nodes N]
//! eclectic trace     <domain> op[:a,b] …         replay operations
//! ```
//!
//! Domains: `courses`, `library`, `bank`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use eclectic::algebraic::equation_str;
use eclectic::logic::{formula_display, Elem};
use eclectic::rpr::{exec, schema_str};
use eclectic::spec::domains::{bank, courses, library};
use eclectic::spec::{verify, TriLevelSpec, VerifyConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: eclectic <axioms|equations|schema|verify|trace> <courses|library|bank> [args]\n\
         \n\
         eclectic axioms courses\n\
         eclectic equations courses --style synth\n\
         eclectic schema bank\n\
         eclectic verify library --depth 8 --deadline-ms 5000 --max-nodes 100000\n\
         (env fallbacks: ECLECTIC_DEADLINE_MS, ECLECTIC_MAX_NODES)\n\
         eclectic trace courses initiate offer:db enroll:ana,db cancel:db"
    );
    ExitCode::FAILURE
}

fn build(domain: &str, style: courses::EquationStyle) -> Result<TriLevelSpec, String> {
    match domain {
        "courses" => courses::courses(&courses::CoursesConfig {
            style,
            ..courses::CoursesConfig::default()
        })
        .map_err(|e| e.to_string()),
        "library" => library::library(&library::LibraryConfig::default()).map_err(|e| e.to_string()),
        "bank" => bank::bank(&bank::BankConfig::default()).map_err(|e| e.to_string()),
        other => Err(format!("unknown domain `{other}`")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The equation style named by `--style`: the paper's when the flag is
/// absent; a missing or unknown value is an error.
fn style_arg(args: &[String]) -> Result<courses::EquationStyle, String> {
    if !args.iter().any(|a| a == "--style") {
        return Ok(courses::EquationStyle::Paper);
    }
    match flag_value(args, "--style").unwrap_or_default().as_str() {
        "paper" => Ok(courses::EquationStyle::Paper),
        "synth" | "synthesized" => Ok(courses::EquationStyle::Synthesized),
        other => Err(format!("--style expects `paper` or `synth`, got {other:?}")),
    }
}

/// The exploration depth named by `--depth`: 8 when the flag is absent; a
/// missing, negative or non-numeric value is an error.
fn depth_arg(args: &[String]) -> Result<usize, String> {
    if !args.iter().any(|a| a == "--depth") {
        return Ok(8);
    }
    let raw = flag_value(args, "--depth").unwrap_or_default();
    raw.parse()
        .map_err(|_| format!("--depth expects a non-negative integer, got {raw:?}"))
}

/// A numeric limit from a command-line flag, falling back to an environment
/// variable: `None` when neither is set. A flag with a missing or
/// unparseable value, or an unparseable environment value, is an error
/// naming its source, never a silently absent bound.
fn limit_value(args: &[String], flag: &str, env: &str) -> Result<Option<u64>, String> {
    let (source, raw) = if args.iter().any(|a| a == flag) {
        (flag, flag_value(args, flag).unwrap_or_default())
    } else {
        match std::env::var(env) {
            Ok(v) => (env, v),
            Err(std::env::VarError::NotPresent) => return Ok(None),
            Err(std::env::VarError::NotUnicode(v)) => (env, v.to_string_lossy().into_owned()),
        }
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{source} expects a non-negative integer, got {raw:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(domain)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let spec = match style_arg(&args).and_then(|style| build(domain, style)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "axioms" => {
            for ax in &spec.information.axioms {
                println!(
                    "{:<32} [{}]  {}",
                    ax.name,
                    match ax.kind() {
                        eclectic::logic::ConstraintKind::Static => "static",
                        eclectic::logic::ConstraintKind::Transition => "transition",
                    },
                    formula_display(&spec.information.signature, &ax.formula)
                );
            }
            ExitCode::SUCCESS
        }
        "equations" => {
            for eq in spec.functions.equations() {
                println!("{}", equation_str(spec.functions.signature(), eq));
            }
            ExitCode::SUCCESS
        }
        "schema" => {
            print!("{}", schema_str(&spec.representation));
            ExitCode::SUCCESS
        }
        "verify" => {
            let mut config = VerifyConfig::quick();
            let limits = depth_arg(&args).and_then(|depth| {
                let deadline = limit_value(&args, "--deadline-ms", "ECLECTIC_DEADLINE_MS")?;
                let nodes = limit_value(&args, "--max-nodes", "ECLECTIC_MAX_NODES")?;
                Ok((depth, deadline, nodes))
            });
            let (depth, deadline_ms, max_nodes) = match limits {
                Ok(limits) => limits,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            config.refine12.limits.max_depth = depth;
            config.deadline_ms = deadline_ms;
            config.max_nodes = max_nodes.map(|n| usize::try_from(n).unwrap_or(usize::MAX));
            match verify(&spec, &config) {
                Ok(outcome) => {
                    for s in &outcome.stages {
                        let exhausted = s.exhausted.as_ref().map(|e| format!("  {e}"));
                        let (name, ms) = (s.name, s.elapsed_ms);
                        println!("  stage {name:<9} {ms:>6} ms{}", exhausted.unwrap_or_default());
                    }
                    println!(
                        "W-grammar syntax check: {}",
                        if outcome.grammar_ok { "ok" } else { "FAILED" }
                    );
                    println!("{}", outcome.report);
                    match &outcome.dynamic.skipped {
                        Some(reason) => println!("dynamic (PDL) obligations: skipped ({reason})"),
                        None => println!(
                            "dynamic (PDL) obligations: {} ({} applications over {} states, {} failures, {} denotations computed / {} cache hits)",
                            if outcome.dynamic.is_correct() { "ok" } else { "FAILED" },
                            outcome.dynamic.checked,
                            outcome.dynamic.universe_states,
                            outcome.dynamic.failures.len(),
                            outcome.dynamic.cache_stats.computed,
                            outcome.dynamic.cache_stats.hits,
                        ),
                    }
                    println!(
                        "cross-level testing: {} comparisons, {}",
                        outcome.cross_stats.comparisons,
                        if outcome.cross_mismatch.is_none() {
                            "all agree"
                        } else {
                            "MISMATCH"
                        }
                    );
                    if let Some(e) = outcome.exhausted() {
                        println!("budget exhausted: {e} (partial report)");
                    }
                    if outcome.is_correct() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "trace" => {
            let schema = &spec.representation;
            let mut state = spec.empty_state();
            for call in &args[2..] {
                if call.starts_with("--") {
                    break;
                }
                let (name, argtext) = match call.split_once(':') {
                    Some((n, a)) => (n, a),
                    None => (call.as_str(), ""),
                };
                let Some(proc) = schema.proc(name) else {
                    eprintln!("error: unknown procedure `{name}`");
                    return ExitCode::FAILURE;
                };
                let names: Vec<&str> =
                    argtext.split(',').filter(|s| !s.is_empty()).collect();
                if names.len() != proc.params.len() {
                    eprintln!(
                        "error: `{name}` takes {} argument(s), got {}",
                        proc.params.len(),
                        names.len()
                    );
                    return ExitCode::FAILURE;
                }
                let mut elems: Vec<Elem> = Vec::new();
                for (&p, n) in proc.params.iter().zip(&names) {
                    let sort = schema.signature().var(p).sort;
                    match spec.repr_domains.elem_by_name(sort, n) {
                        Some(e) => elems.push(e),
                        None => {
                            eprintln!(
                                "error: `{n}` is not a {}",
                                schema.signature().sort_name(sort)
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                let before = state.clone();
                state = match exec::call_deterministic(schema, &state, name, &elems) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "{call:<28} {}",
                    if state == before {
                        "no effect (precondition failed)"
                    } else {
                        "applied"
                    }
                );
            }
            println!("\n{}", state.render().unwrap_or_default());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
