//! The `eclectic` command line: a malformed `--depth`, `--style`,
//! `--deadline-ms` or `--max-nodes` (or a malformed `ECLECTIC_DEADLINE_MS`/
//! `ECLECTIC_MAX_NODES` fallback) is rejected with an `error:` line and a
//! failing exit code before any verification runs, a well-formed limit is
//! applied, a well-formed `--style` selects the equations, and `verify`
//! opens its report with one line per stage.

use std::process::{Command, Output};

/// The limit variables, cleared from every run so the host environment
/// cannot leak a bound into a test.
const LIMIT_ENV: [&str; 2] = ["ECLECTIC_DEADLINE_MS", "ECLECTIC_MAX_NODES"];

fn eclectic(args: &[&str]) -> Output {
    eclectic_with_env(args, &[])
}

/// Runs the binary with `env` set on top of a copy of this process's
/// environment without the limit variables.
fn eclectic_with_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eclectic"));
    for var in LIMIT_ENV {
        cmd.env_remove(var);
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .output()
        .expect("the eclectic binary runs")
}

/// A usage error: failing exit, one `error:` line naming `flag`, and nothing
/// printed by a verification (no stage timings, no report).
fn assert_rejected(args: &[&str], flag: &str) {
    assert_rejected_with_env(args, &[], flag);
}

/// As [`assert_rejected`], with `env` set for the run.
fn assert_rejected_with_env(args: &[&str], env: &[(&str, &str)], flag: &str) {
    let out = eclectic_with_env(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(flag),
        "{args:?}: {stderr}"
    );
    assert!(
        !stderr.contains("stage "),
        "{args:?} ran a verification: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn bad_limits_are_rejected_before_verifying() {
    for flag in ["--deadline-ms", "--max-nodes"] {
        for value in ["abc", "-1", "8.5", ""] {
            assert_rejected(&["verify", "courses", flag, value], flag);
        }
        assert_rejected(&["verify", "courses", flag], flag);
    }
}

#[test]
fn bad_limit_env_fallbacks_are_rejected_before_verifying() {
    for var in LIMIT_ENV {
        for value in ["abc", "-1", ""] {
            assert_rejected_with_env(&["verify", "courses"], &[(var, value)], var);
        }
    }
}

#[test]
fn a_node_cap_from_the_flag_or_the_environment_is_applied() {
    let runs = [
        eclectic(&["verify", "courses", "--max-nodes", "0"]),
        eclectic_with_env(&["verify", "courses"], &[("ECLECTIC_MAX_NODES", "0")]),
    ];
    for out in runs {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "a partial run passed: {stdout}");
        assert!(stdout.contains("budget exhausted"), "{stdout}");
    }
}

#[test]
fn bad_depth_is_rejected_before_verifying() {
    for depth in ["x", "-1", "8.5", ""] {
        assert_rejected(&["verify", "courses", "--depth", depth], "--depth");
    }
    assert_rejected(&["verify", "courses", "--depth"], "--depth");
}

#[test]
fn unknown_style_is_rejected() {
    assert_rejected(&["verify", "courses", "--style", "bogus"], "--style");
    assert_rejected(&["equations", "courses", "--style", "bogus"], "--style");
    assert_rejected(&["equations", "courses", "--style"], "--style");
}

#[test]
fn synth_style_prints_the_synthesized_equations() {
    let equations = |style: &str| {
        let out = eclectic(&["equations", "courses", "--style", style]);
        assert!(out.status.success(), "--style {style}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let paper = equations("paper");
    let synth = equations("synth");
    assert_eq!(
        String::from_utf8(eclectic(&["equations", "courses"]).stdout).unwrap(),
        paper
    );
    assert_eq!(equations("synthesized"), synth);
    assert_ne!(synth, paper);
    assert!(
        synth.lines().any(|l| l.starts_with("offered_initiate:")),
        "{synth}"
    );
}

#[test]
fn verify_prints_the_five_stage_lines_before_the_grammar_line() {
    let out = eclectic(&["verify", "courses"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let stages: Vec<&str> = lines
        .iter()
        .filter(|l| l.starts_with("  stage "))
        .map(|l| {
            assert!(l.ends_with(" ms"), "{l:?}");
            l.split_whitespace().nth(1).expect("a stage name")
        })
        .collect();
    assert_eq!(
        stages,
        ["refine12", "witness", "equations", "dynamic", "cross"],
        "{stdout}"
    );
    assert!(
        lines[..5].iter().all(|l| l.starts_with("  stage ")),
        "{stdout}"
    );
    assert!(
        lines[5].starts_with("W-grammar syntax check: "),
        "{stdout}"
    );
}
