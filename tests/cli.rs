//! The `eclectic` command line: a malformed `--depth` or `--style` is
//! rejected with an `error:` line and a failing exit code before any
//! verification runs, and a well-formed `--style` selects the equations.

use std::process::{Command, Output};

fn eclectic(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eclectic"))
        .args(args)
        .output()
        .expect("the eclectic binary runs")
}

/// A usage error: failing exit, one `error:` line naming `flag`, and nothing
/// printed by a verification (no stage timings, no report).
fn assert_rejected(args: &[&str], flag: &str) {
    let out = eclectic(args);
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
