//! Time-to-verdict benchmark of the eclectic verification battery.
//!
//! `run.py` drives this binary. Modes:
//!
//! - `pass <workload> <seed>` constructs the workload's specs, verifies each
//!   once through `verify_with_threads` with tracing off, checks every
//!   verdict against its known answer and prints one JSON line. A process
//!   runs one pass, so no timed pass reuses state from an earlier one.
//! - `trace <workload> <seed>` runs [`trace::run`] for [`TRACE_ROUNDS`]
//!   rounds and prints it as one JSON line.

mod json;
mod trace;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use eclectic_spec::verify_with_threads;

use json::Json;
use workload::Workload;

/// Spec constructions per pass; `setup_s` is the fastest of them.
const SETUP_REPEATS: usize = 10;

/// Rounds of a traced run; its times are medians over rounds.
const TRACE_ROUNDS: usize = 3;

const USAGE: &str = "usage: eclectic-perfbench pass <workload> <seed>\n       \
                     eclectic-perfbench trace <workload> <seed>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args.as_slice() {
        ["pass", w, seed] => parse_workload(w, seed).and_then(|(w, seed)| pass(w, seed)),
        ["trace", w, seed] => parse_workload(w, seed)
            .and_then(|(w, seed)| Ok(trace::run(w, seed, TRACE_ROUNDS)?.to_json().render())),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eclectic-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_workload(name: &str, seed: &str) -> Result<(Workload, u64), String> {
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    Ok((w, seed))
}

/// The process's peak resident set size (`VmHWM`) in kB, or 0 where
/// `/proc` does not report it.
fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// One untraced pass: every spec of the workload verified once. The specs
/// are constructed [`SETUP_REPEATS`] times first; `setup_s` is the fastest
/// construction and the last construction is verified.
fn pass(w: Workload, seed: u64) -> Result<String, String> {
    let mut setup_s = f64::INFINITY;
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(cases);
        let start = Instant::now();
        cases = black_box(workload::build(w, seed).map_err(|e| e.to_string())?);
        setup_s = setup_s.min(start.elapsed().as_secs_f64());
    }

    let mut verdicts = Vec::with_capacity(cases.len());
    let pass_start = Instant::now();
    for case in &cases {
        let t0 = Instant::now();
        let outcome = verify_with_threads(black_box(&case.spec), &case.config, w.threads());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let wrong = workload::wrong(&case.expect, &outcome);
        verdicts.push(Json::obj([
            ("spec", Json::Str(case.label.clone())),
            ("ms", Json::Num(ms)),
            ("wrong", wrong.map_or(Json::Null, Json::Str)),
        ]));
    }
    let verify_s = pass_start.elapsed().as_secs_f64();

    Ok(Json::obj([
        ("setup_s", Json::Num(setup_s)),
        ("verify_s", Json::Num(verify_s)),
        ("vmhwm_kb", Json::Int(vmhwm_kb())),
        ("threads", Json::Int(w.threads() as u64)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("verdicts", Json::Arr(verdicts)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclectic_algebraic::{AlgSpec, ConditionalEquation};

    /// The known-answer check can say "no": courses with `eq7` removed (as
    /// in `tests/e3_completeness.rs`) leaves ground queries stuck, so
    /// `verify` fails, and the paper workload must count that as wrong.
    #[test]
    fn eq7_removed_courses_is_a_wrong_verdict() {
        let mut cases = workload::build(Workload::Paper1w, 0).unwrap();
        let mut courses = cases.remove(0);
        assert_eq!(courses.label, "courses");
        let intact = verify_with_threads(&courses.spec, &courses.config, 1);
        assert_eq!(workload::wrong(&courses.expect, &intact), None);

        let full = &courses.spec.functions;
        let eqs: Vec<ConditionalEquation> = full
            .equations()
            .iter()
            .filter(|e| e.name != "eq7")
            .cloned()
            .collect();
        courses.spec.functions = AlgSpec::new((**full.signature()).clone(), eqs).unwrap();
        let broken = verify_with_threads(&courses.spec, &courses.config, 1);
        assert!(workload::wrong(&courses.expect, &broken).is_some());
    }

    /// Every traced counter repeats exactly across two traced runs. At two
    /// workers the dynamic stage's per-worker denotation caches make its
    /// cache counters schedule-dependent, as `DynamicReport` documents.
    #[test]
    fn traced_counters_repeat_exactly() {
        for w in Workload::ALL {
            let counters = || {
                let run = trace::run(w, 0, 1).unwrap();
                assert!(run.wrong.is_empty(), "{}: {:?}", w.name(), run.wrong);
                run.metrics
                    .into_iter()
                    .filter(|(name, m)| {
                        m.unit == "count" && !(w.threads() > 1 && name.starts_with("denote."))
                    })
                    .collect::<Vec<_>>()
            };
            let first = counters();
            assert!(first.iter().any(|(_, m)| m.value > 0.0), "{}", w.name());
            assert_eq!(first, counters(), "{}", w.name());
        }
    }
}
