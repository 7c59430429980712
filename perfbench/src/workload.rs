//! The four workloads, their verification bounds, and the known answer each
//! verdict is checked against.
//!
//! The known answers come from outside the program: the paper domains'
//! counts are EXPERIMENTS.md §1's artifact table, the factory obligations
//! hold by construction of `fuzz::build_domain`, and the dynamic bank's
//! universe size is the subset count of its three relations.

use eclectic_spec::domains::{bank, courses, library, BankConfig, CoursesConfig, LibraryConfig};
use eclectic_spec::fuzz::{build_domain, FuzzConfig};
use eclectic_spec::{SpecError, TriLevelSpec, VerificationOutcome, VerifyConfig};

/// Number of consecutive factory seeds in `factory-64`.
const FACTORY_SPECS: u64 = 64;

/// Carriers of the `dynamic-bank` workload: the default bank's 2 accounts ×
/// 4 amounts, a 4096-state universe. At 2 × 5 (16384 states) a pass takes
/// about 2 s, and too few passes fit in a run to give a steady time.
const DYNAMIC_ACCOUNTS: usize = 2;
const DYNAMIC_AMOUNTS: usize = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// courses, library and bank at their default carriers, 1 worker.
    Paper1w,
    /// The same inputs at 2 workers (the obligation DAG and the pool).
    Paper2w,
    /// 64 consecutive factory seeds from the base seed, 1 worker.
    Factory64,
    /// bank at 2 accounts × 4 amounts under `thorough()` bounds, 1 worker.
    DynamicBank,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper1w,
        Workload::Paper2w,
        Workload::Factory64,
        Workload::DynamicBank,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1w => "paper-1w",
            Workload::Paper2w => "paper-2w",
            Workload::Factory64 => "factory-64",
            Workload::DynamicBank => "dynamic-bank",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The worker count passed to `verify_with_threads`.
    pub fn threads(self) -> usize {
        match self {
            Workload::Paper2w => 2,
            _ => 1,
        }
    }
}

/// The verdict a spec must get, fixed before the program runs.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A correct refinement with EXPERIMENTS.md §1's deterministic counts.
    Paper {
        evaluated: usize,
        states: usize,
        candidates: usize,
        valid: usize,
    },
    /// Every obligation that holds by construction of the factory. Obligation
    /// (c) is not asserted, and a truncated exploration is not wrong.
    Factory,
    /// A correct refinement whose dynamic stage ran over `states` states.
    Dynamic { states: usize },
}

/// One spec of a workload, with its bounds and its known answer.
pub struct Case {
    pub label: String,
    pub spec: TriLevelSpec,
    pub config: VerifyConfig,
    pub expect: Expect,
}

/// `VerifyConfig::quick()` at exploration depth `depth`: the bounds of
/// EXPERIMENTS.md §1 and of `eclectic verify`.
fn paper_config(depth: usize) -> VerifyConfig {
    let mut config = VerifyConfig::quick();
    config.refine12.limits.max_depth = depth;
    config
}

/// Constructs the specs of workload `w`. `seed` is the first factory seed of
/// `factory-64`; the other workloads verify the fixed paper domains.
///
/// # Errors
/// Propagates spec construction errors.
pub fn build(w: Workload, seed: u64) -> Result<Vec<Case>, SpecError> {
    match w {
        Workload::Paper1w | Workload::Paper2w => paper_cases(),
        Workload::Factory64 => {
            let fuzz = FuzzConfig::default();
            (0..FACTORY_SPECS)
                .map(|i| {
                    let s = seed.wrapping_add(i);
                    Ok(Case {
                        label: format!("factory-{s}"),
                        spec: build_domain(s, &fuzz)?,
                        config: fuzz.verify_config(),
                        expect: Expect::Factory,
                    })
                })
                .collect()
        }
        Workload::DynamicBank => {
            // open/1, closed/1 and balance/2 over the carriers: one subset
            // of tuples per state.
            let tuples = 2 * DYNAMIC_ACCOUNTS + DYNAMIC_ACCOUNTS * DYNAMIC_AMOUNTS;
            Ok(vec![Case {
                label: format!("bank-{DYNAMIC_ACCOUNTS}x{DYNAMIC_AMOUNTS}"),
                spec: bank(&BankConfig::sized(DYNAMIC_ACCOUNTS, DYNAMIC_AMOUNTS))?,
                config: VerifyConfig::thorough(),
                expect: Expect::Dynamic {
                    states: 1 << tuples,
                },
            }])
        }
    }
}

fn paper_cases() -> Result<Vec<Case>, SpecError> {
    Ok(vec![
        Case {
            label: "courses".into(),
            spec: courses(&CoursesConfig::default())?,
            config: paper_config(8),
            expect: Expect::Paper {
                evaluated: 26214,
                states: 25,
                candidates: 64,
                valid: 25,
            },
        },
        Case {
            label: "library".into(),
            spec: library(&LibraryConfig::default())?,
            config: paper_config(8),
            expect: Expect::Paper {
                evaluated: 34952,
                states: 38,
                candidates: 256,
                valid: 38,
            },
        },
        Case {
            label: "bank".into(),
            spec: bank(&BankConfig::default())?,
            config: paper_config(10),
            expect: Expect::Paper {
                evaluated: 7020,
                states: 36,
                candidates: 4096,
                valid: 36,
            },
        },
    ])
}

/// Why a `verify` result differs from the known answer, or `None` when it
/// matches. An `Err` return is always wrong.
pub fn wrong(expect: &Expect, result: &Result<VerificationOutcome, SpecError>) -> Option<String> {
    let o = match result {
        Ok(o) => o,
        Err(e) => return Some(format!("error: {e}")),
    };
    let r12 = &o.report.refine12;
    let vr = &o.report.valid_reachable;
    match *expect {
        Expect::Paper {
            evaluated,
            states,
            candidates,
            valid,
        } => {
            if !o.is_correct() {
                return Some("not a correct refinement".into());
            }
            let got = (
                r12.completeness.evaluated,
                r12.exploration.universe.state_count(),
                vr.candidates,
                vr.valid,
            );
            (got != (evaluated, states, candidates, valid)).then(|| {
                format!(
                    "counts (evaluated, states, candidates, valid) = {got:?}, expected {:?}",
                    (evaluated, states, candidates, valid)
                )
            })
        }
        Expect::Factory => {
            let checks = [
                ("grammar", o.grammar_ok),
                ("termination", r12.termination.is_terminating()),
                ("completeness", r12.completeness.is_sufficiently_complete()),
                ("static axioms", r12.static_violations.is_empty()),
                ("transition axioms", r12.transition_violations.is_empty()),
                ("equations", o.report.equations.is_correct()),
                ("dynamic", o.dynamic.is_correct()),
                ("cross-check", o.cross_mismatch.is_none()),
                ("no exhaustion", o.exhausted().is_none()),
                ("valid == candidates", vr.valid == vr.candidates),
            ];
            checks
                .iter()
                .find(|(_, ok)| !ok)
                .map(|(name, _)| format!("{name} failed"))
        }
        Expect::Dynamic { states } => {
            if !o.is_correct() {
                Some("not a correct refinement".into())
            } else if o.dynamic.skipped.is_some() || o.dynamic.universe_states != states {
                Some(format!(
                    "dynamic stage covered {} states, expected {states}",
                    o.dynamic.universe_states
                ))
            } else {
                None
            }
        }
    }
}
