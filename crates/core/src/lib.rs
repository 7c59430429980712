//! # eclectic-spec
//!
//! The tri-level formal database specification framework of Casanova,
//! Veloso & Furtado, "Formal Data Base Specification — An Eclectic
//! Perspective" (PODS 1984) — the paper's primary contribution, assembled
//! from the substrate crates:
//!
//! | Level | Formalism | Crate |
//! |---|---|---|
//! | information | temporal first-order logic | `eclectic-logic` + `eclectic-temporal` |
//! | functions | algebraic specification | `eclectic-algebraic` |
//! | representation | RPR + W-grammar + denotational semantics | `eclectic-rpr` |
//! | refinements | interpretations `I` and `K` | `eclectic-refine` |
//!
//! This crate provides:
//!
//! - [`TriLevelSpec`]: one application specified at all three levels;
//! - [`verify`]: every §4.4/§5.4 obligation, the W-grammar syntax check and
//!   randomized cross-level agreement, in one call;
//! - [`methodology`]: the constructive strategy — one set of structured
//!   descriptions yields both the level-2 equations
//!   ([`eclectic_algebraic::synthesize`]) and the level-3 schema
//!   ([`methodology::derive_schema`]);
//! - [`domains`]: three worked applications (courses, library, bank).
//!
//! # Example
//!
//! ```
//! use eclectic_spec::domains::{courses, CoursesConfig};
//! use eclectic_spec::{verify, VerifyConfig};
//!
//! let spec = courses(&CoursesConfig::default())?;
//! let outcome = verify(&spec, &VerifyConfig::quick())?;
//! assert!(outcome.is_correct(), "{}", outcome.report);
//! # Ok::<(), eclectic_spec::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
mod error;
pub mod fuzz;
pub mod methodology;
mod spec;
mod verify;

pub use error::{Result, SpecError};
pub use spec::{CarrierSpec, TriLevelSpec};
pub use verify::{verify, verify_with_threads, StageStats, VerificationOutcome, VerifyConfig};
