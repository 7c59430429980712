//! # eclectic
//!
//! A complete Rust implementation of Casanova, Veloso & Furtado, *"Formal
//! Data Base Specification — An Eclectic Perspective"* (PODS 1984): formal
//! database specification across logical, algebraic, programming-language,
//! grammatical and denotational formalisms, with machine-checked refinement
//! between the three levels.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`logic`] — many-sorted first-order logic with finite structures;
//! - [`temporal`] — the modal extension and Kripke universes (§3);
//! - [`algebraic`] — algebraic specifications and conditional term
//!   rewriting (§4);
//! - [`rpr`] — Regular Programs over Relations, W-grammars, denotational
//!   semantics and PDL (§5);
//! - [`refine`] — the interpretations `I`/`K` and every proof obligation
//!   (§4.3–4.4, §5.3–5.4);
//! - [`spec`] — the tri-level framework, the constructive methodology and
//!   three worked domains (§2, §6).
//!
//! # Quickstart
//!
//! ```
//! use eclectic::spec::domains::{courses, CoursesConfig};
//! use eclectic::spec::{verify, VerifyConfig};
//!
//! let spec = courses(&CoursesConfig::default())?;
//! let outcome = verify(&spec, &VerifyConfig::quick())?;
//! assert!(outcome.is_correct());
//! # Ok::<(), eclectic::spec::SpecError>(())
//! ```

#![forbid(unsafe_code)]

pub use eclectic_algebraic as algebraic;
pub use eclectic_logic as logic;
pub use eclectic_refine as refine;
pub use eclectic_rpr as rpr;
pub use eclectic_spec as spec;
pub use eclectic_temporal as temporal;
