//! # eclectic-algebraic
//!
//! Algebraic specifications — the *functions level* of Casanova, Veloso &
//! Furtado (PODS 1984), §4.
//!
//! A functions-level specification `T2 = (L2, A2)` equips a database with a
//! repertoire of *query* and *update* functions over a designated sort
//! `state`, axiomatised by conditional equations that double as a
//! conditional term-rewriting system. This crate provides:
//!
//! - [`AlgSignature`]: Boolean/state/parameter sorts, query/update/parameter
//!   function classification, per-sort equality checks;
//! - [`ConditionalEquation`] with the paper's Q-/U-equation distinction and
//!   validity restrictions (antecedents never quantify over states);
//! - [`Rewriter`]: memoised innermost conditional rewriting, with built-in
//!   Boolean connectives and finite-carrier quantifier enumeration;
//! - [`termination`]: the §4.4(a) circularity analysis;
//! - [`completeness`]: sufficient-completeness checking (syntactic coverage
//!   plus exhaustive bounded evaluation);
//! - [`observe`]: simple observations and observational equality of states;
//! - [`StructuredDescription`] and [`synthesis`]: the §4.2 methodology —
//!   intended effects / preconditions / side-effects / not-affected — with
//!   mechanical, correct-by-construction derivation of the Q-equations;
//! - [`induction`]: enumeration of ground state terms (traces), the domain
//!   of the bounded structural inductions such as [`completeness`].
//!
//! # Example
//!
//! ```
//! use eclectic_algebraic::{parse_equations, AlgSignature, AlgSpec, Rewriter};
//! use eclectic_logic::parse_term;
//!
//! let mut a = AlgSignature::new()?;
//! let course = a.add_param_sort("course", &["db", "ai"])?;
//! a.add_query("offered", &[course], None)?;
//! a.add_update("initiate", &[], false)?;
//! a.add_update("offer", &[course], true)?;
//! a.add_param_var("c", course)?;
//! a.add_param_var("c'", course)?;
//! let eqs = parse_equations(&mut a, &[
//!     ("eq1", "offered(c, initiate) = False"),
//!     ("eq3", "offered(c, offer(c, U)) = True"),
//!     ("eq4", "c != c' ==> offered(c, offer(c', U)) = offered(c, U)"),
//! ])?;
//! // Evaluate a query on the trace offer(ai, offer(db, initiate)).
//! let mut lsig = a.logic().clone();
//! let spec = AlgSpec::new(a, eqs)?;
//! let t = parse_term(&mut lsig, "offered(db, offer(ai, offer(db, initiate)))")?;
//! let mut rw = Rewriter::new(&spec);
//! assert!(rw.eval_bool(&t)?);
//! # Ok::<(), eclectic_algebraic::AlgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod completeness;
pub mod confluence;
mod equation;
mod error;
pub mod induction;
#[cfg(feature = "legacy-rewrite")]
pub mod legacy;
pub mod observe;
mod parser;
mod printer;
pub mod random;
mod rewrite;
mod signature;
mod spec;
mod structured;
pub mod synthesis;
pub mod termination;

pub use equation::{check_condition_fragment, ConditionalEquation, EquationKind};
pub use error::{AlgError, Result};
#[cfg(feature = "legacy-rewrite")]
pub use legacy::LegacyRewriter;
pub use parser::{parse_equation, parse_equations};
pub use printer::{condition_str, equation_str, term_str};
pub use random::random_descriptions;
pub use rewrite::{match_id, match_term, RewriteStats, Rewriter};
pub use signature::{AlgSignature, OpKind};
pub use spec::AlgSpec;
pub use structured::{Effect, InitialState, StructuredDescription};
pub use synthesis::synthesize;
