//! # eclectic-logic
//!
//! Many-sorted first-order logic with a temporal (modal) extension — the
//! *information level* substrate of Casanova, Veloso & Furtado, "Formal Data
//! Base Specification — An Eclectic Perspective" (PODS 1984), §3.
//!
//! The crate provides:
//!
//! - [`Signature`]: sorts, function symbols, predicate symbols (with the
//!   paper's *db-predicate* distinction), and typed variables;
//! - [`Term`] and [`Formula`]: syntax of `L` and of its temporal extension
//!   `L_T` (the `◇`/`□` operators live in the same AST and are flagged by
//!   [`Formula::is_first_order`]);
//! - [`Structure`] and [`Domains`]: finite interpretations, shared by all
//!   three specification levels (information-level states, the `state`
//!   carrier at the functions level, and RPR database states);
//! - [`eval`]: Tarskian satisfaction over finite structures;
//! - [`Theory`]: axiom sets classified into static vs transition constraints;
//! - a parser and pretty-printer for a plain-ASCII concrete syntax; its
//!   lexer and [`Parser`] are the one front end for every spec text of the
//!   workspace (formulas, conditional equations, RPR schemas).
//!
//! # Example
//!
//! ```
//! use eclectic_logic::{parse_formula, Signature};
//!
//! let mut sig = Signature::new();
//! let student = sig.add_sort("student")?;
//! let course = sig.add_sort("course")?;
//! sig.add_db_predicate("offered", &[course])?;
//! sig.add_db_predicate("takes", &[student, course])?;
//!
//! // The paper's static constraint: a student cannot take a course
//! // that is not being offered.
//! let axiom = parse_formula(
//!     &mut sig,
//!     "~exists s:student. exists c:course. takes(s, c) & ~offered(c)",
//! )?;
//! assert!(axiom.is_first_order());
//! # Ok::<(), eclectic_logic::LogicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod eval;
mod formula;
mod parser;
mod printer;
mod signature;
mod structure;
mod subst;
mod symbols;
mod term;
mod theory;
mod unify;
mod valuation;

/// The hash-consed term kernel this crate's interning layer is built on.
pub use eclectic_kernel as kernel;
pub use eclectic_kernel::{Binding, SortOracle, TermId, TermNode, TermStore};

pub use error::{LogicError, Result};
pub use formula::Formula;
pub use parser::{parse_formula, parse_term, Parser, Token, TokenKind};
pub use printer::{formula_display, term_display, FormulaDisplay, TermDisplay};
pub use signature::Signature;
pub use structure::{Domains, Elem, Structure, StructureKey};
pub use subst::Subst;
pub use symbols::{
    FuncDecl, FuncId, PredDecl, PredId, SortDecl, SortId, Symbol, VarDecl, VarId,
};
pub use term::Term;
pub use theory::{ConstraintKind, NamedFormula, Theory};
pub use unify::{rename_apart, unify};
pub use valuation::Valuation;
