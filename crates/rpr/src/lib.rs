//! # eclectic-rpr
//!
//! Regular Programs over Relations — the *representation level* of
//! Casanova, Veloso & Furtado (PODS 1984), §5.
//!
//! See module docs; crate-level overview below.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod binrel;
pub mod denote;
mod error;
pub mod exec;
pub mod parser;
pub mod pdl;
mod printer;
mod query;
mod schema;
mod state;
mod universe;
pub mod wgrammar;

pub use ast::{RelTerm, Stmt};
pub use binrel::BinRel;
pub use denote::{CacheStats, DenoteCache};
pub use error::{Result, RprError};
pub use pdl::{check_batch_budget_with, BatchReport, Pdl};
pub use parser::{parse_schema, parse_stmt, parse_wff, PAPER_COURSES_SCHEMA};
pub use printer::{schema_str, stmt_str};
pub use query::{FuncQueryDef, QueryDef};
pub use schema::{ProcDecl, Schema};
pub use state::DbState;
pub use universe::FiniteUniverse;
