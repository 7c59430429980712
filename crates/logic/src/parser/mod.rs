//! Concrete-syntax parsing for terms and formulas, and the token-level
//! [`Parser`] that the equation and schema grammars build on.

mod grammar;
mod lexer;

pub use grammar::{parse_formula, parse_term, Parser};
pub use lexer::{Token, TokenKind};
