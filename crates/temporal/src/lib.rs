//! # eclectic-temporal
//!
//! The temporal (modal) semantics of the information level — paper §3.
//!
//! A database is specified at the information level by a theory `T1 = (L1,
//! A1)` over the temporal extension of a many-sorted first-order language.
//! Its semantics is fixed by a Kripke *universe* `U = (S, R)`: a set of
//! structures (states) sharing one domain, plus an accessibility relation
//! interpreted as "future state of". This crate provides:
//!
//! - [`Universe`]: finite Kripke universes with content-deduplicated states;
//! - [`satisfaction`]: the modal satisfaction relation `A ⊨_U P[v]`,
//!   including the paper's `◇` rule;
//! - [`constraints`]: checking static and transition axioms over universes.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use eclectic_logic::{parse_formula, Domains, Signature, Structure, Elem};
//! use eclectic_temporal::{satisfaction, Universe};
//!
//! let mut sig = Signature::new();
//! let course = sig.add_sort("course")?;
//! sig.add_db_predicate("offered", &[course])?;
//! let dia = parse_formula(&mut sig, "dia exists c:course. offered(c)")?;
//!
//! let dom = Arc::new(Domains::from_names(&sig, &[("course", &["db"])])?);
//! let sig = Arc::new(sig);
//! let offered = sig.pred_id("offered")?;
//!
//! let mut u = Universe::new(sig.clone(), dom.clone());
//! let empty = Structure::new(sig.clone(), dom.clone());
//! let mut off = Structure::new(sig.clone(), dom.clone());
//! off.insert_pred(offered, vec![Elem(0)])?;
//! let (s0, _) = u.add_state(empty)?;
//! let (s1, _) = u.add_state(off)?;
//! u.add_edge(s0, s1);
//!
//! // ◇(∃c offered(c)) holds at the empty state: a future state offers db.
//! assert!(satisfaction::models_at(&u, s0, &dia)?);
//! # Ok::<(), eclectic_logic::LogicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod satisfaction;
pub mod timed;
mod universe;

pub use constraints::{AccessibilityPolicy, CheckReport, Violation};
pub use timed::TimedTranslation;
pub use universe::{StateIdx, Universe};
