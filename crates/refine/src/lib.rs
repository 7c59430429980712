//! # eclectic-refine
//!
//! The refinement machinery binding the three specification levels of
//! Casanova, Veloso & Furtado (PODS 1984):
//!
//! - [`InterpretationI`] (§4.3): db-predicates of the information level →
//!   Boolean queries of the functions level; [`reach`] builds the induced
//!   Kripke universe `M(T2)` whose states are reachable ground state terms
//!   modulo observational equality;
//! - [`obligations`] (§4.4): the proof obligations (a) sufficient
//!   completeness, (b) every reachable state is valid, (d) transition
//!   consistency; [`witness`] covers (c) every valid state is reachable;
//! - [`InterpretationK`] and [`InducedAlgebra`] (§5.3–5.4): queries →
//!   level-3 wffs, updates → procedures; the mapping `N` interprets the
//!   functions level inside a representation-level universe, and
//!   [`check_equations_budget`] verifies every `A2` equation there by bounded
//!   induction on trace length;
//! - [`equivalence`] (§6): the same trace replayed at levels 2 and 3 gives
//!   the same answer to every query;
//! - [`FullReport`]: everything aggregated with a human-readable rendering.

#![warn(missing_docs)]

mod bridge;
pub mod equivalence;
mod error;
mod interp1;
mod interp2;
pub mod obligations;
pub mod random;
pub mod reach;
mod report;
pub mod witness;

pub use bridge::ParamBridge;
pub use equivalence::{cross_check_budget, random_ops, CrossCheckStats, Mismatch, Op};
pub use error::{RefineError, Result};
pub use interp1::InterpretationI;
pub use interp2::{
    check_equations_budget, EquationCheckReport, EquationFailure, IndValue, InducedAlgebra,
    InterpretationK, QueryImpl,
};
pub use obligations::{
    check_dynamic_budget, check_refinement_1_2_budget, obligation_axioms, obligation_completeness,
    obligation_exploration, obligation_termination, DynamicFailure, DynamicReport, Refine12Config,
    Refine12Report, StateViolation,
};
pub use reach::{
    explore_algebraic_budget, structure_of, structure_of_id, AlgExploreLimits,
    AlgebraicExploration,
};
pub use report::FullReport;
pub use witness::{check_valid_reachable, ValidReachableReport};
