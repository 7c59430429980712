//! Error types for the algebraic-specification crate.

use std::fmt;

use eclectic_kernel::BudgetExceeded;
use eclectic_logic::LogicError;

/// Errors raised while building or evaluating algebraic specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgError {
    /// An underlying logic error (signature, sorting, parsing, …).
    Logic(LogicError),
    /// The named symbol is not a query function.
    NotAQuery(String),
    /// The named symbol is not an update function.
    NotAnUpdate(String),
    /// The named symbol is not a parameter sort.
    NotAParamSort(String),
    /// An equation failed validation.
    BadEquation {
        /// Equation name.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Rewriting did not terminate within the fuel limit.
    RewriteLimit {
        /// Rendering of the top-level term the caller asked to normalise
        /// (filled in at the `normalize` entry points; empty only if fuel
        /// ran out outside any top-level call).
        subject: String,
        /// Rendering of the subterm under normalisation when fuel ran out —
        /// the innermost reduct actually spinning, which may be a term the
        /// caller never wrote.
        at: String,
    },
    /// A resource budget (node cap or deadline) tripped
    /// during rewriting. Unlike [`AlgError::RewriteLimit`] this is not a
    /// property of the specification — the same term may normalise fine
    /// under a larger budget.
    Budget {
        /// Which budget axis tripped.
        reason: BudgetExceeded,
    },
    /// A condition contained a construct outside the allowed fragment
    /// (predicates or modalities).
    BadCondition(String),
    /// A condition could not be decided because a side did not reduce to a
    /// parameter name.
    ConditionUndecided {
        /// Rendering of the offending equality side.
        term: String,
    },
    /// A ground query term did not reduce to a parameter name — a sufficient
    /// completeness failure.
    NotSufficientlyComplete {
        /// Rendering of the irreducible term.
        term: String,
    },
    /// A structured description is inconsistent (e.g. an effect on a symbol
    /// that is not a query of the specification).
    BadDescription(String),
}

impl fmt::Display for AlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgError::Logic(e) => write!(f, "{e}"),
            AlgError::NotAQuery(n) => write!(f, "`{n}` is not a query function"),
            AlgError::NotAnUpdate(n) => write!(f, "`{n}` is not an update function"),
            AlgError::NotAParamSort(n) => write!(f, "`{n}` is not a parameter sort"),
            AlgError::BadEquation { name, reason } => {
                write!(f, "invalid equation `{name}`: {reason}")
            }
            AlgError::RewriteLimit { subject, at } => {
                if subject.is_empty() || subject == at {
                    write!(f, "rewriting fuel exhausted at `{at}`")
                } else {
                    write!(
                        f,
                        "rewriting fuel exhausted at `{at}` while normalising `{subject}`"
                    )
                }
            }
            AlgError::Budget { reason } => {
                write!(f, "rewriting budget exhausted: {reason}")
            }
            AlgError::BadCondition(m) => write!(f, "invalid condition: {m}"),
            AlgError::ConditionUndecided { term } => {
                write!(
                    f,
                    "condition could not be decided: `{term}` is not a parameter name"
                )
            }
            AlgError::NotSufficientlyComplete { term } => {
                write!(f, "`{term}` does not reduce to a parameter name")
            }
            AlgError::BadDescription(m) => write!(f, "invalid structured description: {m}"),
        }
    }
}

impl std::error::Error for AlgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogicError> for AlgError {
    fn from(e: LogicError) -> Self {
        AlgError::Logic(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AlgError>;
