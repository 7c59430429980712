//! Error types for the RPR crate.

use std::fmt;

use eclectic_logic::LogicError;

/// Errors raised while building schemas, parsing, or executing RPR programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RprError {
    /// An underlying logic error.
    Logic(LogicError),
    /// A schema declaration problem.
    BadSchema(String),
    /// A statement failed validation (e.g. an open wff in a test).
    BadStatement(String),
    /// A procedure was called with the wrong number of arguments.
    ArityMismatch {
        /// Procedure name.
        proc: String,
        /// Declared parameter count.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// The named procedure does not exist.
    UnknownProc(String),
    /// A deterministic run produced no outcome (all branches' tests failed).
    Stuck,
    /// A deterministic run produced several distinct outcomes.
    Nondeterministic {
        /// Number of distinct outcomes.
        outcomes: usize,
    },
    /// Iteration (`*` or `while`) exceeded the step limit.
    IterationLimit(usize),
    /// The finite universe would exceed the configured state cap.
    UniverseTooLarge {
        /// Number of states that would be required.
        required: usize,
        /// The configured cap.
        cap: usize,
    },
    /// Parse error with byte offset.
    Parse {
        /// Byte offset in the input.
        offset: usize,
        /// Description.
        message: String,
    },
    /// A W-grammar validation failure.
    Grammar(String),
    /// A governed denotation tripped its resource budget mid-computation.
    Budget {
        /// Which budget axis tripped.
        reason: eclectic_kernel::BudgetExceeded,
    },
}

impl fmt::Display for RprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RprError::Logic(e) => write!(f, "{e}"),
            RprError::BadSchema(m) => write!(f, "invalid schema: {m}"),
            RprError::BadStatement(m) => write!(f, "invalid statement: {m}"),
            RprError::ArityMismatch {
                proc,
                expected,
                found,
            } => write!(f, "procedure `{proc}` expects {expected} argument(s), got {found}"),
            RprError::UnknownProc(p) => write!(f, "unknown procedure `{p}`"),
            RprError::Stuck => write!(f, "execution is stuck: no branch is enabled"),
            RprError::Nondeterministic { outcomes } => {
                write!(f, "deterministic execution expected, got {outcomes} outcomes")
            }
            RprError::IterationLimit(n) => write!(f, "iteration exceeded {n} steps"),
            RprError::UniverseTooLarge { required, cap } => {
                write!(f, "finite universe needs {required} states, cap is {cap}")
            }
            RprError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            RprError::Grammar(m) => write!(f, "W-grammar: {m}"),
            RprError::Budget { reason } => write!(f, "denotation budget exhausted: {reason}"),
        }
    }
}

impl std::error::Error for RprError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RprError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

/// A syntax error of the shared front end stays a parse error of the RPR
/// text; every other logic error is wrapped.
impl From<LogicError> for RprError {
    fn from(e: LogicError) -> Self {
        match e {
            LogicError::Parse { offset, message } => RprError::Parse { offset, message },
            e => RprError::Logic(e),
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RprError>;
