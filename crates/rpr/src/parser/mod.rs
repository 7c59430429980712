//! Concrete-syntax parsing for the RPR schema language: a statement layer
//! over `eclectic-logic`'s lexer and formula parser.

mod grammar;

pub use grammar::{parse_schema, parse_stmt, parse_wff};

/// The paper's §5.2 schema in the crate's concrete syntax — exposed so
/// tests, examples and benches can all parse the same canonical text.
pub const PAPER_COURSES_SCHEMA: &str = r"
schema
  OFFERED(course);
  TAKES(student, course);

  proc initiate() = (TAKES := empty ; OFFERED := empty)

  proc offer(c: course) = insert OFFERED(c)

  proc cancel(c: course) =
    if ~exists s:student. TAKES(s, c) then delete OFFERED(c) fi

  proc enroll(s: student, c: course) =
    if OFFERED(c) then insert TAKES(s, c) fi

  proc transfer(s: student, c: course, c2: course) =
    if TAKES(s, c) & ~TAKES(s, c2) & OFFERED(c2)
    then (delete TAKES(s, c); insert TAKES(s, c2)) fi
end-schema
";
