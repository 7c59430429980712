//! Concrete syntax for conditional equations.
//!
//! An equation is written `condition ==> lhs = rhs` or just `lhs = rhs`.
//! The condition uses the formula syntax of `eclectic-logic` (quantifiers,
//! `=`, `!=`, connectives); both sides are terms. The whole text is read as
//! one token stream by `eclectic-logic`'s [`Parser`], where `==>` is its own
//! token, so error offsets are byte offsets in the whole equation.
//!
//! Example (the paper's equation 4):
//!
//! ```text
//! ~(c = c') ==> offered(c, offer(c', U)) = offered(c, U)
//! ```

use eclectic_logic::{Formula, Parser, TokenKind};

use crate::equation::ConditionalEquation;
use crate::error::{AlgError, Result};
use crate::signature::AlgSignature;

/// Parses one conditional equation against the signature. An empty
/// condition (`==> lhs = rhs`) is `True`. The paper's restrictions on
/// equations are checked by [`AlgSpec::new`](crate::AlgSpec::new), which
/// every equation passes through before any rewriter sees it.
///
/// # Errors
/// Returns parse and symbol errors; a text that ends after its lhs (no
/// `=`) is [`AlgError::BadEquation`].
pub fn parse_equation(
    sig: &mut AlgSignature,
    name: impl Into<String>,
    input: &str,
) -> Result<ConditionalEquation> {
    let name = name.into();
    let mut p = Parser::new(sig.logic_mut(), input)?;
    let mut condition = Formula::True;
    if p.tokens().iter().any(|t| t.kind == TokenKind::CondArrow) {
        if p.peek().kind != TokenKind::CondArrow {
            condition = p.formula()?;
            condition.check(p.sig)?;
        }
        p.expect(&TokenKind::CondArrow)?;
    }
    let lhs = p.term()?;
    lhs.check(p.sig)?;
    if p.peek().kind == TokenKind::Eof {
        return Err(AlgError::BadEquation {
            name,
            reason: "missing `=` between sides".into(),
        });
    }
    p.expect(&TokenKind::Eq)?;
    let rhs = p.term()?;
    p.expect_eof()?;
    rhs.check(p.sig)?;
    Ok(ConditionalEquation::new(name, condition, lhs, rhs))
}

/// Parses a list of `(name, text)` pairs.
///
/// # Errors
/// Returns the first parse/validation error.
pub fn parse_equations(
    sig: &mut AlgSignature,
    inputs: &[(&str, &str)],
) -> Result<Vec<ConditionalEquation>> {
    inputs
        .iter()
        .map(|(name, text)| parse_equation(sig, *name, text))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AlgSpec;

    fn sig() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let student = a.add_param_sort("student", &["ana"]).unwrap();
        let course = a.add_param_sort("course", &["db", "ai"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_query("takes", &[student, course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_update("cancel", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();
        a.add_param_var("s", student).unwrap();
        a
    }

    #[test]
    fn unconditional_equation() {
        let mut a = sig();
        let eq = parse_equation(&mut a, "eq1", "offered(c, initiate) = False").unwrap();
        assert_eq!(eq.condition, Formula::True);
        assert_eq!(eq.name, "eq1");
        // An empty condition is `True` too.
        let eq = parse_equation(&mut a, "eq1", "==> offered(c, initiate) = False").unwrap();
        assert_eq!(eq.condition, Formula::True);
    }

    #[test]
    fn conditional_equation() {
        let mut a = sig();
        let eq = parse_equation(
            &mut a,
            "eq4",
            "c != c' ==> offered(c, offer(c', U)) = offered(c, U)",
        )
        .unwrap();
        assert_ne!(eq.condition, Formula::True);
        // Both comment forms are skipped.
        let commented = parse_equation(
            &mut a,
            "eq4",
            "c != c' /* another course */ ==> offered(c, offer(c', U)) = offered(c, U) # eq 4",
        )
        .unwrap();
        assert_eq!(commented, eq);
    }

    #[test]
    fn quantified_condition() {
        let mut a = sig();
        let eq = parse_equation(
            &mut a,
            "eq6",
            "exists s:student. takes(s, c, U) = True ==> offered(c, cancel(c, U)) = True",
        )
        .unwrap();
        assert!(matches!(eq.condition, Formula::Exists(..)));
    }

    #[test]
    fn batch_parsing() {
        let mut a = sig();
        let eqs = parse_equations(
            &mut a,
            &[
                ("eq1", "offered(c, initiate) = False"),
                ("eq3", "offered(c, offer(c, U)) = True"),
            ],
        )
        .unwrap();
        assert_eq!(eqs.len(), 2);
    }

    #[test]
    fn missing_equals_reported() {
        let mut a = sig();
        assert!(matches!(
            parse_equation(&mut a, "bad", "offered(c, initiate)"),
            Err(AlgError::BadEquation { .. })
        ));
    }

    #[test]
    fn errors_are_offsets_in_the_whole_equation() {
        let mut a = sig();
        let offset = |a: &mut AlgSignature, text: &str| match parse_equation(a, "bad", text) {
            Err(AlgError::Logic(eclectic_logic::LogicError::Parse { offset, .. })) => offset,
            other => panic!("expected a parse error for `{text}`, got {other:?}"),
        };
        assert_eq!(offset(&mut a, "offered(c, initiate) = Fals!"), 27);
        assert_eq!(
            offset(
                &mut a,
                "c != c' ==> offered(c, offer(c', U)) = offered(c, U!)"
            ),
            51
        );
    }

    #[test]
    fn validation_applies() {
        let mut a = sig();
        // rhs variable not in lhs: the text parses, and the spec rejects it.
        let eq = parse_equation(
            &mut a,
            "bad",
            "offered(c, initiate) = offered(c', initiate)",
        )
        .unwrap();
        assert!(matches!(
            AlgSpec::new(a, vec![eq]),
            Err(AlgError::BadEquation { name, .. }) if name == "bad"
        ));
    }
}
