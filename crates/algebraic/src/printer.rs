//! Rendering of algebraic terms and equations.

use std::fmt::Write as _;

use eclectic_logic::{formula_display, term_display, Formula, Term};

use crate::equation::ConditionalEquation;
use crate::signature::AlgSignature;

/// Renders a term in the concrete syntax.
#[must_use]
pub fn term_str(sig: &AlgSignature, t: &Term) -> String {
    term_display(sig.logic(), t).to_string()
}

/// Renders a condition in the concrete syntax.
#[must_use]
pub fn condition_str(sig: &AlgSignature, f: &Formula) -> String {
    formula_display(sig.logic(), f).to_string()
}

/// Renders an equation as `name: [condition ==>] lhs = rhs`.
#[must_use]
pub fn equation_str(sig: &AlgSignature, eq: &ConditionalEquation) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}: ", eq.name);
    if eq.condition != Formula::True {
        let _ = write!(out, "{} ==> ", condition_str(sig, &eq.condition));
    }
    let _ = write!(
        out,
        "{} = {}",
        term_str(sig, &eq.lhs),
        term_str(sig, &eq.rhs)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_equation;

    #[test]
    fn renders_equations() {
        let mut a = AlgSignature::new().unwrap();
        let course = a.add_param_sort("course", &["db"]).unwrap();
        a.add_query("offered", &[course], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("offer", &[course], true).unwrap();
        a.add_param_var("c", course).unwrap();
        a.add_param_var("c'", course).unwrap();

        let eq = parse_equation(&mut a, "eq1", "offered(c, initiate) = False").unwrap();
        assert_eq!(equation_str(&a, &eq), "eq1: offered(c, initiate) = False");

        let eq = parse_equation(
            &mut a,
            "eq4",
            "c != c' ==> offered(c, offer(c', U)) = offered(c, U)",
        )
        .unwrap();
        assert_eq!(
            equation_str(&a, &eq),
            "eq4: ~(c = c') ==> offered(c, offer(c', U)) = offered(c, U)"
        );
    }
}
