//! Interpretation `I`: information level → functions level (paper §4.3).
//!
//! `I` maps each db-predicate symbol of `L1` to a term of `L2` of Boolean
//! sort — here the common one-to-one case the paper's example uses: each
//! db-predicate `p(x̄)` is interpreted as the query application
//! `q(x̄, σ) = True` for a like-sorted Boolean query `q`.

use std::collections::BTreeMap;

use eclectic_algebraic::{AlgSignature, OpKind};
use eclectic_logic::{FuncId, PredId, Signature};

use crate::error::{RefineError, Result};

/// The interpretation `I`: db-predicate ↔ Boolean query, one-to-one.
#[derive(Debug, Clone)]
pub struct InterpretationI {
    map: BTreeMap<PredId, FuncId>,
}

impl InterpretationI {
    /// Builds `I` from `(db-predicate name, query name)` pairs, validating
    /// sort-by-sort correspondence (by sort name) and that every
    /// db-predicate of the information level is covered.
    ///
    /// # Errors
    /// Returns [`RefineError::BadInterpretation`] on the first problem.
    pub fn new(
        info_sig: &Signature,
        alg: &AlgSignature,
        pairs: &[(&str, &str)],
    ) -> Result<Self> {
        let bad = |m: String| RefineError::BadInterpretation(m);
        let mut map = BTreeMap::new();
        for (pname, qname) in pairs {
            let p = info_sig
                .pred_id(pname)
                .map_err(|e| bad(format!("{e}")))?;
            if !info_sig.pred(p).db_predicate {
                return Err(bad(format!("`{pname}` is not a db-predicate")));
            }
            let q = alg
                .logic()
                .func_id(qname)
                .map_err(|e| bad(format!("{e}")))?;
            if alg.kind(q) != OpKind::Query {
                return Err(bad(format!("`{qname}` is not a query function")));
            }
            if alg.logic().func(q).range != alg.bool_sort() {
                return Err(bad(format!("query `{qname}` is not Boolean")));
            }
            let qparams = alg.query_params(q).map_err(RefineError::Alg)?;
            let pdomain = &info_sig.pred(p).domain;
            if qparams.len() != pdomain.len() {
                return Err(bad(format!(
                    "`{pname}` has arity {} but `{qname}` takes {} parameter(s)",
                    pdomain.len(),
                    qparams.len()
                )));
            }
            for (&ps, &qs) in pdomain.iter().zip(&qparams) {
                if info_sig.sort_name(ps) != alg.logic().sort_name(qs) {
                    return Err(bad(format!(
                        "sort mismatch between `{pname}` and `{qname}`: `{}` vs `{}`",
                        info_sig.sort_name(ps),
                        alg.logic().sort_name(qs)
                    )));
                }
            }
            if map.insert(p, q).is_some() {
                return Err(bad(format!("`{pname}` interpreted twice")));
            }
        }
        for p in info_sig.db_pred_ids() {
            if !map.contains_key(&p) {
                return Err(bad(format!(
                    "db-predicate `{}` has no interpretation",
                    info_sig.pred(p).name
                )));
            }
        }
        Ok(InterpretationI { map })
    }

    /// Iterates over the `(db-predicate, query)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (PredId, FuncId)> + '_ {
        self.map.iter().map(|(p, q)| (*p, *q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Signature, AlgSignature) {
        let mut info = Signature::new();
        let student = info.add_sort("student").unwrap();
        let course = info.add_sort("course").unwrap();
        info.add_db_predicate("offered", &[course]).unwrap();
        info.add_db_predicate("takes", &[student, course]).unwrap();

        let mut alg = AlgSignature::new().unwrap();
        let astudent = alg.add_param_sort("student", &["ana"]).unwrap();
        let acourse = alg.add_param_sort("course", &["db"]).unwrap();
        alg.add_query("q_offered", &[acourse], None).unwrap();
        alg.add_query("q_takes", &[astudent, acourse], None).unwrap();
        alg.add_update("initiate", &[], false).unwrap();
        (info, alg)
    }

    #[test]
    fn valid_interpretation() {
        let (info, alg) = setup();
        let i = InterpretationI::new(
            &info,
            &alg,
            &[("offered", "q_offered"), ("takes", "q_takes")],
        )
        .unwrap();
        let offered = info.pred_id("offered").unwrap();
        let q = alg.logic().func_id("q_offered").unwrap();
        assert!(i.pairs().any(|pair| pair == (offered, q)));
        assert_eq!(i.pairs().count(), 2);
    }

    #[test]
    fn missing_coverage_rejected() {
        let (info, alg) = setup();
        assert!(matches!(
            InterpretationI::new(&info, &alg, &[("offered", "q_offered")]),
            Err(RefineError::BadInterpretation(_))
        ));
    }

    #[test]
    fn arity_and_sort_checked() {
        let (info, alg) = setup();
        assert!(InterpretationI::new(
            &info,
            &alg,
            &[("offered", "q_takes"), ("takes", "q_takes")]
        )
        .is_err());
        // Not a query.
        assert!(InterpretationI::new(
            &info,
            &alg,
            &[("offered", "initiate"), ("takes", "q_takes")]
        )
        .is_err());
        // Not a db-predicate name.
        assert!(InterpretationI::new(&info, &alg, &[("nope", "q_offered")]).is_err());
    }
}
