//! Parameter bridges: aligning carriers across specification levels.
//!
//! The paper assumes "every sort of L1 is a parameter sort of L2" (§4.3) and
//! "every parameter sort of L3 …" (§5.3), with the one-to-one name
//! correspondence of §6. A [`ParamBridge`] makes that identification
//! concrete: it matches, *by name*, the parameter sorts and parameter
//! constants of an algebraic signature against the sorts and carrier
//! elements of a logic-level [`Domains`].

use std::collections::BTreeMap;

use eclectic_algebraic::AlgSignature;
use eclectic_kernel::{TermId, TermNode, TermStore};
use eclectic_logic::{Domains, Elem, FuncId, Signature, SortId, Term};

use crate::error::{RefineError, Result};

/// A bidirectional mapping between level-2 parameter names and level-1/3
/// domain elements.
#[derive(Debug, Clone)]
pub struct ParamBridge {
    /// Algebraic parameter sort → logic sort.
    sort_map: BTreeMap<SortId, SortId>,
    /// Algebraic parameter constant → (logic sort, element).
    elem_of_const: BTreeMap<FuncId, (SortId, Elem)>,
    /// (logic sort, element) → algebraic parameter constant.
    const_of_elem: BTreeMap<(SortId, Elem), FuncId>,
}

impl ParamBridge {
    /// Builds a bridge: every parameter sort of `alg` (except `Bool`) must
    /// have a like-named sort in `logic_sig`, and the constants of the sort
    /// must name exactly the elements of the corresponding carrier.
    ///
    /// # Errors
    /// Returns [`RefineError::BridgeMismatch`] describing the first
    /// misalignment.
    pub fn new(alg: &AlgSignature, logic_sig: &Signature, domains: &Domains) -> Result<Self> {
        let mut sort_map = BTreeMap::new();
        let mut elem_of_const = BTreeMap::new();
        let mut const_of_elem = BTreeMap::new();

        for asort in alg.param_sorts() {
            let name = alg.logic().sort_name(asort);
            if name == "Bool" {
                continue;
            }
            let lsort = logic_sig.sort_id(name).map_err(|_| {
                RefineError::BridgeMismatch(format!("sort `{name}` missing at the other level"))
            })?;
            sort_map.insert(asort, lsort);

            let consts = alg.param_names(asort);
            if consts.len() != domains.card(lsort) {
                return Err(RefineError::BridgeMismatch(format!(
                    "sort `{name}` has {} parameter name(s) but carrier size {}",
                    consts.len(),
                    domains.card(lsort)
                )));
            }
            for c in consts {
                let cname = &alg.logic().func(c).name;
                let e = domains.elem_by_name(lsort, cname).ok_or_else(|| {
                    RefineError::BridgeMismatch(format!(
                        "parameter name `{cname}` is not an element of carrier `{name}`"
                    ))
                })?;
                elem_of_const.insert(c, (lsort, e));
                const_of_elem.insert((lsort, e), c);
            }
        }
        Ok(ParamBridge {
            sort_map,
            elem_of_const,
            const_of_elem,
        })
    }

    /// The logic sort corresponding to an algebraic parameter sort.
    ///
    /// # Errors
    /// Returns [`RefineError::BridgeMismatch`] for unmapped sorts.
    pub fn logic_sort(&self, alg_sort: SortId) -> Result<SortId> {
        self.sort_map
            .get(&alg_sort)
            .copied()
            .ok_or_else(|| RefineError::BridgeMismatch("unmapped algebraic sort".into()))
    }

    /// The element denoted by an algebraic parameter constant.
    ///
    /// # Errors
    /// Returns [`RefineError::BridgeMismatch`] for non-parameter constants.
    pub fn elem(&self, constant: FuncId) -> Result<(SortId, Elem)> {
        self.elem_of_const.get(&constant).copied().ok_or_else(|| {
            RefineError::BridgeMismatch("constant is not a bridged parameter name".into())
        })
    }

    /// The element denoted by a ground parameter term (must be a constant).
    ///
    /// # Errors
    /// Returns [`RefineError::BridgeMismatch`] for non-constant terms.
    pub fn elem_of_term(&self, t: &Term) -> Result<(SortId, Elem)> {
        match t {
            Term::App(f, args) if args.is_empty() => self.elem(*f),
            _ => Err(RefineError::BridgeMismatch(
                "parameter term is not a constant".into(),
            )),
        }
    }

    /// The element denoted by an interned ground parameter term (must be a
    /// constant) — the id-based counterpart of [`ParamBridge::elem_of_term`]
    /// used by interned evaluation paths: one node lookup, no tree walk.
    ///
    /// # Errors
    /// Returns [`RefineError::BridgeMismatch`] for non-constant terms.
    pub fn elem_of_id(&self, store: &TermStore, t: TermId) -> Result<(SortId, Elem)> {
        match store.node(t) {
            TermNode::App(f, []) => self.elem(f),
            _ => Err(RefineError::BridgeMismatch(
                "parameter term is not a constant".into(),
            )),
        }
    }

    /// The algebraic parameter constant naming an element.
    ///
    /// # Errors
    /// Returns [`RefineError::BridgeMismatch`] for unmapped elements.
    pub fn constant(&self, logic_sort: SortId, e: Elem) -> Result<FuncId> {
        self.const_of_elem
            .get(&(logic_sort, e))
            .copied()
            .ok_or_else(|| RefineError::BridgeMismatch("unmapped element".into()))
    }

    /// The constant term naming an element.
    ///
    /// # Errors
    /// See [`ParamBridge::constant`].
    pub fn term_of_elem(&self, logic_sort: SortId, e: Elem) -> Result<Term> {
        Ok(Term::constant(self.constant(logic_sort, e)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alg() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        a.add_param_sort("course", &["db", "ai"]).unwrap();
        a
    }

    fn logic_side(courses: &[&str]) -> (Signature, Domains) {
        let mut sig = Signature::new();
        sig.add_sort("course").unwrap();
        let dom = Domains::from_names(&sig, &[("course", courses)]).unwrap();
        (sig, dom)
    }

    #[test]
    fn aligned_bridge_builds() {
        let a = alg();
        let (sig, dom) = logic_side(&["db", "ai"]);
        let b = ParamBridge::new(&a, &sig, &dom).unwrap();
        let db = a.logic().func_id("db").unwrap();
        let (lsort, e) = b.elem(db).unwrap();
        assert_eq!(e, Elem(0));
        assert_eq!(b.constant(lsort, e).unwrap(), db);
        assert_eq!(
            b.term_of_elem(lsort, Elem(1)).unwrap(),
            Term::constant(a.logic().func_id("ai").unwrap())
        );
        let asort = a.logic().sort_id("course").unwrap();
        assert_eq!(b.logic_sort(asort).unwrap(), lsort);
    }

    #[test]
    fn misaligned_names_rejected() {
        let a = alg();
        let (sig, dom) = logic_side(&["db", "pl"]);
        assert!(matches!(
            ParamBridge::new(&a, &sig, &dom),
            Err(RefineError::BridgeMismatch(_))
        ));
    }

    #[test]
    fn carrier_size_mismatch_rejected() {
        let a = alg();
        let (sig, dom) = logic_side(&["db"]);
        assert!(matches!(
            ParamBridge::new(&a, &sig, &dom),
            Err(RefineError::BridgeMismatch(_))
        ));
    }

    #[test]
    fn missing_sort_rejected() {
        let a = alg();
        let sig = Signature::new();
        let dom = Domains::from_names(&sig, &[]).unwrap();
        assert!(matches!(
            ParamBridge::new(&a, &sig, &dom),
            Err(RefineError::BridgeMismatch(_))
        ));
    }
}
