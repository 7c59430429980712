//! Database states at the representation level.
//!
//! A state is "defined in terms of the value of the entire collection of
//! data base relations" (paper §6) — concretely, a finite [`Structure`]
//! interpreting the schema's relation names and scalar program variables.

use std::sync::Arc;

use eclectic_logic::{Domains, Elem, FuncId, PredId, Signature, Structure};

use crate::error::{Result, RprError};

/// A database state: a structure whose predicate tables are the relation
/// values and whose constant tables hold the scalar program variables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DbState {
    inner: Structure,
}

impl DbState {
    /// The empty state: all relations empty, scalar variables unset.
    #[must_use]
    pub fn new(sig: Arc<Signature>, domains: Arc<Domains>) -> Self {
        DbState {
            inner: Structure::new(sig, domains),
        }
    }

    /// The underlying structure (for formula evaluation).
    #[must_use]
    pub fn structure(&self) -> &Structure {
        &self.inner
    }

    /// Mutable access to the underlying structure.
    pub fn structure_mut(&mut self) -> &mut Structure {
        &mut self.inner
    }

    /// The signature.
    #[must_use]
    pub fn signature(&self) -> &Arc<Signature> {
        self.inner.signature()
    }

    /// The shared domains.
    #[must_use]
    pub fn domains(&self) -> &Arc<Domains> {
        self.inner.domains()
    }

    /// Sets a scalar program variable.
    ///
    /// # Errors
    /// Propagates structure errors.
    pub fn set_scalar(&mut self, x: FuncId, value: Elem) -> Result<()> {
        self.inner.set_constant(x, value)?;
        Ok(())
    }

    /// Reads a scalar program variable.
    ///
    /// # Errors
    /// Returns an error if the variable is unset.
    pub fn scalar(&self, x: FuncId) -> Result<Elem> {
        Ok(self.inner.func_value(x, &[])?)
    }

    /// Inserts a tuple into a relation; returns whether it was new.
    ///
    /// # Errors
    /// Propagates structure errors.
    pub fn insert(&mut self, r: PredId, tuple: Vec<Elem>) -> Result<bool> {
        Ok(self.inner.insert_pred(r, tuple)?)
    }

    /// Removes a tuple from a relation; returns whether it was present.
    pub fn delete(&mut self, r: PredId, tuple: &[Elem]) -> bool {
        self.inner.remove_pred(r, tuple)
    }

    /// Tuple membership.
    #[must_use]
    pub fn contains(&self, r: PredId, tuple: &[Elem]) -> bool {
        self.inner.pred_holds(r, tuple)
    }

    /// Cardinality of a relation.
    #[must_use]
    pub fn cardinality(&self, r: PredId) -> usize {
        self.inner.pred_relation(r).len()
    }


    /// Binds every 0-ary function (constant) whose name matches an element
    /// of its sort's carrier to that element — e.g. a constant `rev1: reviewer`
    /// becomes the carrier element named `rev1`. Returns how many constants
    /// were bound. Used by mechanically derived schemas whose procedures
    /// mention parameter names.
    ///
    /// # Errors
    /// Propagates structure errors.
    pub fn bind_named_constants(&mut self) -> Result<usize> {
        let sig = self.signature().clone();
        let dom = self.domains().clone();
        let mut bound = 0;
        for f in sig.func_ids() {
            let decl = sig.func(f);
            if decl.is_constant() {
                if let Some(e) = dom.elem_by_name(decl.range, &decl.name) {
                    self.set_scalar(f, e)?;
                    bound += 1;
                }
            }
        }
        Ok(bound)
    }

    /// Renders the state as `R = {tuples…}` lines, for diagnostics.
    ///
    /// # Errors
    /// Propagates element-name lookups.
    pub fn render(&self) -> Result<String> {
        use std::fmt::Write as _;
        let sig = self.signature().clone();
        let dom = self.domains().clone();
        let mut out = String::new();
        for p in sig.pred_ids() {
            let decl = sig.pred(p);
            let _ = write!(out, "{} = {{", decl.name);
            let mut first = true;
            for tuple in self.inner.pred_relation(p) {
                if !first {
                    let _ = write!(out, ", ");
                }
                first = false;
                let names: Vec<&str> = tuple
                    .iter()
                    .zip(&decl.domain)
                    .map(|(e, &s)| dom.elem_name(&sig, s, *e))
                    .collect::<eclectic_logic::Result<_>>()
                    .map_err(RprError::Logic)?;
                let _ = write!(out, "({})", names.join(", "));
            }
            let _ = writeln!(out, "}}");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> DbState {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("OFFERED", &[course]).unwrap();
        sig.add_constant("x", course).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        DbState::new(Arc::new(sig), Arc::new(dom))
    }

    #[test]
    fn relations_and_scalars() {
        let mut st = setup();
        let sig = st.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let x = sig.func_id("x").unwrap();

        assert!(st.insert(offered, vec![Elem(0)]).unwrap());
        assert!(st.contains(offered, &[Elem(0)]));
        assert_eq!(st.cardinality(offered), 1);
        assert!(st.delete(offered, &[Elem(0)]));
        assert!(!st.contains(offered, &[Elem(0)]));

        assert!(st.scalar(x).is_err());
        st.set_scalar(x, Elem(1)).unwrap();
        assert_eq!(st.scalar(x).unwrap(), Elem(1));
    }

    #[test]
    fn render_is_readable() {
        let mut st = setup();
        let sig = st.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        st.insert(offered, vec![Elem(1)]).unwrap();
        let text = st.render().unwrap();
        assert!(text.contains("OFFERED = {(ai)}"));
    }
}
