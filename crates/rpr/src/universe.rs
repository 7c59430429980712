//! Finite universes for the denotational semantics.
//!
//! Paper §5.1.2: a universe for `L` is a set of structures such that (i) any
//! two differ only on the program variables, (ii) every scalar program
//! variable can take any domain value, and (iii) every relational program
//! variable can take any relation value. Over finite domains the universe
//! satisfying (i)–(iii) is itself finite — the full product of all relation
//! values and scalar values — so a state *is* a mixed-radix number, its
//! code, and this module is the codec between codes and states. No state is
//! stored: a formula is evaluated on a [`CodeView`] of a code, once per
//! class of codes it cannot tell apart, and the atomic statements' writes
//! are arithmetic on codes.

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::sync::Arc;

use eclectic_kernel::FxHashMap;
use eclectic_logic::eval::StructureView;
use eclectic_logic::{Domains, Elem, FuncId, LogicError, PredId, Signature};

use crate::error::{Result, RprError};
use crate::state::DbState;

/// A finite universe, held as a codec between state codes `0..len()` and
/// the states they stand for.
///
/// A code is `relation part × scalar span + scalar part`. In the relation
/// part the first program relation is the most significant field and tuple
/// `k` of a relation (in [`Domains::tuples`] order) is bit `k` of its
/// field; the scalar part is a mixed-radix number whose last scalar is the
/// least significant digit. So the codes count through the nested
/// enumeration that varies the first relation slowest and the last scalar
/// fastest.
#[derive(Debug, Clone)]
pub struct FiniteUniverse {
    /// Every non-program symbol's interpretation.
    template: DbState,
    relations: Vec<PredId>,
    scalars: Vec<FuncId>,
    /// Per program relation, its bit field in the relation part.
    fields: Vec<Field>,
    /// Per program scalar, the size of its carrier.
    radices: Vec<usize>,
    /// The product of `radices`: the place value of the relation part.
    scalar_span: usize,
    len: usize,
}

/// One program relation's bit field.
#[derive(Debug, Clone)]
struct Field {
    /// The bit of the relation's tuple 0 in the relation part.
    offset: u32,
    /// Number of tuples over the relation's columns.
    rows: u32,
    /// Per column, its carrier size and its multiplier: a tuple's position
    /// in [`Domains::tuples`] order is `Σ tuple[j] · multiplier[j]`.
    columns: Vec<(usize, usize)>,
}

impl Field {
    /// The tuple's bit within the field, or `None` when the tuple does not
    /// fit the relation's columns.
    fn row(&self, tuple: &[Elem]) -> Option<u32> {
        if tuple.len() != self.columns.len() {
            return None;
        }
        let mut row = 0;
        for (e, &(card, mult)) in tuple.iter().zip(&self.columns) {
            if e.index() >= card {
                return None;
            }
            row += e.index() * mult;
        }
        u32::try_from(row).ok()
    }

    /// The field's bits, in place in the relation part.
    fn mask(&self) -> usize {
        ((1usize << self.rows) - 1) << self.offset
    }
}

/// The error a write to a non-program symbol raises when it would leave the
/// universe (paper condition (i)).
fn outside_universe() -> RprError {
    RprError::BadStatement("state outside the universe (differs on a non-program symbol)".into())
}

impl FiniteUniverse {
    /// Builds the universe over the given relational and scalar program
    /// variables. Every other symbol's interpretation is the one in
    /// `template` (usually an empty state). State `i` is the `i`-th of the
    /// nested enumeration that varies the first relation slowest and the
    /// last scalar fastest.
    ///
    /// # Errors
    /// Returns [`RprError::UniverseTooLarge`] if the product of relation
    /// subsets and scalar values exceeds `cap`, [`RprError::BadSchema`] if
    /// a program variable is listed twice, and a
    /// [`LogicError::ArityMismatch`] if a scalar is not a constant.
    pub fn enumerate(
        template: &DbState,
        relations: &[PredId],
        scalars: &[FuncId],
        cap: usize,
    ) -> Result<Self> {
        let sig = template.signature();
        let domains = template.domains();
        for (k, &r) in relations.iter().enumerate() {
            if relations[..k].contains(&r) {
                return Err(RprError::BadSchema(format!(
                    "program relation `{}` listed twice",
                    sig.pred(r).name
                )));
            }
        }
        for (k, &x) in scalars.iter().enumerate() {
            let decl = sig.func(x);
            if scalars[..k].contains(&x) {
                return Err(RprError::BadSchema(format!(
                    "program scalar `{}` listed twice",
                    decl.name
                )));
            }
            if !decl.is_constant() {
                return Err(RprError::Logic(LogicError::ArityMismatch {
                    name: decl.name.clone(),
                    expected: decl.arity(),
                    found: 0,
                }));
            }
        }

        // Fields from the least significant (last) relation up.
        let mut fields = Vec::with_capacity(relations.len());
        let mut bits: u32 = 0;
        for &r in relations.iter().rev() {
            let sorts = &sig.pred(r).domain;
            let rows = u32::try_from(domains.tuple_count(sorts)).unwrap_or(u32::MAX);
            let mut columns = vec![(0, 0); sorts.len()];
            let mut mult = 1usize;
            for (j, &s) in sorts.iter().enumerate().rev() {
                columns[j] = (domains.card(s), mult);
                mult = mult.saturating_mul(domains.card(s));
            }
            fields.push(Field {
                offset: bits,
                rows,
                columns,
            });
            bits = bits.saturating_add(rows);
        }
        fields.reverse();
        let radices: Vec<usize> = scalars
            .iter()
            .map(|&x| domains.card(sig.func(x).range))
            .collect();

        // An empty scalar carrier empties the universe, however many
        // relation values there are.
        let too_large = RprError::UniverseTooLarge {
            required: usize::MAX,
            cap,
        };
        let (scalar_span, len) = if radices.contains(&0) {
            (0, 0)
        } else {
            let span = radices
                .iter()
                .try_fold(1usize, |acc, &r| acc.checked_mul(r))
                .ok_or_else(|| too_large.clone())?;
            let len = 1usize
                .checked_shl(bits)
                .and_then(|subsets| subsets.checked_mul(span))
                .ok_or(too_large)?;
            (span, len)
        };
        if len > cap {
            return Err(RprError::UniverseTooLarge { required: len, cap });
        }
        Ok(FiniteUniverse {
            template: template.clone(),
            relations: relations.to_vec(),
            scalars: scalars.to_vec(),
            fields,
            radices,
            scalar_span,
            len,
        })
    }

    /// The signature.
    #[must_use]
    pub fn signature(&self) -> &Arc<Signature> {
        self.template.signature()
    }

    /// The shared domains.
    #[must_use]
    pub fn domains(&self) -> &Arc<Domains> {
        self.template.domains()
    }

    /// The relational program variables.
    #[must_use]
    pub fn relations(&self) -> &[PredId] {
        &self.relations
    }

    /// The scalar program variables.
    #[must_use]
    pub fn scalars(&self) -> &[FuncId] {
        &self.scalars
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty, which happens exactly when some
    /// scalar program variable's carrier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes the state at an index.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn state(&self, i: usize) -> DbState {
        assert!(
            i < self.len,
            "state {i} is outside a universe of {} states",
            self.len
        );
        let view = self.view(i);
        let mut st = self.template.clone();
        for (&r, field) in self.relations.iter().zip(&self.fields) {
            let rows = self.domains().tuples(&self.signature().pred(r).domain);
            let tuples = rows
                .into_iter()
                .zip(0..)
                .filter(|&(_, k)| view.rel >> (field.offset + k) & 1 == 1)
                .map(|(t, _)| t)
                .collect();
            st.structure_mut()
                .set_pred_relation(r, tuples)
                .expect("carrier tuples fit their relation");
        }
        for (j, &x) in self.scalars.iter().enumerate() {
            st.set_scalar(x, view.digit(j))
                .expect("a digit is below its scalar's radix");
        }
        st
    }

    /// The index of a state, if it belongs to the universe: `None` when it
    /// differs from the template on a non-program symbol or leaves a
    /// scalar program variable unset.
    #[must_use]
    pub fn index_of(&self, st: &DbState) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut rel = 0usize;
        for (&r, field) in self.relations.iter().zip(&self.fields) {
            for tuple in st.structure().pred_relation(r) {
                rel |= 1 << (field.offset + field.row(tuple)?);
            }
        }
        let mut scal = 0usize;
        for (&x, &radix) in self.scalars.iter().zip(&self.radices) {
            let e = st.scalar(x).ok()?.index();
            if e >= radix {
                return None;
            }
            scal = scal * radix + e;
        }
        let code = rel * self.scalar_span + scal;
        // Equal program symbols by construction; this compares the rest.
        (self.state(code) == *st).then_some(code)
    }

    /// The index of a state, erroring when it does not belong (which means
    /// the state differs on a non-program symbol — condition (i) violated).
    ///
    /// # Errors
    /// Returns [`RprError::BadStatement`].
    pub fn index_or_err(&self, st: &DbState) -> Result<usize> {
        self.index_of(st).ok_or_else(outside_universe)
    }

    /// The state `code` read as a structure, for the first-order evaluator.
    fn view(&self, code: usize) -> CodeView<'_> {
        debug_assert!(code < self.len);
        CodeView {
            u: self,
            rel: code / self.scalar_span,
            scal: code % self.scalar_span,
        }
    }

    /// Calls `visit(code, value)` for every code in increasing order, where
    /// `value` is `eval` of the code's view. Codes that agree on the scalars
    /// and on the fields of the relations in `reads` look the same to a
    /// formula that mentions no other predicate, so `eval` runs once per
    /// class of such codes, at its first code. Stops at the first error, at
    /// the code where a pass that evaluated every code would stop.
    ///
    /// # Errors
    /// The first error of `eval` or `visit`.
    pub(crate) fn for_each_class<T>(
        &self,
        reads: &BTreeSet<PredId>,
        mut eval: impl FnMut(&CodeView<'_>) -> Result<T>,
        mut visit: impl FnMut(usize, &T) -> Result<()>,
    ) -> Result<()> {
        let observed = self
            .relations
            .iter()
            .zip(&self.fields)
            .filter(|(r, _)| reads.contains(r))
            .fold(0, |mask, (_, field)| mask | field.mask());
        let mut memo = FxHashMap::default();
        for code in 0..self.len {
            let view = self.view(code);
            let value = match memo.entry((view.rel & observed, view.scal)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(eval(&view)?),
            };
            visit(code, value)?;
        }
        Ok(())
    }

    fn relation_slot(&self, r: PredId) -> Option<usize> {
        self.relations.iter().position(|&p| p == r)
    }

    fn scalar_slot(&self, x: FuncId) -> Option<usize> {
        self.scalars.iter().position(|&f| f == x)
    }

    /// The code of state `code` after `insert r(tuple)`.
    ///
    /// # Errors
    /// The arity and range errors of [`DbState::insert`]; a
    /// [`RprError::BadStatement`] when `r` is not a program relation and the
    /// template lacks the tuple.
    pub(crate) fn insert(&self, code: usize, r: PredId, tuple: &[Elem]) -> Result<usize> {
        self.template.structure().check_pred_tuple(r, tuple)?;
        match self.relation_slot(r) {
            Some(k) => {
                let field = &self.fields[k];
                let row = field.row(tuple).expect("checked tuple fits its field");
                let view = self.view(code);
                Ok(view.with_rel(view.rel | 1 << (field.offset + row)))
            }
            None if self.template.contains(r, tuple) => Ok(code),
            None => Err(outside_universe()),
        }
    }

    /// The code of state `code` after `delete r(tuple)`; a tuple that does
    /// not fit `r` is in no state, so deleting it changes nothing.
    ///
    /// # Errors
    /// A [`RprError::BadStatement`] when `r` is not a program relation and
    /// the template holds the tuple.
    pub(crate) fn delete(&self, code: usize, r: PredId, tuple: &[Elem]) -> Result<usize> {
        match self.relation_slot(r) {
            Some(k) => {
                let field = &self.fields[k];
                let view = self.view(code);
                Ok(field.row(tuple).map_or(code, |row| {
                    view.with_rel(view.rel & !(1 << (field.offset + row)))
                }))
            }
            None if self.template.contains(r, tuple) => Err(outside_universe()),
            None => Ok(code),
        }
    }

    /// The code of state `code` after `r := rows`.
    ///
    /// # Errors
    /// The arity and range errors of `set_pred_relation`, in row order; a
    /// [`RprError::BadStatement`] when `r` is not a program relation and
    /// `rows` differ from the template's relation.
    pub(crate) fn set_relation(&self, code: usize, r: PredId, rows: &[Vec<Elem>]) -> Result<usize> {
        let structure = self.template.structure();
        for tuple in rows {
            structure.check_pred_tuple(r, tuple)?;
        }
        match self.relation_slot(r) {
            Some(k) => {
                let field = &self.fields[k];
                let mut bits = 0usize;
                for tuple in rows {
                    bits |= 1 << field.row(tuple).expect("checked tuple fits its field");
                }
                let view = self.view(code);
                Ok(view.with_rel(view.rel & !field.mask() | bits << field.offset))
            }
            None if rows.iter().cloned().collect::<BTreeSet<_>>()
                == *structure.pred_relation(r) =>
            {
                Ok(code)
            }
            None => Err(outside_universe()),
        }
    }

    /// The code of state `code` after `x := value`.
    ///
    /// # Errors
    /// The arity and range errors of [`DbState::set_scalar`]; a
    /// [`RprError::BadStatement`] when `x` is not a program scalar and the
    /// template's value differs.
    pub(crate) fn assign(&self, code: usize, x: FuncId, value: Elem) -> Result<usize> {
        let structure = self.template.structure();
        structure.check_func_entry(x, &[], value)?;
        match self.scalar_slot(x) {
            Some(j) => {
                let view = self.view(code);
                let place = self.radices[j + 1..].iter().product::<usize>();
                let old = view.digit(j).index();
                Ok(code - old * place + value.index() * place)
            }
            None if structure.func_value(x, &[]) == Ok(value) => Ok(code),
            None => Err(outside_universe()),
        }
    }
}

/// A state code read as a structure: program relations answer from the
/// code's bits, program scalars from its digits, and every other symbol
/// from the template.
#[derive(Clone, Copy)]
pub(crate) struct CodeView<'u> {
    u: &'u FiniteUniverse,
    /// The relation part of the code.
    rel: usize,
    /// The scalar part of the code.
    scal: usize,
}

impl CodeView<'_> {
    /// The value of scalar `j`.
    fn digit(&self, j: usize) -> Elem {
        let radices = &self.u.radices;
        let place = radices[j + 1..].iter().product::<usize>();
        let digit = self.scal / place % radices[j];
        Elem(u32::try_from(digit).expect("a digit is below a carrier size"))
    }

    /// The code with this scalar part and relation part `rel`.
    fn with_rel(&self, rel: usize) -> usize {
        rel * self.u.scalar_span + self.scal
    }
}

impl StructureView for CodeView<'_> {
    fn signature(&self) -> &Signature {
        self.u.signature()
    }

    fn domains(&self) -> &Domains {
        self.u.domains()
    }

    fn pred_holds(&self, p: PredId, tuple: &[Elem]) -> bool {
        match self.u.relation_slot(p) {
            Some(k) => {
                let field = &self.u.fields[k];
                field
                    .row(tuple)
                    .is_some_and(|row| self.rel >> (field.offset + row) & 1 == 1)
            }
            None => self.u.template.contains(p, tuple),
        }
    }

    fn func_value(&self, f: FuncId, args: &[Elem]) -> eclectic_logic::Result<Elem> {
        match self.u.scalar_slot(f) {
            Some(j) if args.is_empty() => Ok(self.digit(j)),
            _ => self.u.template.structure().func_value(f, args),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> DbState {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("OFFERED", &[course]).unwrap();
        sig.add_constant("x", course).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        DbState::new(Arc::new(sig), Arc::new(dom))
    }

    #[test]
    fn enumerates_product() {
        let t = template();
        let sig = t.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let x = sig.func_id("x").unwrap();
        let u = FiniteUniverse::enumerate(&t, &[offered], &[x], 100).unwrap();
        // 2^2 relation values × 2 scalar values.
        assert_eq!(u.len(), 8);
        for i in 0..u.len() {
            assert_eq!(u.index_of(&u.state(i)), Some(i));
        }
    }

    #[test]
    fn cap_enforced() {
        let t = template();
        let sig = t.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        assert!(matches!(
            FiniteUniverse::enumerate(&t, &[offered], &[], 3),
            Err(RprError::UniverseTooLarge {
                required: 4,
                cap: 3
            })
        ));
    }

    #[test]
    fn closure_conditions_hold() {
        // (ii)/(iii): for any state, flipping a scalar or relation value
        // stays inside the universe.
        let t = template();
        let sig = t.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let x = sig.func_id("x").unwrap();
        let u = FiniteUniverse::enumerate(&t, &[offered], &[x], 100).unwrap();
        let st = u.state(0);
        let mut flipped = st.clone();
        flipped.set_scalar(x, Elem(1)).unwrap();
        assert!(u.index_of(&flipped).is_some());
        let mut rel = st;
        rel.insert(offered, vec![Elem(0)]).unwrap();
        assert!(u.index_of(&rel).is_some());
    }

    /// Two relations (unary over 2 courses, binary over 1 student × 2
    /// courses), scalars of radix 2 and 3, and a non-program relation `Q`.
    fn mixed_template() -> DbState {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        let slot = sig.add_sort("slot").unwrap();
        sig.add_db_predicate("OFFERED", &[course]).unwrap();
        sig.add_db_predicate("TAKES", &[student, course]).unwrap();
        sig.add_db_predicate("Q", &[course]).unwrap();
        sig.add_constant("x", course).unwrap();
        sig.add_constant("y", slot).unwrap();
        let dom = Domains::from_names(
            &sig,
            &[
                ("student", &["ana"]),
                ("course", &["db", "ai"]),
                ("slot", &["am", "noon", "pm"]),
            ],
        )
        .unwrap();
        DbState::new(Arc::new(sig), Arc::new(dom))
    }

    /// The nested enumeration the codec replaces: every relation subset,
    /// first relation outermost, then every scalar value, last innermost.
    fn nested(t: &DbState, relations: &[PredId], scalars: &[FuncId]) -> Vec<DbState> {
        let (sig, dom) = (t.signature().clone(), t.domains().clone());
        let mut states = vec![t.clone()];
        for &r in relations {
            let rows = dom.tuples(&sig.pred(r).domain);
            let mut next = Vec::new();
            for st in &states {
                for mask in 0..1usize << rows.len() {
                    let mut s2 = st.clone();
                    let tuples = (0..rows.len())
                        .filter(|k| mask >> k & 1 == 1)
                        .map(|k| rows[k].clone())
                        .collect();
                    s2.structure_mut().set_pred_relation(r, tuples).unwrap();
                    next.push(s2);
                }
            }
            states = next;
        }
        for &x in scalars {
            let mut next = Vec::new();
            for st in &states {
                for e in dom.elems(sig.func(x).range) {
                    let mut s2 = st.clone();
                    s2.set_scalar(x, e).unwrap();
                    next.push(s2);
                }
            }
            states = next;
        }
        states
    }

    #[test]
    fn codes_follow_the_nested_enumeration_order() {
        let t = mixed_template();
        let sig = t.signature().clone();
        let rels = [
            sig.pred_id("OFFERED").unwrap(),
            sig.pred_id("TAKES").unwrap(),
        ];
        let scalars = [sig.func_id("x").unwrap(), sig.func_id("y").unwrap()];
        let u = FiniteUniverse::enumerate(&t, &rels, &scalars, 1 << 10).unwrap();
        let reference = nested(&t, &rels, &scalars);
        // 2^2 × 2^2 relation values × 2 × 3 scalar values.
        assert_eq!(u.len(), 96);
        assert_eq!(reference.len(), u.len());
        for (i, st) in reference.iter().enumerate() {
            assert_eq!(u.state(i), *st, "state {i}");
            assert_eq!(u.index_of(st), Some(i), "state {i}");
        }
    }

    #[test]
    fn a_state_off_the_template_has_no_index() {
        let t = mixed_template();
        let sig = t.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let x = sig.func_id("x").unwrap();
        let u = FiniteUniverse::enumerate(&t, &[offered], &[x], 100).unwrap();
        let mut st = u.state(5);
        st.insert(sig.pred_id("Q").unwrap(), vec![Elem(0)]).unwrap();
        assert_eq!(u.index_of(&st), None);
        assert!(matches!(
            u.index_or_err(&st),
            Err(RprError::BadStatement(_))
        ));
        // A program scalar left unset is off the universe too.
        assert_eq!(u.index_of(&t), None);
    }

    #[test]
    fn an_empty_carrier_relation_has_one_value() {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let ghost = sig.add_sort("ghost").unwrap();
        let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
        let haunts = sig.add_db_predicate("HAUNTS", &[ghost, course]).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        let t = DbState::new(Arc::new(sig), Arc::new(dom));
        let u = FiniteUniverse::enumerate(&t, &[haunts, offered], &[], 100).unwrap();
        assert_eq!(u.len(), 4);
        for i in 0..u.len() {
            assert_eq!(u.state(i).cardinality(haunts), 0);
            assert_eq!(u.index_of(&u.state(i)), Some(i));
        }
    }

    #[test]
    fn an_empty_scalar_carrier_empties_the_universe() {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let ghost = sig.add_sort("ghost").unwrap();
        let offered = sig.add_db_predicate("OFFERED", &[course]).unwrap();
        let g = sig.add_constant("g", ghost).unwrap();
        let dom = Domains::from_names(&sig, &[("course", &["db", "ai"])]).unwrap();
        let t = DbState::new(Arc::new(sig), Arc::new(dom));
        // 2^2 relation values × 0 scalar values: no state, so never over a
        // cap of 3.
        let u = FiniteUniverse::enumerate(&t, &[offered], &[g], 3).unwrap();
        assert_eq!(u.len(), 0);
        assert!(u.is_empty());
        assert_eq!(u.index_of(&t), None);
    }

    #[test]
    fn a_program_variable_is_listed_once() {
        let t = template();
        let sig = t.signature().clone();
        let offered = sig.pred_id("OFFERED").unwrap();
        let x = sig.func_id("x").unwrap();
        assert!(matches!(
            FiniteUniverse::enumerate(&t, &[offered, offered], &[], 100),
            Err(RprError::BadSchema(_))
        ));
        assert!(matches!(
            FiniteUniverse::enumerate(&t, &[], &[x, x], 100),
            Err(RprError::BadSchema(_))
        ));
    }
}
