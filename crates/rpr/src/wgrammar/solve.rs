//! Consistent-substitution solving.
//!
//! Matching a hypernotion against a protonotion requires choosing, for each
//! metanotion, a protonotion value that (a) is derivable from the metarules
//! and (b) is the *same* everywhere the metanotion occurs in the rule — the
//! consistent substitution of W-grammar theory. The solver searches split
//! points with backtracking across a whole system of equations. Membership
//! is memoised per metanotion and token suffix: one Earley pass over a
//! suffix answers every split of it (see [`prefix_members`]).

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::wgrammar::earley::prefix_members;
use crate::wgrammar::hyper::{HyperSym, Hypernotion, Protonotion, WGrammar};

/// A substitution: metanotion → protonotion.
pub type Binding = BTreeMap<String, Protonotion>;

/// An equation `hypernotion ≙ protonotion` to be satisfied under one
/// consistent substitution.
pub type Equation = (Hypernotion, Protonotion);

/// Default cap on backtracking-search steps (`match_hyper` entries) per
/// `solve`/`solve_all` call. The packaged grammars solve their systems in
/// well under a thousand steps; a degenerate grammar with highly ambiguous
/// metanotions can otherwise blow up exponentially — or, on very long
/// protonotions, recurse deeply enough to overflow the stack. When the cap
/// trips, the search stops and [`Solver::overflowed`] reports it so
/// callers can fail gracefully instead of dying.
pub const SOLVE_STEP_LIMIT: usize = 1 << 20;

/// Cap on the recursion depth of the split search, independent of the step
/// cap: each recursion frame consumes real stack, so a million cheap steps
/// must not all nest.
const SOLVE_DEPTH_LIMIT: usize = 4_096;

/// Solver with memoised metalanguage membership.
#[derive(Debug)]
pub struct Solver<'g> {
    grammar: &'g WGrammar,
    /// `memo[meta][tokens][k]`: whether `tokens[..k]` derives from `meta`.
    /// Two levels, so that a hit is looked up by `&str` and `&[String]`
    /// without allocating. The default hasher stays, because the tokens
    /// come from spec text.
    memo: HashMap<String, HashMap<Protonotion, Rc<[bool]>>>,
    step_limit: usize,
    steps: usize,
    overflowed: bool,
}

impl<'g> Solver<'g> {
    /// Creates a solver over a grammar with the default
    /// [`SOLVE_STEP_LIMIT`].
    #[must_use]
    pub fn new(grammar: &'g WGrammar) -> Self {
        Self::with_step_limit(grammar, SOLVE_STEP_LIMIT)
    }

    /// Creates a solver with an explicit step cap (for tests exercising the
    /// overflow path cheaply).
    #[must_use]
    pub fn with_step_limit(grammar: &'g WGrammar, step_limit: usize) -> Self {
        Solver {
            grammar,
            memo: HashMap::new(),
            step_limit,
            steps: 0,
            overflowed: false,
        }
    }

    /// Whether some `solve`/`solve_all` call since construction hit the
    /// step or recursion-depth cap — its answer may be incomplete, and
    /// callers that need totality should fail rather than trust it.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Charges one search step (and `depth` against the recursion cap);
    /// returns `false` when the budget is exhausted.
    fn charge(&mut self, depth: usize) -> bool {
        self.steps += 1;
        if self.steps > self.step_limit || depth > SOLVE_DEPTH_LIMIT {
            self.overflowed = true;
            return false;
        }
        true
    }

    /// Whether `tokens` belongs to the metalanguage of `meta`.
    pub fn member(&mut self, meta: &str, tokens: &[String]) -> bool {
        self.prefixes(meta, tokens)[tokens.len()]
    }

    /// Which prefixes of `tokens` belong to the metalanguage of `meta`
    /// (see [`prefix_members`]), computed once per `(meta, tokens)`.
    fn prefixes(&mut self, meta: &str, tokens: &[String]) -> Rc<[bool]> {
        if let Some(hit) = self
            .memo
            .get(meta)
            .and_then(|by_tokens| by_tokens.get(tokens))
        {
            return Rc::clone(hit);
        }
        let members: Rc<[bool]> = prefix_members(&self.grammar.meta, meta, tokens).into();
        self.memo
            .entry(meta.to_string())
            .or_default()
            .insert(tokens.to_vec(), Rc::clone(&members));
        members
    }

    /// Solves a system of equations; returns a satisfying substitution.
    /// A search that hits the step/depth cap returns `None` and sets
    /// [`overflowed`](Self::overflowed).
    pub fn solve(&mut self, equations: &[Equation]) -> Option<Binding> {
        self.steps = 0;
        let mut binding = Binding::new();
        if self.solve_from(equations, 0, &mut binding, 0) {
            Some(binding)
        } else {
            None
        }
    }

    fn solve_from(
        &mut self,
        eqs: &[Equation],
        idx: usize,
        binding: &mut Binding,
        depth: usize,
    ) -> bool {
        let Some((pattern, tokens)) = eqs.get(idx) else {
            return true;
        };
        self.match_hyper(pattern, tokens, eqs, idx, binding, depth)
    }

    /// Matches `pat` against `toks`, then continues with the remaining
    /// equations; backtracks over metanotion split points.
    fn match_hyper(
        &mut self,
        pat: &[HyperSym],
        toks: &[String],
        eqs: &[Equation],
        idx: usize,
        binding: &mut Binding,
        depth: usize,
    ) -> bool {
        if !self.charge(depth) {
            return false;
        }
        match pat.first() {
            None => toks.is_empty() && self.solve_from(eqs, idx + 1, binding, depth + 1),
            Some(HyperSym::Mark(m)) => {
                toks.first() == Some(m)
                    && self.match_hyper(&pat[1..], &toks[1..], eqs, idx, binding, depth + 1)
            }
            Some(HyperSym::Meta(mv)) => {
                if let Some(bound) = binding.get(mv) {
                    let len = bound.len();
                    return toks.starts_with(bound)
                        && self.match_hyper(&pat[1..], &toks[len..], eqs, idx, binding, depth + 1);
                }
                let members = self.prefixes(mv, toks);
                for split in (0..=toks.len()).filter(|&k| members[k]) {
                    binding.insert(mv.clone(), toks[..split].to_vec());
                    if self.match_hyper(&pat[1..], &toks[split..], eqs, idx, binding, depth + 1) {
                        return true;
                    }
                    binding.remove(mv);
                    if self.overflowed {
                        return false;
                    }
                }
                false
            }
        }
    }

    /// Enumerates up to `cap` satisfying substitutions (for generation —
    /// ambiguous splits yield several). A search that hits the step/depth
    /// cap returns what it found so far and sets
    /// [`overflowed`](Self::overflowed).
    pub fn solve_all(&mut self, equations: &[Equation], cap: usize) -> Vec<Binding> {
        self.steps = 0;
        let mut out = Vec::new();
        let mut binding = Binding::new();
        self.solve_from_all(equations, 0, &mut binding, &mut out, cap, 0);
        out
    }

    fn solve_from_all(
        &mut self,
        eqs: &[Equation],
        idx: usize,
        binding: &mut Binding,
        out: &mut Vec<Binding>,
        cap: usize,
        depth: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        let Some((pattern, tokens)) = eqs.get(idx) else {
            out.push(binding.clone());
            return;
        };
        self.match_hyper_all(pattern, tokens, eqs, idx, binding, out, cap, depth);
    }

    #[allow(clippy::too_many_arguments)]
    fn match_hyper_all(
        &mut self,
        pat: &[HyperSym],
        toks: &[String],
        eqs: &[Equation],
        idx: usize,
        binding: &mut Binding,
        out: &mut Vec<Binding>,
        cap: usize,
        depth: usize,
    ) {
        if out.len() >= cap || !self.charge(depth) {
            return;
        }
        match pat.first() {
            None => {
                if toks.is_empty() {
                    self.solve_from_all(eqs, idx + 1, binding, out, cap, depth + 1);
                }
            }
            Some(HyperSym::Mark(m)) => {
                if toks.first() == Some(m) {
                    self.match_hyper_all(&pat[1..], &toks[1..], eqs, idx, binding, out, cap, depth + 1);
                }
            }
            Some(HyperSym::Meta(mv)) => {
                if let Some(bound) = binding.get(mv) {
                    let len = bound.len();
                    if toks.starts_with(bound) {
                        self.match_hyper_all(
                            &pat[1..],
                            &toks[len..],
                            eqs,
                            idx,
                            binding,
                            out,
                            cap,
                            depth + 1,
                        );
                    }
                    return;
                }
                let members = self.prefixes(mv, toks);
                for split in (0..=toks.len()).filter(|&k| members[k]) {
                    binding.insert(mv.clone(), toks[..split].to_vec());
                    self.match_hyper_all(&pat[1..], &toks[split..], eqs, idx, binding, out, cap, depth + 1);
                    binding.remove(mv);
                    if self.overflowed {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wgrammar::hyper::{hyper, proto, HyperRule};
    use crate::wgrammar::meta::MetaGrammar;

    fn grammar() -> WGrammar {
        let mut meta = MetaGrammar::new();
        meta.add_letters("LETTER", "abcdefghijklmnopqrstuvwxyz");
        meta.add_identifier("ALPHA", "LETTER");
        meta.add_identifier("ALPHA2", "LETTER");
        meta.add_unary_number("NUM");
        meta.add_unary_number("NUM2");
        meta.add(
            "DEC",
            vec![
                crate::wgrammar::meta::MetaSym::mark("rel"),
                crate::wgrammar::meta::MetaSym::meta("ALPHA"),
                crate::wgrammar::meta::MetaSym::mark("has"),
                crate::wgrammar::meta::MetaSym::meta("NUM"),
            ],
        );
        meta.add("DECS", vec![crate::wgrammar::meta::MetaSym::meta("DEC")]);
        meta.add(
            "DECS",
            vec![
                crate::wgrammar::meta::MetaSym::meta("DEC"),
                crate::wgrammar::meta::MetaSym::meta("DECS"),
            ],
        );
        WGrammar::new(meta, vec![HyperRule {
            name: "dummy".into(),
            lhs: hyper("x"),
            rhs: vec![],
        }])
    }

    #[test]
    fn single_equation_matching() {
        let g = grammar();
        let mut s = Solver::new(&g);
        // name ALPHA ≙ name f o o
        let b = s
            .solve(&[(hyper("name ALPHA"), proto("name f o o"))])
            .expect("solvable");
        assert_eq!(b["ALPHA"], proto("f o o"));
        // Mark mismatch.
        assert!(s.solve(&[(hyper("name ALPHA"), proto("decl f"))]).is_none());
        // ALPHA cannot be empty.
        assert!(s.solve(&[(hyper("name ALPHA"), proto("name"))]).is_none());
    }

    #[test]
    fn consistency_across_occurrences() {
        let g = grammar();
        let mut s = Solver::new(&g);
        // ALPHA twice, same value required.
        let eqs = [(
            hyper("eq ALPHA and ALPHA"),
            proto("eq a b and a b"),
        )];
        assert!(s.solve(&eqs).is_some());
        let eqs = [(
            hyper("eq ALPHA and ALPHA"),
            proto("eq a b and a c"),
        )];
        assert!(s.solve(&eqs).is_none());
    }

    #[test]
    fn consistency_across_equations() {
        let g = grammar();
        let mut s = Solver::new(&g);
        // ALPHA bound by the first equation must satisfy the second.
        let eqs = [
            (hyper("lhs ALPHA"), proto("lhs a b")),
            (hyper("rhs ALPHA done"), proto("rhs a b done")),
        ];
        assert!(s.solve(&eqs).is_some());
        let eqs = [
            (hyper("lhs ALPHA"), proto("lhs a b")),
            (hyper("rhs ALPHA done"), proto("rhs c done")),
        ];
        assert!(s.solve(&eqs).is_none());
    }

    #[test]
    fn backtracking_over_splits() {
        let g = grammar();
        let mut s = Solver::new(&g);
        // ALPHA ALPHA2 split of "a b c": first greedy choice may fail, the
        // solver must find ALPHA = a, ALPHA2 = b c (or another valid split)
        // subject to the second equation pinning ALPHA = a.
        let eqs = [
            (hyper("x ALPHA ALPHA2"), proto("x a b c")),
            (hyper("y ALPHA"), proto("y a")),
        ];
        let b = s.solve(&eqs).expect("solvable");
        assert_eq!(b["ALPHA"], proto("a"));
        assert_eq!(b["ALPHA2"], proto("b c"));
    }

    #[test]
    fn declaration_list_splits() {
        let g = grammar();
        let mut s = Solver::new(&g);
        // DEC DECS split of a two-declaration list.
        let eqs = [(
            hyper("list rel ALPHA has NUM DECS"),
            proto("list rel a has i rel b b has i i"),
        )];
        let b = s.solve(&eqs).expect("solvable");
        assert_eq!(b["ALPHA"], proto("a"));
        assert_eq!(b["NUM"], proto("i"));
        assert_eq!(b["DECS"], proto("rel b b has i i"));
    }

    #[test]
    fn step_limit_overflow_is_reported() {
        let g = grammar();
        // A cap of 2 steps cannot finish even the simple split search.
        let mut s = Solver::with_step_limit(&g, 2);
        let eqs = [(
            hyper("list rel ALPHA has NUM DECS"),
            proto("list rel a has i rel b b has i i"),
        )];
        assert!(s.solve(&eqs).is_none());
        assert!(s.overflowed());
        // The same system solves fine under the default cap, and a fresh
        // solver reports no overflow.
        let mut fresh = Solver::new(&g);
        assert!(fresh.solve(&eqs).is_some());
        assert!(!fresh.overflowed());
        // solve_all under a tiny cap also flags instead of diverging.
        let mut capped = Solver::with_step_limit(&g, 2);
        let found = capped.solve_all(&eqs, 8);
        assert!(found.is_empty());
        assert!(capped.overflowed());
    }

    #[test]
    fn membership_is_memoised() {
        let g = grammar();
        let mut s = Solver::new(&g);
        assert!(s.member("NUM", &proto("i i")));
        assert!(s.member("NUM", &proto("i i")));
        assert!(!s.member("NUM", &proto("x")));
    }
}
