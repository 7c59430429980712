//! Earley recognition over metagrammars.
//!
//! Decides whether a protonotion (token string) belongs to the language of
//! a metanotion. General CFG recognition — handles left/right recursion and
//! empty productions — so metagrammar authors need no normal form.
//!
//! Earley set `k` depends only on `tokens[..k]`, so one pass answers
//! membership for every prefix of a token string at once
//! ([`prefix_members`]). The consistent-substitution solver relies on this
//! to try every split of a metanotion's value with a single pass.

use eclectic_kernel::{FxHashMap, FxHashSet};

use crate::wgrammar::meta::{MetaGrammar, MetaSym};

/// An Earley item: production `lhs → prod`, dot position, origin set.
#[derive(Debug, Clone, Copy)]
struct Item<'g> {
    lhs: &'g str,
    prod: &'g Vec<MetaSym>,
    dot: usize,
    origin: usize,
}

impl<'g> Item<'g> {
    fn next_sym(&self) -> Option<&'g MetaSym> {
        self.prod.get(self.dot)
    }

    fn advance(self) -> Self {
        Item {
            dot: self.dot + 1,
            ..self
        }
    }

    /// The item's identity: every production is its own `Vec` inside the
    /// grammar, so its address names it — even when its right side is
    /// empty — whichever metanotion occurrence predicted it.
    fn key(&self) -> (usize, usize, usize) {
        (
            self.prod as *const Vec<MetaSym> as usize,
            self.dot,
            self.origin,
        )
    }
}

/// One Earley set, indexed for prediction and completion.
#[derive(Default)]
struct Set<'g> {
    items: Vec<Item<'g>>,
    seen: FxHashSet<(usize, usize, usize)>,
    /// Indices of the items whose next symbol is a metanotion, by that
    /// metanotion: completion advances exactly these.
    waiting: FxHashMap<&'g str, Vec<usize>>,
    /// Metanotions already predicted here.
    predicted: Vec<&'g str>,
    /// Metanotions completed with origin here, i.e. that derive the empty
    /// string at this position. An item that starts waiting on one after
    /// its completion advances at once (Aycock & Horspool's nullable fix).
    nulled: Vec<&'g str>,
}

impl<'g> Set<'g> {
    fn push(&mut self, item: Item<'g>) {
        if !self.seen.insert(item.key()) {
            return;
        }
        if let Some(MetaSym::Meta(m)) = item.next_sym() {
            self.waiting
                .entry(m.as_str())
                .or_default()
                .push(self.items.len());
        }
        self.items.push(item);
    }

    /// Predicts `m` at position `at`, once per set. A production whose
    /// first symbol is a mark other than `lookahead` can never scan, so it
    /// is not predicted.
    fn predict(&mut self, g: &'g MetaGrammar, m: &'g str, at: usize, lookahead: Option<&String>) {
        if self.predicted.contains(&m) {
            return;
        }
        self.predicted.push(m);
        for prod in g.productions_of(m) {
            if let Some(MetaSym::Mark(mark)) = prod.first() {
                if lookahead != Some(mark) {
                    continue;
                }
            }
            self.push(Item {
                lhs: m,
                prod,
                dot: 0,
                origin: at,
            });
        }
    }
}

/// Which prefixes of `tokens` derive from metanotion `start`: entry `k` of
/// the result (of length `tokens.len() + 1`) says whether `tokens[..k]`
/// does. One Earley pass answers every entry. It stops as soon as no item
/// scans the next token, since every longer prefix then fails too.
#[must_use]
pub fn prefix_members(g: &MetaGrammar, start: &str, tokens: &[String]) -> Vec<bool> {
    let mut members = vec![false; tokens.len() + 1];
    let mut done: Vec<Set<'_>> = Vec::new();
    let mut set = Set::default();
    set.predict(g, start, 0, tokens.first());
    let mut advanced = Vec::new();

    for (i, member) in members.iter_mut().enumerate() {
        let mut next = Set::default();
        let mut j = 0;
        while j < set.items.len() {
            let item = set.items[j];
            j += 1;
            match item.next_sym() {
                Some(MetaSym::Meta(m)) => {
                    // Predict, and step over `m` if it already derived ε here.
                    set.predict(g, m, i, tokens.get(i));
                    if set.nulled.contains(&m.as_str()) {
                        set.push(item.advance());
                    }
                }
                Some(MetaSym::Mark(mark)) => {
                    // Scan.
                    if tokens.get(i) == Some(mark) {
                        next.push(item.advance());
                    }
                }
                None => {
                    // Complete.
                    if item.origin == 0 && item.lhs == start {
                        *member = true;
                    }
                    let origin = if item.origin == i {
                        if !set.nulled.contains(&item.lhs) {
                            set.nulled.push(item.lhs);
                        }
                        &set
                    } else {
                        &done[item.origin]
                    };
                    if let Some(waiters) = origin.waiting.get(item.lhs) {
                        advanced.extend(waiters.iter().map(|&w| origin.items[w].advance()));
                    }
                    for ready in advanced.drain(..) {
                        set.push(ready);
                    }
                }
            }
        }
        if next.items.is_empty() {
            break;
        }
        done.push(set);
        set = next;
    }
    members
}

/// Whether `tokens` is derivable from metanotion `start` in the metagrammar.
#[must_use]
pub fn recognizes(g: &MetaGrammar, start: &str, tokens: &[String]) -> bool {
    prefix_members(g, start, tokens)[tokens.len()]
}

/// The recogniser [`prefix_members`] replaced, kept verbatim as its
/// differential oracle: one pass per token string, `Vec::contains` dedup,
/// an origin-set scan per completion and no lookahead.
#[cfg(test)]
mod reference {
    use crate::wgrammar::meta::{MetaGrammar, MetaSym};

    /// An Earley item: production `lhs → rhs`, dot position, origin set.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Item<'g> {
        lhs: &'g str,
        rhs: &'g [MetaSym],
        dot: usize,
        origin: usize,
    }

    impl<'g> Item<'g> {
        fn next_sym(&self) -> Option<&'g MetaSym> {
            self.rhs.get(self.dot)
        }
    }

    /// Whether `tokens` is derivable from metanotion `start` in the metagrammar.
    #[must_use]
    pub fn recognizes(g: &MetaGrammar, start: &str, tokens: &[String]) -> bool {
        if !g.has(start) {
            return false;
        }
        let n = tokens.len();
        let mut sets: Vec<Vec<Item<'_>>> = vec![Vec::new(); n + 1];

        for rhs in g.productions_of(start) {
            push(&mut sets[0], Item {
                lhs: start,
                rhs,
                dot: 0,
                origin: 0,
            });
        }

        for i in 0..=n {
            let mut j = 0;
            while j < sets[i].len() {
                let item = sets[i][j].clone();
                j += 1;
                match item.next_sym() {
                    Some(MetaSym::Meta(m)) => {
                        // Predict.
                        for rhs in g.productions_of(m) {
                            push(&mut sets[i], Item {
                                lhs: m,
                                rhs,
                                dot: 0,
                                origin: i,
                            });
                        }
                        // Magic completion for nullable nonterminals (Aycock &
                        // Horspool): if m is already complete at i, advance.
                        let advance = sets[i].iter().any(|c| {
                            c.lhs == m && c.dot == c.rhs.len() && c.origin == i
                        });
                        if advance {
                            push(&mut sets[i], Item {
                                dot: item.dot + 1,
                                ..item.clone()
                            });
                        }
                    }
                    Some(MetaSym::Mark(mark)) => {
                        // Scan.
                        if i < n && tokens[i] == *mark {
                            let next = Item {
                                dot: item.dot + 1,
                                ..item.clone()
                            };
                            push(&mut sets[i + 1], next);
                        }
                    }
                    None => {
                        // Complete.
                        let origin_items: Vec<Item<'_>> = sets[item.origin]
                            .iter()
                            .filter(|p| {
                                matches!(p.next_sym(), Some(MetaSym::Meta(m)) if m == item.lhs)
                            })
                            .cloned()
                            .collect();
                        for p in origin_items {
                            push(&mut sets[i], Item {
                                dot: p.dot + 1,
                                ..p
                            });
                        }
                    }
                }
            }
        }

        sets[n]
            .iter()
            .any(|it| it.lhs == start && it.dot == it.rhs.len() && it.origin == 0)
    }

    fn push<'g>(set: &mut Vec<Item<'g>>, item: Item<'g>) {
        if !set.contains(&item) {
            set.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use eclectic_kernel::Rng;

    use super::*;
    use crate::wgrammar::rpr_grammar::rpr_wgrammar;

    /// Recognition over `&str` tokens.
    fn recognizes_strs(g: &MetaGrammar, start: &str, tokens: &[&str]) -> bool {
        let owned: Vec<String> = tokens.iter().map(|s| (*s).to_string()).collect();
        recognizes(g, start, &owned)
    }

    fn letters_grammar() -> MetaGrammar {
        let mut g = MetaGrammar::new();
        g.add_letters("LETTER", "abc");
        g.add_identifier("ALPHA", "LETTER");
        g.add_unary_number("NUM");
        g
    }

    /// `S → ε | 'a' S` and `T → S 'b' S`: nullable metanotions, also in
    /// the middle of a production.
    fn nullable_grammar() -> MetaGrammar {
        let mut g = MetaGrammar::new();
        g.add("S", vec![]);
        g.add("S", vec![MetaSym::mark("a"), MetaSym::meta("S")]);
        g.add(
            "T",
            vec![MetaSym::meta("S"), MetaSym::mark("b"), MetaSym::meta("S")],
        );
        g
    }

    /// `P → A | D`, `A → B C 'z'`, `D → C 'y'`, `B → E`, `E → ε | 'x'`,
    /// `C → ε | 'w'`. On input `z`, `C` derives ε before `A → B • C 'z'`
    /// exists, so only the recorded ε-completion can advance that item.
    fn nullable_chain_grammar() -> MetaGrammar {
        let mut g = MetaGrammar::new();
        g.add("P", vec![MetaSym::meta("A")]);
        g.add("P", vec![MetaSym::meta("D")]);
        g.add(
            "A",
            vec![MetaSym::meta("B"), MetaSym::meta("C"), MetaSym::mark("z")],
        );
        g.add("D", vec![MetaSym::meta("C"), MetaSym::mark("y")]);
        g.add("B", vec![MetaSym::meta("E")]);
        g.add("E", vec![]);
        g.add("E", vec![MetaSym::mark("x")]);
        g.add("C", vec![]);
        g.add("C", vec![MetaSym::mark("w")]);
        g
    }

    /// `E → E '+' E | 'x'`: ambiguous.
    fn ambiguous_grammar() -> MetaGrammar {
        let mut g = MetaGrammar::new();
        g.add(
            "E",
            vec![MetaSym::meta("E"), MetaSym::mark("+"), MetaSym::meta("E")],
        );
        g.add("E", vec![MetaSym::mark("x")]);
        g
    }

    /// `L → L ',' 'x' | 'x'` and `M → M 'y' | ε`: left recursion, once
    /// over a nullable metanotion.
    fn left_recursive_grammar() -> MetaGrammar {
        let mut g = MetaGrammar::new();
        g.add(
            "L",
            vec![MetaSym::meta("L"), MetaSym::mark(","), MetaSym::mark("x")],
        );
        g.add("L", vec![MetaSym::mark("x")]);
        g.add("M", vec![MetaSym::meta("M"), MetaSym::mark("y")]);
        g.add("M", vec![]);
        g
    }

    #[test]
    fn identifiers() {
        let g = letters_grammar();
        assert!(recognizes_strs(&g, "ALPHA", &["a"]));
        assert!(recognizes_strs(&g, "ALPHA", &["a", "b", "c", "a"]));
        assert!(!recognizes_strs(&g, "ALPHA", &[]));
        assert!(!recognizes_strs(&g, "ALPHA", &["a", "z"]));
        assert!(!recognizes_strs(&g, "MISSING", &["a"]));
    }

    #[test]
    fn unary_numbers() {
        let g = letters_grammar();
        assert!(recognizes_strs(&g, "NUM", &["i"]));
        assert!(recognizes_strs(&g, "NUM", &["i", "i", "i"]));
        assert!(!recognizes_strs(&g, "NUM", &[]));
        assert!(!recognizes_strs(&g, "NUM", &["i", "a"]));
    }

    #[test]
    fn composite_declaration_language() {
        // DEC → 'rel' ALPHA 'has' NUM ; DECS → DEC | DEC DECS
        let mut g = letters_grammar();
        g.add(
            "DEC",
            vec![
                MetaSym::mark("rel"),
                MetaSym::meta("ALPHA"),
                MetaSym::mark("has"),
                MetaSym::meta("NUM"),
            ],
        );
        g.add("DECS", vec![MetaSym::meta("DEC")]);
        g.add("DECS", vec![MetaSym::meta("DEC"), MetaSym::meta("DECS")]);
        assert!(recognizes_strs(
            &g,
            "DECS",
            &["rel", "a", "b", "has", "i", "rel", "c", "has", "i", "i"]
        ));
        assert!(!recognizes_strs(
            &g,
            "DECS",
            &["rel", "a", "has", "i", "rel"]
        ));
    }

    #[test]
    fn nullable_productions() {
        let g = nullable_grammar();
        assert!(recognizes_strs(&g, "S", &[]));
        assert!(recognizes_strs(&g, "S", &["a", "a", "a"]));
        assert!(!recognizes_strs(&g, "S", &["b"]));
        assert!(recognizes_strs(&g, "T", &["b"]));
        assert!(recognizes_strs(&g, "T", &["a", "b", "a", "a"]));
        assert!(!recognizes_strs(&g, "T", &["a", "a"]));
    }

    #[test]
    fn ambiguous_grammars_accepted() {
        // Ambiguity must not break recognition.
        let g = ambiguous_grammar();
        assert!(recognizes_strs(&g, "E", &["x", "+", "x", "+", "x"]));
        assert!(!recognizes_strs(&g, "E", &["x", "+"]));
    }

    #[test]
    fn one_pass_answers_every_prefix() {
        let g = rpr_wgrammar().meta;
        let toks: Vec<String> = "rel a b has i i rel c has i x"
            .split(' ')
            .map(str::to_string)
            .collect();
        let members = prefix_members(&g, "DECS", &toks);
        let at: Vec<usize> = (0..members.len()).filter(|&k| members[k]).collect();
        assert_eq!(at, [5, 6, 10]);
        // The pass stops at the first token nothing scans; every later
        // prefix is reported as a non-member.
        let mut alpha = [false; 11];
        alpha[1..3].fill(true);
        assert_eq!(prefix_members(&g, "ALPHA", &toks[1..]), alpha);
        assert_eq!(prefix_members(&g, "MISSING", &toks[..2]), [false; 3]);
    }

    /// Words to draw token strings from, grouped in classes: a draw picks
    /// a class, then one of its words (a short run of marks).
    type Classes = Vec<Vec<Vec<String>>>;

    /// One class per mark, plus the foreign token `?`.
    fn singles(marks: &[&str]) -> Classes {
        marks
            .iter()
            .chain(&["?"])
            .map(|m| vec![vec![(*m).to_string()]])
            .collect()
    }

    /// A token string of 0–40 tokens drawn from `classes`.
    fn draw(rng: &mut Rng, classes: &Classes) -> Vec<String> {
        let len = rng.range(0, 40);
        let mut out = Vec::new();
        while out.len() < len {
            let class = &classes[rng.below(classes.len())];
            out.extend(class[rng.below(class.len())].iter().cloned());
        }
        out.truncate(len);
        out
    }

    /// Checks `prefix_members` against the reference on every prefix of 48
    /// strings drawn at `seed`; returns how many prefixes were members and
    /// how many were not.
    fn agree(g: &MetaGrammar, start: &str, classes: &Classes, seed: u64) -> (usize, usize) {
        let mut rng = Rng::new(seed);
        let (mut yes, mut no) = (0, 0);
        for _ in 0..48 {
            let t = draw(&mut rng, classes);
            let members = prefix_members(g, start, &t);
            assert_eq!(members.len(), t.len() + 1);
            for (k, &member) in members.iter().enumerate() {
                assert_eq!(
                    member,
                    reference::recognizes(g, start, &t[..k]),
                    "{start} on {:?}",
                    &t[..k]
                );
                if member {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
        }
        (yes, no)
    }

    #[test]
    fn prefix_members_match_the_reference_recognizer() {
        let rpr = rpr_wgrammar().meta;
        // LETTER's 65 marks form one class, so that `rel`, `has` and whole
        // declarations are drawn often enough to give DEC/DECS members.
        let letters = rpr
            .productions_of("LETTER")
            .iter()
            .filter_map(|prod| match prod.as_slice() {
                [MetaSym::Mark(mark)] => Some(vec![mark.clone()]),
                _ => None,
            })
            .collect();
        let word = |w: &str| w.split(' ').map(str::to_string).collect::<Vec<_>>();
        let mut rpr_classes = singles(&["rel", "has", "i"]);
        rpr_classes.push(letters);
        rpr_classes.push(vec![word("rel a b has i"), word("rel Q _ 7 has i i")]);

        let cases = [
            (
                rpr,
                vec!["LETTER", "ALPHA", "NUM", "DEC", "DECS"],
                rpr_classes,
            ),
            (nullable_grammar(), vec!["S", "T"], singles(&["a", "b"])),
            (
                nullable_chain_grammar(),
                vec!["P"],
                singles(&["w", "x", "y", "z"]),
            ),
            (ambiguous_grammar(), vec!["E"], singles(&["x", "+"])),
            (
                left_recursive_grammar(),
                vec!["L", "M"],
                singles(&["x", ",", "y"]),
            ),
        ];
        let mut seed = 0xea51;
        for (g, starts, classes) in &cases {
            for start in starts {
                seed += 1;
                let (yes, no) = agree(g, start, classes, seed);
                assert!(
                    yes > 0 && no > 0,
                    "{start}: {yes} members, {no} non-members"
                );
            }
        }
    }
}
