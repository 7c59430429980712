//! Recursive-descent parser for terms and formulas.
//!
//! Grammar (lowest precedence first; quantifier and modal bodies extend
//! maximally to the right):
//!
//! ```text
//! formula  ::= iff
//! iff      ::= implies ( '<->' implies )*
//! implies  ::= or ( '->' implies )?              (right associative)
//! or       ::= and ( '|' and )*
//! and      ::= unary ( '&' unary )*
//! unary    ::= '~' unary | 'dia' unary | 'box' unary
//!            | 'forall' binders '.' formula
//!            | 'exists' binders '.' formula
//!            | atom
//! binders  ::= binder+            binder ::= ident (':' ident)?
//! atom     ::= 'true' | 'false' | '(' formula ')'
//!            | term ( '=' term | '!=' term )?
//! term     ::= ident ( '(' term (',' term)* ')' )?
//! ```
//!
//! Identifiers are resolved against the signature: a bare identifier is a
//! variable, constant, or 0-ary predicate depending on its declaration. A
//! binder `x:sort` declares `x` in the signature if absent (mirroring the
//! paper's convention that languages come with a stock of typed variables).
//!
//! The same [`Parser`] reads the formulas and terms embedded in conditional
//! equations (`eclectic-algebraic`) and in RPR schemas (`eclectic-rpr`):
//! those grammars drive it through its public token helpers.

use crate::error::{LogicError, Result};
use crate::formula::Formula;
use crate::parser::lexer::{tokenize, Token, TokenKind};
use crate::signature::Signature;
use crate::symbols::{Symbol, VarId};
use crate::term::Term;

/// A recursive-descent parser over one tokenised input.
///
/// [`Parser::formula`] and [`Parser::term`] read the grammar in the module
/// docs; the token helpers ([`Parser::peek`], [`Parser::eat`],
/// [`Parser::expect`], [`Parser::ident`], the contextual-keyword checks and
/// [`Parser::pos`]/[`Parser::rewind`] for backtracking) let a grammar built
/// on top of this one read its own constructs around them. Errors are
/// [`LogicError::Parse`] with the byte offset of the offending token in the
/// whole input.
pub struct Parser<'a> {
    /// The signature identifiers resolve against; binders and declarations
    /// extend it.
    pub sig: &'a mut Signature,
    tokens: Vec<Token>,
    pos: usize,
}

/// Parses a formula, declaring binder variables in the signature as needed.
///
/// # Errors
/// Returns [`LogicError::Parse`] with position information on syntax errors,
/// plus resolution/sorting errors.
pub fn parse_formula(sig: &mut Signature, input: &str) -> Result<Formula> {
    let mut p = Parser::new(sig, input)?;
    let f = p.formula()?;
    p.expect_eof()?;
    f.check(p.sig)?;
    Ok(f)
}

/// Parses a term.
///
/// # Errors
/// See [`parse_formula`].
pub fn parse_term(sig: &mut Signature, input: &str) -> Result<Term> {
    let mut p = Parser::new(sig, input)?;
    let t = p.term()?;
    p.expect_eof()?;
    t.check(p.sig)?;
    Ok(t)
}

impl<'a> Parser<'a> {
    /// Tokenises `input` and positions the parser at its first token.
    ///
    /// # Errors
    /// Returns [`LogicError::Parse`] on a lexical error.
    pub fn new(sig: &'a mut Signature, input: &str) -> Result<Self> {
        Ok(Parser {
            sig,
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    /// The whole token stream, ending in [`TokenKind::Eof`].
    #[must_use]
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The next token.
    #[must_use]
    pub fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The kind of the token `n` places ahead ([`TokenKind::Eof`] past the end).
    #[must_use]
    pub fn peek_nth(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    /// The position of the next token, for [`Parser::rewind`].
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Returns to a position taken with [`Parser::pos`] (a later position
    /// past the end stops at [`TokenKind::Eof`]).
    pub fn rewind(&mut self, pos: usize) {
        self.pos = pos.min(self.tokens.len() - 1);
    }

    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Consumes the next token if it is `kind`.
    pub fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Consumes the next token, which must be `kind`.
    ///
    /// # Errors
    /// Returns [`LogicError::Parse`] naming the expected and found tokens.
    pub fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    /// Whether the next token is the identifier `word` (a contextual
    /// keyword: the lexer does not reserve it).
    #[must_use]
    pub fn at_keyword(&self, word: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == word)
    }

    /// Consumes the next token if it is the contextual keyword `word`.
    pub fn eat_keyword(&mut self, word: &str) -> bool {
        let at = self.at_keyword(word);
        if at {
            self.advance();
        }
        at
    }

    /// Consumes the next token, which must be the contextual keyword `word`.
    ///
    /// # Errors
    /// Returns [`LogicError::Parse`] naming the expected and found tokens.
    pub fn expect_keyword(&mut self, word: &str) -> Result<()> {
        if self.eat_keyword(word) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{word}`, found {}",
                self.peek().kind.describe()
            )))
        }
    }

    /// Checks that the input is exhausted.
    ///
    /// # Errors
    /// Returns [`LogicError::Parse`] at the first trailing token.
    pub fn expect_eof(&mut self) -> Result<()> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error(format!(
                "unexpected trailing {}",
                self.peek().kind.describe()
            )))
        }
    }

    /// A [`LogicError::Parse`] at the next token.
    #[must_use]
    pub fn error(&self, message: String) -> LogicError {
        LogicError::Parse {
            offset: self.peek().offset,
            message,
        }
    }

    /// Consumes an identifier and returns its name.
    ///
    /// # Errors
    /// Returns [`LogicError::Parse`] if the next token is not an identifier.
    pub fn ident(&mut self) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    /// Reads a binder `x` or `x:sort`. A sorted binder declares `x` in the
    /// signature (or reuses it if it has that sort); a bare one must name a
    /// declared variable.
    ///
    /// # Errors
    /// Returns parse errors and the signature's declaration errors.
    pub fn binder(&mut self) -> Result<VarId> {
        let name = self.ident()?;
        if self.eat(&TokenKind::Colon) {
            let sort_name = self.ident()?;
            let sort = self.sig.sort_id(&sort_name)?;
            self.sig.add_var(&name, sort)
        } else {
            self.sig.var_id(&name)
        }
    }

    /// Reads a formula (the `formula` rule), leaving the parser at the first
    /// token after it. The result is not sort-checked.
    ///
    /// # Errors
    /// Returns parse and name-resolution errors.
    pub fn formula(&mut self) -> Result<Formula> {
        self.iff()
    }

    fn iff(&mut self) -> Result<Formula> {
        let mut left = self.implies()?;
        while self.eat(&TokenKind::DArrow) {
            let right = self.implies()?;
            left = left.iff(right);
        }
        Ok(left)
    }

    fn implies(&mut self) -> Result<Formula> {
        let left = self.or()?;
        if self.eat(&TokenKind::Arrow) {
            let right = self.implies()?;
            Ok(left.implies(right))
        } else {
            Ok(left)
        }
    }

    fn or(&mut self) -> Result<Formula> {
        let mut left = self.and()?;
        while self.eat(&TokenKind::Or) {
            let right = self.and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Formula> {
        let mut left = self.unary()?;
        while self.eat(&TokenKind::And) {
            let right = self.unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula> {
        match self.peek().kind {
            TokenKind::Not => {
                self.advance();
                Ok(self.unary()?.not())
            }
            TokenKind::Dia => {
                self.advance();
                Ok(self.unary()?.possibly())
            }
            TokenKind::Box => {
                self.advance();
                Ok(self.unary()?.necessarily())
            }
            TokenKind::Forall => {
                self.advance();
                self.quantifier(true)
            }
            TokenKind::Exists => {
                self.advance();
                self.quantifier(false)
            }
            _ => self.atom(),
        }
    }

    fn quantifier(&mut self, universal: bool) -> Result<Formula> {
        let mut binders = vec![self.binder()?];
        while matches!(self.peek().kind, TokenKind::Ident(_)) {
            binders.push(self.binder()?);
        }
        self.expect(&TokenKind::Dot)?;
        let body = self.formula()?;
        Ok(if universal {
            Formula::forall_all(&binders, body)
        } else {
            Formula::exists_all(&binders, body)
        })
    }

    fn atom(&mut self) -> Result<Formula> {
        match &self.peek().kind {
            TokenKind::True => {
                self.advance();
                Ok(Formula::True)
            }
            TokenKind::False => {
                self.advance();
                Ok(Formula::False)
            }
            TokenKind::LParen => {
                self.advance();
                let f = self.formula()?;
                self.expect(&TokenKind::RParen)?;
                Ok(f)
            }
            TokenKind::Ident(name) => {
                // Predicate application, or a term (for equality).
                if let Some(Symbol::Pred(p)) = self.sig.lookup(name) {
                    self.advance();
                    return Ok(Formula::Pred(p, self.args()?));
                }
                let left = self.term()?;
                if self.eat(&TokenKind::Eq) {
                    let right = self.term()?;
                    Ok(Formula::Eq(left, right))
                } else if self.eat(&TokenKind::Neq) {
                    let right = self.term()?;
                    Ok(Formula::Eq(left, right).not())
                } else {
                    Err(self.error("expected `=` or `!=` after term".into()))
                }
            }
            other => Err(self.error(format!("expected atom, found {}", other.describe()))),
        }
    }

    /// Reads a term (the `term` rule), leaving the parser at the first token
    /// after it. The result is not sort-checked.
    ///
    /// # Errors
    /// Returns parse and name-resolution errors.
    pub fn term(&mut self) -> Result<Term> {
        let name = self.ident()?;
        match self.sig.lookup(&name) {
            Some(Symbol::Var(v)) => Ok(Term::Var(v)),
            Some(Symbol::Func(f)) => Ok(Term::App(f, self.args()?)),
            Some(sym) => Err(self.error(format!(
                "`{name}` is a {} where a term was expected",
                sym.kind()
            ))),
            None => Err(self.error(format!("unknown identifier `{name}`"))),
        }
    }

    /// Reads an optional argument list `( term, … )`; no `(`, no arguments.
    fn args(&mut self) -> Result<Vec<Term>> {
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            args.push(self.term()?);
            while self.eat(&TokenKind::Comma) {
                args.push(self.term()?);
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::formula_display;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        let student = sig.add_sort("student").unwrap();
        let course = sig.add_sort("course").unwrap();
        sig.add_db_predicate("offered", &[course]).unwrap();
        sig.add_db_predicate("takes", &[student, course]).unwrap();
        sig.add_var("s", student).unwrap();
        sig.add_var("c", course).unwrap();
        sig
    }

    #[test]
    fn parses_paper_static_axiom() {
        let mut sig = sig();
        let f = parse_formula(
            &mut sig,
            "~exists s:student. exists c:course. takes(s, c) & ~offered(c)",
        )
        .unwrap();
        assert!(f.is_first_order());
        assert!(f.is_closed());
    }

    #[test]
    fn parses_paper_transition_axiom() {
        let mut sig = sig();
        let f = parse_formula(
            &mut sig,
            "~exists s:student. exists c:course. dia (takes(s, c) & dia ~exists c':course. takes(s, c'))",
        )
        .unwrap();
        assert!(!f.is_first_order());
        assert_eq!(f.modal_depth(), 2);
        assert!(f.is_closed());
    }

    #[test]
    fn precedence_and_associativity() {
        let mut sig = sig();
        let f = parse_formula(&mut sig, "true & false | true -> false <-> true").unwrap();
        // ((true & false) | true) -> false, then <-> true
        let expected = Formula::True
            .and(Formula::False)
            .or(Formula::True)
            .implies(Formula::False)
            .iff(Formula::True);
        assert_eq!(f, expected);
    }

    #[test]
    fn implies_is_right_associative() {
        let mut sig = sig();
        let f = parse_formula(&mut sig, "true -> false -> true").unwrap();
        let expected = Formula::True.implies(Formula::False.implies(Formula::True));
        assert_eq!(f, expected);
    }

    #[test]
    fn multi_binder_quantifier() {
        let mut sig = sig();
        let f = parse_formula(
            &mut sig,
            "forall s:student c:course. takes(s, c) -> offered(c)",
        )
        .unwrap();
        assert!(f.is_closed());
        match f {
            Formula::Forall(_, inner) => assert!(matches!(*inner, Formula::Forall(..))),
            other => panic!("expected nested foralls, got {other:?}"),
        }
    }

    #[test]
    fn equality_and_disequality() {
        let mut sig = sig();
        let f = parse_formula(&mut sig, "c = c & c != c").unwrap();
        match f {
            Formula::And(l, r) => {
                assert!(matches!(*l, Formula::Eq(..)));
                assert!(matches!(*r, Formula::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_printer() {
        let mut sig = sig();
        let inputs = [
            "~exists s:student. exists c:course. takes(s, c) & ~offered(c)",
            "forall c:course. offered(c) -> dia offered(c)",
            "box (true & false) | dia true",
            "(true -> false) -> true",
        ];
        for input in inputs {
            let f = parse_formula(&mut sig, input).unwrap();
            let printed = formula_display(&sig, &f).to_string();
            let reparsed = parse_formula(&mut sig, &printed).unwrap();
            assert_eq!(f, reparsed, "round-trip failed for `{input}` → `{printed}`");
        }
    }

    #[test]
    fn reports_errors_with_position() {
        let mut sig = sig();
        let err = parse_formula(&mut sig, "takes(s,)").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
        let err = parse_formula(&mut sig, "offered(c) offered(c)").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
        let err = parse_formula(&mut sig, "unknown_pred(c)").unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }));
    }

    #[test]
    fn block_comments_parse_in_formulas() {
        let mut sig = sig();
        let f = parse_formula(
            &mut sig,
            "offered(c) /* the course */ & takes(s, c) # guard",
        )
        .unwrap();
        assert!(matches!(f, Formula::And(..)));
    }

    #[test]
    fn parser_backtracks_and_reads_contextual_keywords() {
        let mut sig = sig();
        let mut p = Parser::new(&mut sig, "if offered(c) then").unwrap();
        assert!(p.at_keyword("if") && !p.at_keyword("then"));
        assert!(p.eat_keyword("if"));
        let at = p.pos();
        assert!(p.term().is_err());
        p.rewind(at);
        assert!(matches!(p.formula().unwrap(), Formula::Pred(..)));
        assert_eq!(
            p.expect_keyword("fi").unwrap_err(),
            LogicError::Parse {
                offset: 14,
                message: "expected `fi`, found identifier `then`".into()
            }
        );
        p.expect_keyword("then").unwrap();
        p.expect_eof().unwrap();
    }

    #[test]
    fn ill_sorted_input_rejected() {
        let mut sig = sig();
        let err = parse_formula(&mut sig, "offered(s)").unwrap_err();
        assert!(matches!(err, LogicError::SortMismatch { .. }));
    }
}
