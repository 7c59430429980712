//! The statement layer of the RPR schema language, on `eclectic-logic`'s
//! lexer and [`Parser`].
//!
//! ```text
//! schema   ::= 'schema' decl* proc* 'end-schema'
//! decl     ::= IDENT '(' IDENT (',' IDENT)* ')' ';'
//! proc     ::= 'proc' IDENT '(' params? ')' '=' stmt
//! params   ::= IDENT ':' IDENT (',' IDENT ':' IDENT)*
//! stmt     ::= seq ('[]' seq)*                  -- union loosest
//! seq      ::= postfix (';' postfix)*
//! postfix  ::= primary '*'*
//! primary  ::= '(' stmt ')'                     -- backtracks to a test
//!            | IDENT ':=' (term | 'empty' | relterm)
//!            | 'insert' IDENT '(' terms ')'
//!            | 'delete' IDENT '(' terms ')'
//!            | 'if' wff 'then' stmt ('else' stmt)? 'fi'
//!            | 'while' wff 'do' stmt 'od'
//!            | 'skip'
//!            | wff '?'
//! relterm  ::= '{' '(' binder (',' binder)* ')' '|' wff '}'
//! ```
//!
//! Every `wff`, `term` and `binder` is read by [`Parser::formula`],
//! [`Parser::term`] and [`Parser::binder`], so RPR text has the lexical
//! syntax and formula grammar of `eclectic-logic`. The statement words
//! (`schema`, `proc`, `if`, `skip`, …) are contextual keywords, recognised
//! only where this layer expects them. The representation level has no
//! modalities, so a `dia` or `box` anywhere in RPR text is a parse error.

use eclectic_logic::{Formula, Parser, PredId, Signature, Symbol, Term, TokenKind};

use crate::ast::{RelTerm, Stmt};
use crate::error::{Result, RprError};
use crate::schema::ProcDecl;

/// Tokenises `input` for the statement layer, rejecting modal operators.
fn parser<'a>(sig: &'a mut Signature, input: &str) -> Result<Parser<'a>> {
    let p = Parser::new(sig, input)?;
    match p
        .tokens()
        .iter()
        .find(|t| matches!(t.kind, TokenKind::Dia | TokenKind::Box))
    {
        Some(t) => Err(RprError::Parse {
            offset: t.offset,
            message: format!(
                "{} is a modality; RPR wffs are first-order",
                t.kind.describe()
            ),
        }),
        None => Ok(p),
    }
}

/// Parses a full schema text, declaring relations, parameters and variables
/// in the signature as needed. Returns the declared relations and procs.
///
/// # Errors
/// Returns [`RprError::Parse`] with byte offsets, plus validation errors.
pub fn parse_schema(sig: &mut Signature, input: &str) -> Result<(Vec<PredId>, Vec<ProcDecl>)> {
    let mut p = parser(sig, input)?;
    p.expect_keyword("schema")?;
    let mut relations = Vec::new();
    // Declarations: IDENT '(' … — until `proc` or `end-schema`.
    while matches!(p.peek().kind, TokenKind::Ident(_)) && !p.at_keyword("proc") {
        relations.push(declaration(&mut p)?);
    }
    let mut procs = Vec::new();
    while p.eat_keyword("proc") {
        procs.push(proc_decl(&mut p)?);
    }
    p.expect(&TokenKind::EndSchema)?;
    p.expect_eof()?;
    Ok((relations, procs))
}

/// Parses a single statement (for tests and interactive use).
///
/// # Errors
/// See [`parse_schema`].
pub fn parse_stmt(sig: &mut Signature, input: &str) -> Result<Stmt> {
    let mut p = parser(sig, input)?;
    let s = stmt(&mut p)?;
    p.expect_eof()?;
    // Free variables are allowed here: callers bind them via an environment.
    Ok(s)
}

/// Parses a single first-order wff in the RPR syntax.
///
/// # Errors
/// See [`parse_schema`].
pub fn parse_wff(sig: &mut Signature, input: &str) -> Result<Formula> {
    let mut p = parser(sig, input)?;
    let f = p.formula()?;
    p.expect_eof()?;
    f.check(p.sig)?;
    Ok(f)
}

// ---- schema parts -------------------------------------------------------

fn declaration(p: &mut Parser<'_>) -> Result<PredId> {
    let name = p.ident()?;
    p.expect(&TokenKind::LParen)?;
    let mut sorts = Vec::new();
    loop {
        let sname = p.ident()?;
        sorts.push(p.sig.sort_id(&sname)?);
        if !p.eat(&TokenKind::Comma) {
            break;
        }
    }
    p.expect(&TokenKind::RParen)?;
    p.expect(&TokenKind::Semi)?;
    match p.sig.lookup(&name) {
        Some(Symbol::Pred(r)) => {
            if p.sig.pred(r).domain != sorts {
                return Err(p
                    .error(format!(
                        "relation `{name}` re-declared with different columns"
                    ))
                    .into());
            }
            Ok(r)
        }
        Some(_) => Err(p.error(format!("`{name}` is not a relation name")).into()),
        None => Ok(p.sig.add_db_predicate(&name, &sorts)?),
    }
}

fn proc_decl(p: &mut Parser<'_>) -> Result<ProcDecl> {
    let name = p.ident()?;
    p.expect(&TokenKind::LParen)?;
    let mut params = Vec::new();
    if p.peek().kind != TokenKind::RParen {
        loop {
            let pname = p.ident()?;
            p.expect(&TokenKind::Colon)?;
            let sname = p.ident()?;
            let sort = p.sig.sort_id(&sname)?;
            // Parameters are typed variables; re-declaring with the same
            // sort reuses the existing variable.
            params.push(p.sig.add_var(&pname, sort)?);
            if !p.eat(&TokenKind::Comma) {
                break;
            }
        }
    }
    p.expect(&TokenKind::RParen)?;
    p.expect(&TokenKind::Eq)?;
    let body = stmt(p)?;
    let allowed: std::collections::BTreeSet<_> = params.iter().copied().collect();
    body.validate(p.sig, &allowed)?;
    Ok(ProcDecl { name, params, body })
}

// ---- statements ---------------------------------------------------------

fn stmt(p: &mut Parser<'_>) -> Result<Stmt> {
    let mut left = seq(p)?;
    while p.eat(&TokenKind::Union) {
        left = left.union(seq(p)?);
    }
    Ok(left)
}

fn seq(p: &mut Parser<'_>) -> Result<Stmt> {
    let mut left = postfix(p)?;
    while p.eat(&TokenKind::Semi) {
        left = left.seq(postfix(p)?);
    }
    Ok(left)
}

fn postfix(p: &mut Parser<'_>) -> Result<Stmt> {
    let mut s = primary(p)?;
    while p.eat(&TokenKind::Star) {
        s = s.star();
    }
    Ok(s)
}

fn primary(p: &mut Parser<'_>) -> Result<Stmt> {
    if p.eat_keyword("skip") {
        return Ok(Stmt::Skip);
    }
    if p.eat_keyword("insert") {
        let (r, args) = rel_tuple(p)?;
        return Ok(Stmt::Insert(r, args));
    }
    if p.eat_keyword("delete") {
        let (r, args) = rel_tuple(p)?;
        return Ok(Stmt::Delete(r, args));
    }
    if p.eat_keyword("if") {
        let cond = p.formula()?;
        p.expect_keyword("then")?;
        let then_branch = Box::new(stmt(p)?);
        let s = if p.eat_keyword("else") {
            Stmt::IfThenElse(cond, then_branch, Box::new(stmt(p)?))
        } else {
            Stmt::IfThen(cond, then_branch)
        };
        p.expect_keyword("fi")?;
        return Ok(s);
    }
    if p.eat_keyword("while") {
        let cond = p.formula()?;
        p.expect_keyword("do")?;
        let body = stmt(p)?;
        p.expect_keyword("od")?;
        return Ok(Stmt::While(cond, Box::new(body)));
    }
    match p.peek().kind {
        TokenKind::LParen => {
            // Try `( stmt )`; backtrack to a parenthesised test.
            let save = p.pos();
            p.expect(&TokenKind::LParen)?;
            let grouped = stmt(p).and_then(|s| {
                p.expect(&TokenKind::RParen)?;
                Ok(s)
            });
            grouped.or_else(|_| {
                p.rewind(save);
                test_stmt(p)
            })
        }
        TokenKind::Ident(_) if *p.peek_nth(1) == TokenKind::Assign => {
            let name = p.ident()?;
            p.expect(&TokenKind::Assign)?;
            assignment(p, &name)
        }
        TokenKind::Ident(_)
        | TokenKind::Not
        | TokenKind::Forall
        | TokenKind::Exists
        | TokenKind::True
        | TokenKind::False => test_stmt(p),
        ref other => Err(p
            .error(format!("expected statement, found {}", other.describe()))
            .into()),
    }
}

fn test_stmt(p: &mut Parser<'_>) -> Result<Stmt> {
    let f = p.formula()?;
    p.expect(&TokenKind::Question)?;
    Ok(Stmt::Test(f))
}

fn assignment(p: &mut Parser<'_>, name: &str) -> Result<Stmt> {
    match p.sig.lookup(name) {
        Some(Symbol::Pred(r)) => {
            if p.eat_keyword("empty") {
                let sig = &mut *p.sig;
                let vars = sig
                    .pred(r)
                    .domain
                    .clone()
                    .into_iter()
                    .map(|s| {
                        let hint = sig.sort_name(s).chars().next().unwrap_or('x').to_string();
                        sig.fresh_var(&hint, s)
                    })
                    .collect();
                Ok(Stmt::RelAssign(
                    r,
                    RelTerm {
                        vars,
                        wff: Formula::False,
                    },
                ))
            } else {
                Ok(Stmt::RelAssign(r, relterm(p)?))
            }
        }
        Some(Symbol::Func(x)) => Ok(Stmt::Assign(x, p.term()?)),
        _ => Err(p.error(format!("`{name}` is not assignable")).into()),
    }
}

fn rel_tuple(p: &mut Parser<'_>) -> Result<(PredId, Vec<Term>)> {
    let name = p.ident()?;
    let r = p.sig.pred_id(&name)?;
    p.expect(&TokenKind::LParen)?;
    let mut args = vec![p.term()?];
    while p.eat(&TokenKind::Comma) {
        args.push(p.term()?);
    }
    p.expect(&TokenKind::RParen)?;
    Ok((r, args))
}

fn relterm(p: &mut Parser<'_>) -> Result<RelTerm> {
    p.expect(&TokenKind::LBrace)?;
    p.expect(&TokenKind::LParen)?;
    let mut vars = vec![p.binder()?];
    while p.eat(&TokenKind::Comma) {
        vars.push(p.binder()?);
    }
    p.expect(&TokenKind::RParen)?;
    p.expect(&TokenKind::Or)?;
    let wff = p.formula()?;
    p.expect(&TokenKind::RBrace)?;
    Ok(RelTerm { vars, wff })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        sig.add_sort("student").unwrap();
        sig.add_sort("course").unwrap();
        sig
    }

    /// The paper's §5.2 schema, verbatim modulo ASCII syntax.
    pub(crate) const PAPER_SCHEMA: &str = r"
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

    #[test]
    fn parses_the_paper_schema() {
        let mut sg = sig();
        let (relations, procs) = parse_schema(&mut sg, PAPER_SCHEMA).unwrap();
        assert_eq!(relations.len(), 2);
        assert_eq!(procs.len(), 5);
        let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["initiate", "offer", "cancel", "enroll", "transfer"]
        );
        assert_eq!(procs[4].params.len(), 3);
        assert!(procs.iter().all(|p| p.body.is_deterministic()));
    }

    #[test]
    fn parses_core_statements() {
        let mut sg = sig();
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        let s = parse_stmt(&mut sg, "R := {(c: course) | ~R(c)}").unwrap();
        assert!(matches!(s, Stmt::RelAssign(..)));
        let s = parse_stmt(&mut sg, "(exists c:course. R(c))?").unwrap();
        assert!(matches!(s, Stmt::Test(_)));
        let s = parse_stmt(&mut sg, "R := empty [] skip ; skip").unwrap();
        assert!(matches!(s, Stmt::Union(..)));
        let s = parse_stmt(&mut sg, "skip*").unwrap();
        assert!(matches!(s, Stmt::Star(_)));
        let s = parse_stmt(&mut sg, "while exists c:course. R(c) do R := empty od").unwrap();
        assert!(matches!(s, Stmt::While(..)));
    }

    #[test]
    fn parenthesised_test_vs_grouped_statement() {
        let mut sg = sig();
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        // Grouped statement.
        let s = parse_stmt(&mut sg, "(skip ; skip)").unwrap();
        assert!(matches!(s, Stmt::Seq(..)));
        // Parenthesised formula as a test.
        let s = parse_stmt(&mut sg, "(true & false)?").unwrap();
        assert!(matches!(s, Stmt::Test(Formula::And(..))));
    }

    #[test]
    fn scalar_assignment() {
        let mut sg = sig();
        let course = sg.sort_id("course").unwrap();
        sg.add_constant("x", course).unwrap();
        sg.add_constant("db", course).unwrap();
        let s = parse_stmt(&mut sg, "x := db").unwrap();
        assert!(matches!(s, Stmt::Assign(..)));
    }

    #[test]
    fn errors_are_positioned() {
        let mut sg = sig();
        let err = parse_schema(&mut sg, "schema R(course) end-schema").unwrap_err();
        assert!(matches!(err, RprError::Parse { .. }));
        let err = parse_schema(&mut sg, "schema R(nosort); end-schema").unwrap_err();
        assert!(matches!(err, RprError::Logic(_)));
    }

    #[test]
    fn modalities_are_parse_errors() {
        let mut sg = sig();
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        let err = parse_wff(&mut sg, "exists c:course. dia R(c)").unwrap_err();
        assert!(matches!(err, RprError::Parse { offset: 17, .. }), "{err}");
        let err = parse_stmt(&mut sg, "(box true)?").unwrap_err();
        assert!(matches!(err, RprError::Parse { offset: 1, .. }), "{err}");
        let err = parse_schema(
            &mut sg,
            "schema R(course); proc p(c: course) = if dia R(c) then skip fi end-schema",
        )
        .unwrap_err();
        assert!(matches!(err, RprError::Parse { offset: 41, .. }), "{err}");
    }

    #[test]
    fn digit_initial_constants_parse_in_wffs() {
        let mut sg = sig();
        let course = sg.sort_id("course").unwrap();
        sg.add_constant("101", course).unwrap();
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        let f = parse_wff(&mut sg, "R(101) & ~(101 = 101)").unwrap();
        assert!(matches!(f, Formula::And(..)));
    }

    #[test]
    fn syntax_errors_name_tokens() {
        let mut sg = sig();
        let err = parse_stmt(&mut sg, "if true skip fi").unwrap_err();
        assert_eq!(
            err,
            RprError::Parse {
                offset: 8,
                message: "expected `then`, found identifier `skip`".into()
            }
        );
        let err = parse_schema(&mut sg, "schema proc p() = skip").unwrap_err();
        assert!(
            err.to_string()
                .contains("expected `end-schema`, found end of input"),
            "{err}"
        );
    }

    #[test]
    fn statement_words_are_contextual() {
        // `skip`, `do` and `empty` name constants inside wffs and terms.
        let mut sg = sig();
        let course = sg.sort_id("course").unwrap();
        for name in ["skip", "do", "empty"] {
            sg.add_constant(name, course).unwrap();
        }
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        let s = parse_stmt(&mut sg, "while R(do) do insert R(empty) od").unwrap();
        assert!(matches!(s, Stmt::While(..)));
        // Where a statement starts, the statement word wins.
        let err = parse_stmt(&mut sg, "skip = skip?").unwrap_err();
        assert!(matches!(err, RprError::Parse { offset: 5, .. }), "{err}");
        assert!(parse_wff(&mut sg, "skip = empty").is_ok());
    }

    #[test]
    fn redeclaration_checked() {
        let mut sg = sig();
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        // Same columns: fine.
        parse_schema(&mut sg, "schema R(course); end-schema").unwrap();
        // Different columns: rejected.
        let err = parse_schema(&mut sg, "schema R(student); end-schema").unwrap_err();
        assert!(matches!(err, RprError::Parse { .. }));
    }
}
