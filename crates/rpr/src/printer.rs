//! Rendering of RPR statements and schemas back to concrete syntax.
//!
//! Output re-parses to an equal AST (round-trip tests below), except that
//! `empty` sugar prints as an explicit relational term.

use std::fmt::Write as _;

use eclectic_logic::{formula_display, term_display, Signature};

use crate::ast::{RelTerm, Stmt};
use crate::schema::Schema;

/// Renders a statement.
#[must_use]
pub fn stmt_str(sig: &Signature, s: &Stmt) -> String {
    let mut out = String::new();
    write_stmt(&mut out, sig, s);
    out
}

fn write_stmt(out: &mut String, sig: &Signature, s: &Stmt) {
    match s {
        Stmt::Skip => {
            let _ = write!(out, "skip");
        }
        Stmt::Assign(x, t) => {
            let _ = write!(out, "{} := {}", sig.func(*x).name, term_display(sig, t));
        }
        Stmt::RelAssign(r, f) => {
            let _ = write!(out, "{} := ", sig.pred(*r).name);
            write_relterm(out, sig, f);
        }
        Stmt::Test(p) => {
            let _ = write!(out, "({})?", formula_display(sig, p));
        }
        Stmt::Union(p, q) => {
            let _ = write!(out, "(");
            write_stmt(out, sig, p);
            let _ = write!(out, " [] ");
            write_stmt(out, sig, q);
            let _ = write!(out, ")");
        }
        Stmt::Seq(p, q) => {
            let _ = write!(out, "(");
            write_stmt(out, sig, p);
            let _ = write!(out, " ; ");
            write_stmt(out, sig, q);
            let _ = write!(out, ")");
        }
        Stmt::Star(p) => {
            let _ = write!(out, "(");
            write_stmt(out, sig, p);
            let _ = write!(out, ")*");
        }
        Stmt::IfThen(c, p) => {
            let _ = write!(out, "if {} then ", formula_display(sig, c));
            write_stmt(out, sig, p);
            let _ = write!(out, " fi");
        }
        Stmt::IfThenElse(c, p, q) => {
            let _ = write!(out, "if {} then ", formula_display(sig, c));
            write_stmt(out, sig, p);
            let _ = write!(out, " else ");
            write_stmt(out, sig, q);
            let _ = write!(out, " fi");
        }
        Stmt::While(c, p) => {
            let _ = write!(out, "while {} do ", formula_display(sig, c));
            write_stmt(out, sig, p);
            let _ = write!(out, " od");
        }
        Stmt::Insert(r, args) => {
            let _ = write!(out, "insert {}(", sig.pred(*r).name);
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{}", term_display(sig, a));
            }
            let _ = write!(out, ")");
        }
        Stmt::Delete(r, args) => {
            let _ = write!(out, "delete {}(", sig.pred(*r).name);
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{}", term_display(sig, a));
            }
            let _ = write!(out, ")");
        }
    }
}

fn write_relterm(out: &mut String, sig: &Signature, f: &RelTerm) {
    let _ = write!(out, "{{(");
    for (i, v) in f.vars.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", ");
        }
        let decl = sig.var(*v);
        let _ = write!(out, "{}: {}", decl.name, sig.sort_name(decl.sort));
    }
    let _ = write!(out, ") | {}}}", formula_display(sig, &f.wff));
}

/// Renders a full schema.
#[must_use]
pub fn schema_str(schema: &Schema) -> String {
    let sig = schema.signature();
    let mut out = String::from("schema\n");
    for &r in schema.relations() {
        let decl = sig.pred(r);
        let cols: Vec<&str> = decl.domain.iter().map(|&s| sig.sort_name(s)).collect();
        let _ = writeln!(out, "  {}({});", decl.name, cols.join(", "));
    }
    for p in schema.procs() {
        let params: Vec<String> = p
            .params
            .iter()
            .map(|&v| {
                let d = sig.var(v);
                format!("{}: {}", d.name, sig.sort_name(d.sort))
            })
            .collect();
        let _ = write!(out, "\n  proc {}({}) = ", p.name, params.join(", "));
        write_stmt(&mut out, sig, &p.body);
        let _ = writeln!(out);
    }
    out.push_str("end-schema\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_schema, parse_stmt, PAPER_COURSES_SCHEMA};
    use std::sync::Arc;

    #[test]
    fn schema_round_trips() {
        let mut sig = Signature::new();
        sig.add_sort("student").unwrap();
        sig.add_sort("course").unwrap();
        let (rels, procs) = parse_schema(&mut sig, PAPER_COURSES_SCHEMA).unwrap();
        let schema = Schema::new(Arc::new(sig), rels, procs).unwrap();
        let printed = schema_str(&schema);

        let mut sig2 = Signature::new();
        sig2.add_sort("student").unwrap();
        sig2.add_sort("course").unwrap();
        let (rels2, procs2) = parse_schema(&mut sig2, &printed).unwrap();
        assert_eq!(rels2.len(), schema.relations().len());
        assert_eq!(procs2.len(), schema.procs().len());
        for (a, b) in schema.procs().iter().zip(&procs2) {
            assert_eq!(a.name, b.name);
            // Bodies are structurally equal up to fresh-variable identity in
            // `empty` desugaring; compare printed forms instead.
            assert_eq!(
                stmt_str(schema.signature(), &a.body),
                stmt_str(&sig2, &b.body)
            );
        }
    }

    #[test]
    fn stmt_round_trips() {
        let mut sig = Signature::new();
        sig.add_sort("course").unwrap();
        parse_schema(&mut sig, "schema R(course); end-schema").unwrap();
        let inputs = [
            "skip",
            "insert R(c0)",
            "(skip ; skip)",
            "(skip [] skip)",
            "(skip)*",
            "if true then skip fi",
            "if true then skip else insert R(c0) fi",
            "while false do skip od",
            "(true & false)?",
        ];
        let course = sig.sort_id("course").unwrap();
        sig.add_constant("c0", course).unwrap();
        for input in inputs {
            let s = parse_stmt(&mut sig, input).unwrap();
            let printed = stmt_str(&sig, &s);
            let reparsed = parse_stmt(&mut sig, &printed).unwrap();
            assert_eq!(s, reparsed, "round-trip failed for `{input}` → `{printed}`");
        }
    }
}
