//! The workspace's one lexer: the tokens of terms, formulas, conditional
//! equations and RPR schemas.

use crate::error::{LogicError, Result};

/// A lexical token with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub offset: usize,
}

/// The kinds of token of the spec languages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier (symbol or variable name).
    Ident(String),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `:`.
    Colon,
    /// `=`.
    Eq,
    /// `!=`.
    Neq,
    /// `&`.
    And,
    /// `|`.
    Or,
    /// `~`.
    Not,
    /// `->`.
    Arrow,
    /// `<->`.
    DArrow,
    /// `==>`, between a conditional equation's condition and its sides.
    CondArrow,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `;`.
    Semi,
    /// `?`.
    Question,
    /// `*`.
    Star,
    /// `:=`.
    Assign,
    /// `[]` (nondeterministic union of programs).
    Union,
    /// `end-schema`.
    EndSchema,
    /// `forall` keyword.
    Forall,
    /// `exists` keyword.
    Exists,
    /// `dia` keyword (possibility, ◇).
    Dia,
    /// `box` keyword (necessity, □).
    Box,
    /// `true` keyword.
    True,
    /// `false` keyword.
    False,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short description for diagnostics.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Neq => "`!=`".into(),
            TokenKind::And => "`&`".into(),
            TokenKind::Or => "`|`".into(),
            TokenKind::Not => "`~`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::DArrow => "`<->`".into(),
            TokenKind::CondArrow => "`==>`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Question => "`?`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Assign => "`:=`".into(),
            TokenKind::Union => "`[]`".into(),
            TokenKind::EndSchema => "`end-schema`".into(),
            TokenKind::Forall => "`forall`".into(),
            TokenKind::Exists => "`exists`".into(),
            TokenKind::Dia => "`dia`".into(),
            TokenKind::Box => "`box`".into(),
            TokenKind::True => "`true`".into(),
            TokenKind::False => "`false`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Tokenises the input.
///
/// - Identifiers are `[A-Za-z_][A-Za-z0-9_']*` (`'` so that the paper's
///   primed variables `c'` lex naturally) or `[0-9][A-Za-z0-9]*` (numeric
///   element and constant names).
/// - `forall`, `exists`, `dia`, `box`, `true` and `false` are reserved
///   words. The statement words of RPR (`schema`, `proc`, `if`, `then`,
///   `else`, `fi`, `while`, `do`, `od`, `insert`, `delete`, `empty`,
///   `skip`) are contextual: they lex as identifiers, the statement
///   grammar recognises them only where it expects them, and they stay
///   legal names in formulas and equations.
/// - `end-schema` is one token.
/// - Punctuation: `(` `)` `{` `}` `,` `.` `:` `;` `?` `*` `=` `!=` `&` `|`
///   `~` `->` `<->` `==>` `:=` `[]`.
/// - Whitespace separates tokens; `#` starts a comment to the end of the
///   line and `/* … */` is a block comment.
///
/// # Errors
/// Returns [`LogicError::Parse`] on unexpected characters and on an
/// unterminated block comment.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => match input[i + 2..].find("*/") {
                Some(len) => i += len + 4,
                None => {
                    return Err(LogicError::Parse {
                        offset: i,
                        message: "unterminated block comment".into(),
                    });
                }
            },
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: i,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: i,
                });
                i += 1;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: i,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: i,
                });
                i += 1;
            }
            b':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Assign,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Colon,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'=' => {
                if input[i + 1..].starts_with("=>") {
                    tokens.push(Token {
                        kind: TokenKind::CondArrow,
                        offset: i,
                    });
                    i += 3;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Eq,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'{' => {
                tokens.push(Token {
                    kind: TokenKind::LBrace,
                    offset: i,
                });
                i += 1;
            }
            b'}' => {
                tokens.push(Token {
                    kind: TokenKind::RBrace,
                    offset: i,
                });
                i += 1;
            }
            b';' => {
                tokens.push(Token {
                    kind: TokenKind::Semi,
                    offset: i,
                });
                i += 1;
            }
            b'?' => {
                tokens.push(Token {
                    kind: TokenKind::Question,
                    offset: i,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: i,
                });
                i += 1;
            }
            b'[' => {
                if bytes.get(i + 1) == Some(&b']') {
                    tokens.push(Token {
                        kind: TokenKind::Union,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(LogicError::Parse {
                        offset: i,
                        message: "expected `[]`".into(),
                    });
                }
            }
            b'&' => {
                tokens.push(Token {
                    kind: TokenKind::And,
                    offset: i,
                });
                i += 1;
            }
            b'|' => {
                tokens.push(Token {
                    kind: TokenKind::Or,
                    offset: i,
                });
                i += 1;
            }
            b'~' => {
                tokens.push(Token {
                    kind: TokenKind::Not,
                    offset: i,
                });
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Neq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(LogicError::Parse {
                        offset: i,
                        message: "expected `!=`".into(),
                    });
                }
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Arrow,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(LogicError::Parse {
                        offset: i,
                        message: "expected `->`".into(),
                    });
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'-') && bytes.get(i + 2) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::DArrow,
                        offset: i,
                    });
                    i += 3;
                } else {
                    return Err(LogicError::Parse {
                        offset: i,
                        message: "expected `<->`".into(),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    i += 1;
                }
                let word = &input[start..i];
                if word == "end" && input[i..].starts_with("-schema") {
                    i += "-schema".len();
                    tokens.push(Token {
                        kind: TokenKind::EndSchema,
                        offset: start,
                    });
                    continue;
                }
                let kind = match word {
                    "forall" => TokenKind::Forall,
                    "exists" => TokenKind::Exists,
                    "dia" => TokenKind::Dia,
                    "box" => TokenKind::Box,
                    "true" => TokenKind::True,
                    "false" => TokenKind::False,
                    _ => TokenKind::Ident(word.to_string()),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            c if c.is_ascii_digit() => {
                // Numeric identifiers are allowed as element/constant names.
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(input[start..i].to_string()),
                    offset: start,
                });
            }
            other => {
                return Err(LogicError::Parse {
                    offset: i,
                    message: format!("unexpected character `{}`", other as char),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_formula() {
        let toks = tokenize("forall s:student. takes(s, c') -> ~dia false").unwrap();
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Forall,
                TokenKind::Ident("s".into()),
                TokenKind::Colon,
                TokenKind::Ident("student".into()),
                TokenKind::Dot,
                TokenKind::Ident("takes".into()),
                TokenKind::LParen,
                TokenKind::Ident("s".into()),
                TokenKind::Comma,
                TokenKind::Ident("c'".into()),
                TokenKind::RParen,
                TokenKind::Arrow,
                TokenKind::Not,
                TokenKind::Dia,
                TokenKind::False,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_numbers() {
        let toks = tokenize("a # comment\n 42").unwrap();
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("42".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_schema_tokens() {
        let toks = tokenize(
            "schema OFFERED(course); proc offer(c: course) = insert OFFERED(c) end-schema",
        )
        .unwrap();
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        // Statement words are contextual: they lex as identifiers.
        assert_eq!(kinds[0], TokenKind::Ident("schema".into()));
        assert!(kinds.contains(&TokenKind::Semi));
        assert!(kinds.contains(&TokenKind::Ident("proc".into())));
        assert!(kinds.contains(&TokenKind::Ident("insert".into())));
        assert_eq!(kinds[kinds.len() - 2], TokenKind::EndSchema);
        assert_eq!(*kinds.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn assign_vs_colon() {
        let toks = tokenize("R := x : y").unwrap();
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident("R".into()),
                TokenKind::Assign,
                TokenKind::Ident("x".into()),
                TokenKind::Colon,
                TokenKind::Ident("y".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn block_comments_skip() {
        let toks = tokenize("a /* comment with insert */ b").unwrap();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].offset, 28);
        assert!(matches!(
            tokenize("/* unterminated"),
            Err(LogicError::Parse { offset: 0, .. })
        ));
    }

    #[test]
    fn union_token() {
        let toks = tokenize("p [] q").unwrap();
        assert_eq!(toks[1].kind, TokenKind::Union);
        assert!(matches!(tokenize("p [ q"), Err(LogicError::Parse { .. })));
    }

    #[test]
    fn equation_arrow_vs_equals() {
        let toks = tokenize("c != c' ==> x = y").unwrap();
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(kinds[1], TokenKind::Neq);
        assert_eq!(kinds[3], TokenKind::CondArrow);
        assert_eq!(kinds[5], TokenKind::Eq);
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(tokenize("a $ b"), Err(LogicError::Parse { .. })));
        assert!(matches!(tokenize("a - b"), Err(LogicError::Parse { .. })));
        assert!(matches!(tokenize("< b"), Err(LogicError::Parse { .. })));
        assert!(matches!(tokenize("!b"), Err(LogicError::Parse { .. })));
    }
}
