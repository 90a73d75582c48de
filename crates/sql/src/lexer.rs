//! The hand-written MayQL lexer: source text to spanned tokens.

use std::fmt;

use crate::span::{Span, SqlError};

/// What a token is. Keywords are *not* distinguished here: MayQL keywords
/// are contextual (the parser matches identifier text case-insensitively in
/// keyword positions), so that relation and column names like `conf` — which
/// the engine itself produces — stay usable in every other position.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// An identifier (or contextual keyword): `[A-Za-z_][A-Za-z0-9_]*`.
    Ident(String),
    /// An integer literal's magnitude (the parser applies a `-` and checks).
    Int(u64),
    /// A float literal (`1.5`, `0.25`, `2e-3`).
    Float(f64),
    /// A single-quoted string literal (`''` escapes a quote).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `;`
    Semi,
    /// `-` (only valid before a numeric literal).
    Minus,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input (always the last token).
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "`{v}`"),
            TokenKind::Float(v) => write!(f, "`{v}`"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Ne => f.write_str("`<>`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token itself.
    pub kind: TokenKind,
    /// Where it sits in the source.
    pub span: Span,
}

/// Tokenize MayQL source. `--` starts a comment running to the end of the
/// line. The returned vector always ends with an [`TokenKind::Eof`] token
/// spanning the end of the input.
pub fn lex(src: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            b',' | b'(' | b')' | b'*' | b';' | b'=' => {
                let kind = match b {
                    b',' => TokenKind::Comma,
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'*' => TokenKind::Star,
                    b';' => TokenKind::Semi,
                    _ => TokenKind::Eq,
                };
                tokens.push(Token {
                    kind,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            b'<' => {
                let (kind, len) = match bytes.get(i + 1) {
                    Some(b'=') => (TokenKind::Le, 2),
                    Some(b'>') => (TokenKind::Ne, 2),
                    _ => (TokenKind::Lt, 1),
                };
                tokens.push(Token {
                    kind,
                    span: Span::new(i, i + len),
                });
                i += len;
            }
            b'>' => {
                let (kind, len) = match bytes.get(i + 1) {
                    Some(b'=') => (TokenKind::Ge, 2),
                    _ => (TokenKind::Gt, 1),
                };
                tokens.push(Token {
                    kind,
                    span: Span::new(i, i + len),
                });
                i += len;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token {
                    kind: TokenKind::Ne,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(SqlError::new(
                                Span::new(start, src.len()),
                                "unterminated string literal",
                            ))
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            // Strings are copied bytewise; the source is
                            // valid UTF-8, so char boundaries survive.
                            let ch_len = utf8_len(bytes[i]);
                            s.push_str(&src[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    span: Span::new(start, i),
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+') | Some(b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let span = Span::new(start, i);
                let kind = if is_float {
                    // Digit-only text always parses; past `f64`'s range it
                    // parses to infinity, which MayQL cannot write back.
                    let v = text.parse::<f64>().ok().filter(|v| v.is_finite());
                    TokenKind::Float(v.ok_or_else(|| {
                        SqlError::new(span, format!("float literal `{text}` out of range"))
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        SqlError::new(span, format!("integer literal `{text}` out of range"))
                    })?)
                };
                tokens.push(Token { kind, span });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    span: Span::new(start, i),
                });
            }
            _ => {
                let ch_len = utf8_len(b);
                return Err(SqlError::new(
                    Span::new(i, i + ch_len),
                    format!("unexpected character `{}`", &src[i..i + ch_len]),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(src.len(), src.len()),
    });
    Ok(tokens)
}

/// Length in bytes of the UTF-8 character starting with `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_census_query() {
        let ts = kinds("SELECT POSSIBLE ssn FROM census WHERE name = 'Smith'");
        assert_eq!(
            ts,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("POSSIBLE".into()),
                TokenKind::Ident("ssn".into()),
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("census".into()),
                TokenKind::Ident("WHERE".into()),
                TokenKind::Ident("name".into()),
                TokenKind::Eq,
                TokenKind::Str("Smith".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_operators() {
        assert_eq!(
            kinds("1 1.5 2e-3 <= <> != -7"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(1.5),
                TokenKind::Float(2e-3),
                TokenKind::Le,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Minus,
                TokenKind::Int(7),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_escapes_quotes() {
        assert_eq!(
            kinds("'O''Hara' -- trailing comment\n42"),
            vec![
                TokenKind::Str("O'Hara".into()),
                TokenKind::Int(42),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let ts = lex("ab  cd").unwrap();
        assert_eq!(ts[0].span, Span::new(0, 2));
        assert_eq!(ts[1].span, Span::new(4, 6));
        assert_eq!(ts[2].span, Span::new(6, 6));
    }

    #[test]
    fn rejects_garbage() {
        let e = lex("a ? b").unwrap_err();
        assert_eq!(e.span, Span::new(2, 3));
        assert_eq!(e.message, "unexpected character `?`");
    }
}
