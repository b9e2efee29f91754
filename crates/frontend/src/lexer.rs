//! Hand-written lexer for the Datalog surface syntax.
//!
//! Token classes:
//! * identifiers starting with a lowercase letter → predicate/constant
//!   symbols (`par`, `alice`);
//! * identifiers starting with an uppercase letter or `_` → variables
//!   (`X`, `_Tmp`);
//! * signed integers (`42`, `-7`, and all of `i64`, `i64::MIN` included);
//! * quoted strings with the escapes `\n`, `\t`, `\"` and `\\`;
//! * punctuation `(`, `)`, `,`, `.`, the rule arrow `:-`, the query arrow
//!   `?-`, and the comparisons `<`, `<=`, `>`, `>=`, `=`, `!=`;
//! * comments: `%` or `//` to end of line.
//!
//! The lexer walks the source's bytes and copies nothing: an identifier
//! or a string is a `&str` slice of the source, and an integer is read
//! from its digits in place. A string keeps its escapes — the lexer has
//! checked them, [`unescape`] resolves them when the parser interns the
//! symbol. Only a non-ASCII character is decoded, where the grammar asks a
//! Unicode question of it (alphabetic? uppercase? whitespace?).
//!
//! A token carries the byte offset it starts at. Line and column — 1-based,
//! the column counted in characters — are worked out from the offset only
//! when an error is reported, so lexing keeps no position bookkeeping.

use std::borrow::Cow;

use gst_common::{Error, Result};

/// A lexical token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What the token is.
    pub kind: TokenKind<'a>,
    /// Byte offset of its first character in the source.
    pub offset: usize,
}

/// The token classes of the Datalog grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// Lowercase-initial identifier: predicate or symbolic constant.
    Ident(&'a str),
    /// Uppercase- or underscore-initial identifier: a variable.
    UpperIdent(&'a str),
    /// An integer literal.
    Int(i64),
    /// A quoted string constant: the text between the quotes, escapes
    /// unresolved (see [`unescape`]).
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    ColonDash,
    /// `?-` — starts a query goal.
    QuestionDash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    EqSign,
    /// `!=`
    Ne,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Short rendering used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::UpperIdent(s) => format!("variable `{s}`"),
            TokenKind::Int(n) => format!("integer `{n}`"),
            TokenKind::Str(s) => format!("string {:?}", unescape(s)),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::ColonDash => "`:-`".into(),
            TokenKind::QuestionDash => "`?-`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::EqSign => "`=`".into(),
            TokenKind::Ne => "`!=`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// The symbol a [`TokenKind::Str`] body names: its escapes resolved,
/// borrowed when it has none.
pub fn unescape(body: &str) -> Cow<'_, str> {
    if !body.contains('\\') {
        return Cow::Borrowed(body);
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(e) => e, // `"` or `\`: the lexer let no other through
                None => break,
            },
            c => c,
        });
    }
    Cow::Owned(out)
}

/// Tokenize `source` completely. The result always ends with
/// [`TokenKind::Eof`].
pub fn tokenize(source: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(source);
    let mut tokens = vec![lexer.next_token()];
    while tokens.last().is_some_and(|t| t.kind != TokenKind::Eof) {
        tokens.push(lexer.next_token());
    }
    lexer.finish().map_or(Ok(tokens), Err)
}

/// A cursor over the source, handing out one token at a time.
///
/// A lexical error ends the stream: the lexer keeps the error, hands out
/// [`TokenKind::Eof`] from then on, and [`Lexer::finish`] reports it.
#[derive(Clone)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    failure: Option<Error>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0, failure: None }
    }

    /// The 1-based line and column of byte offset `offset`: a line ends at
    /// each `\n`, inside a string too, and a column is one character.
    fn position(&self, offset: usize) -> (u32, u32) {
        let before = &self.src[..offset];
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = before[before.rfind('\n').map_or(0, |i| i + 1)..].chars().count() + 1;
        (line as u32, column as u32)
    }

    /// A parse error at byte offset `offset`.
    #[cold]
    pub(crate) fn error(&self, offset: usize, message: impl Into<String>) -> Error {
        let (line, column) = self.position(offset);
        Error::parse(line, column, message)
    }

    /// The first lexical error in the source, if it has one: the one met
    /// so far, else whatever lexing the rest turns up.
    pub fn finish(&mut self) -> Option<Error> {
        while self.failure.is_none() && self.next_token().kind != TokenKind::Eof {}
        self.failure.take()
    }

    /// Record the lexical error at byte offset `at` and end the stream.
    #[cold]
    fn fail(&mut self, at: usize, message: impl Into<String>) -> Token<'a> {
        self.failure = Some(self.error(at, message));
        self.pos = self.src.len();
        Token { kind: TokenKind::Eof, offset: self.pos }
    }

    /// The character starting at byte offset `at`.
    fn char_at(&self, at: usize) -> char {
        self.src[at..].chars().next().expect("offset inside the source")
    }

    /// The next token; at the end of input, or after an error,
    /// [`TokenKind::Eof`] every time. Always inlined: a call per token
    /// costs more than the token does.
    #[inline(always)]
    pub fn next_token(&mut self) -> Token<'a> {
        let src = self.src;
        let bytes = src.as_bytes();
        // The cursor stays in a local until the token is known: kept in
        // `self`, it went back to memory at every byte skipped.
        let mut start = self.pos;
        loop {
            match bytes.get(start) {
                Some(b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C) => start += 1,
                Some(b'%') => start = self.line_end(start),
                Some(b'/') if bytes.get(start + 1) == Some(&b'/') => start = self.line_end(start),
                Some(&b) if b >= 0x80 && self.char_at(start).is_whitespace() => {
                    start += self.char_at(start).len_utf8();
                }
                _ => break,
            }
        }
        let then = |next: u8| bytes.get(start + 1) == Some(&next);
        let (kind, len) = match bytes.get(start) {
            None => (TokenKind::Eof, 0),
            Some(b'(') => (TokenKind::LParen, 1),
            Some(b')') => (TokenKind::RParen, 1),
            Some(b',') => (TokenKind::Comma, 1),
            Some(b'.') => (TokenKind::Dot, 1),
            Some(b'=') => (TokenKind::EqSign, 1),
            Some(b':') if then(b'-') => (TokenKind::ColonDash, 2),
            Some(b'?') if then(b'-') => (TokenKind::QuestionDash, 2),
            Some(b'<') if then(b'=') => (TokenKind::Le, 2),
            Some(b'<') => (TokenKind::Lt, 1),
            Some(b'>') if then(b'=') => (TokenKind::Ge, 2),
            Some(b'>') => (TokenKind::Gt, 1),
            Some(b'!') if then(b'=') => (TokenKind::Ne, 2),
            Some(b':') => return self.fail(start, "expected `:-`"),
            Some(b'?') => return self.fail(start, "expected `?-`"),
            Some(b'!') => return self.fail(start, "expected `!=`"),
            Some(&b @ (b'-' | b'0'..=b'9')) => {
                let digits_at = start + usize::from(b == b'-');
                let (mut end, mut magnitude) = (digits_at, 0u64);
                while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    end += 1;
                }
                if end == digits_at {
                    return self.fail(start, "`-` must start an integer literal");
                }
                // Eighteen digits cannot overflow; a longer literal is read
                // again, checked digit by digit. The magnitude of a
                // negative literal may reach 2^63, `i64::MIN`.
                let magnitude = match &bytes[digits_at..end] {
                    short if short.len() <= 18 => Some(magnitude),
                    long => long.iter().try_fold(0u64, |n, d| n.checked_mul(10)?.checked_add(u64::from(d - b'0'))),
                };
                let value = match magnitude {
                    Some(m) if b == b'-' => 0i64.checked_sub_unsigned(m),
                    Some(m) => i64::try_from(m).ok(),
                    None => None,
                };
                match value {
                    Some(n) => (TokenKind::Int(n), end - start),
                    None => return self.fail(start, format!("integer `{}` out of range", &src[digits_at..end])),
                }
            }
            Some(b'"') => {
                let mut at = start + 1;
                loop {
                    match bytes.get(at) {
                        Some(b'"') => break,
                        Some(b'\\') => match bytes.get(at + 1) {
                            Some(b'n' | b't' | b'"' | b'\\') => at += 2,
                            Some(_) => {
                                let escape = self.char_at(at + 1);
                                return self.fail(start, format!("unknown escape `\\{escape}` in string"));
                            }
                            None => return self.fail(start, "unterminated string"),
                        },
                        Some(_) => at += 1,
                        None => return self.fail(start, "unterminated string"),
                    }
                }
                (TokenKind::Str(&src[start + 1..at]), at + 1 - start)
            }
            // An ASCII-initial identifier needs none of the `char` tests below.
            Some(b'a'..=b'z') => {
                let end = self.identifier_end(start + 1);
                (TokenKind::Ident(&src[start..end]), end - start)
            }
            Some(b'A'..=b'Z' | b'_') => {
                let end = self.identifier_end(start + 1);
                (TokenKind::UpperIdent(&src[start..end]), end - start)
            }
            Some(&b) => {
                let first = if b.is_ascii() { b as char } else { self.char_at(start) };
                if !(first.is_alphabetic() || first == '_') {
                    return self.fail(start, format!("unexpected character `{first}`"));
                }
                let text = &src[start..self.identifier_end(start + first.len_utf8())];
                if first.is_uppercase() || first == '_' {
                    (TokenKind::UpperIdent(text), text.len())
                } else {
                    (TokenKind::Ident(text), text.len())
                }
            }
        };
        self.pos = start + len;
        Token { kind, offset: start }
    }

    /// Where the identifier character run from byte offset `at` ends.
    #[inline]
    fn identifier_end(&self, mut at: usize) -> usize {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(at) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                at += 1;
            } else if b >= 0x80 && self.char_at(at).is_alphanumeric() {
                at += self.char_at(at).len_utf8();
            } else {
                break;
            }
        }
        at
    }

    /// Where the line holding byte offset `at` ends: at its line break, or
    /// at the end of the source.
    fn line_end(&self, at: usize) -> usize {
        let rest = &self.src.as_bytes()[at..];
        at + rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_rule() {
        assert_eq!(kinds("anc(X,Y) :- par(X,Y)."), [
            Ident("anc"), LParen, UpperIdent("X"), Comma, UpperIdent("Y"), RParen, ColonDash,
            Ident("par"), LParen, UpperIdent("X"), Comma, UpperIdent("Y"), RParen, Dot, Eof,
        ]);
    }

    #[test]
    fn lexes_integers() {
        assert_eq!(
            kinds("p(1, -2, 30)."),
            [Ident("p"), LParen, Int(1), Comma, Int(-2), Comma, Int(30), RParen, Dot, Eof]
        );
    }

    /// The literal `--print` writes for `i64::MIN` reads back: the sign is
    /// part of the magnitude's range, not applied to an `i64` afterwards.
    #[test]
    fn lexes_the_extreme_integers() {
        assert_eq!(kinds("-9223372036854775808")[0], Int(i64::MIN));
        assert_eq!(kinds("9223372036854775807")[0], Int(i64::MAX));
        assert_eq!(kinds("-0009")[0], Int(-9));
        for out_of_range in ["9223372036854775808", "-9223372036854775809"] {
            let err = tokenize(out_of_range).unwrap_err().to_string();
            assert!(err.ends_with(&format!("integer `{}` out of range", out_of_range.trim_start_matches('-'))), "{err}");
        }
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let src = "% a comment\n  p(X). // trailing\n% done";
        let k = kinds(src);
        assert_eq!(k.len(), 6); // p ( X ) . EOF
        assert_eq!(k[0], Ident("p"));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let k = kinds(r#"p("hello world", "a\"b", "tab\there")."#);
        assert_eq!(k[2..7], [Str("hello world"), Comma, Str(r#"a\"b"#), Comma, Str(r"tab\there")]);
        assert_eq!([r#"a\"b"#, r"tab\there"].map(|s| unescape(s).into_owned()), ["a\"b", "tab\there"]);
    }

    #[test]
    fn unterminated_string_is_rejected() {
        assert!(tokenize("p(\"abc").is_err());
        assert!(tokenize("p(\"abc\\").is_err());
        assert!(tokenize(r#"p("bad \q escape")"#).is_err());
    }

    #[test]
    fn lexes_comparison_operators() {
        assert_eq!(kinds("X < Y <= 3 > Z >= 0 = W != V"), [
            UpperIdent("X"), Lt, UpperIdent("Y"), Le, Int(3), Gt, UpperIdent("Z"), Ge, Int(0),
            EqSign, UpperIdent("W"), Ne, UpperIdent("V"), Eof,
        ]);
    }

    #[test]
    fn lone_bang_is_rejected() {
        assert!(tokenize("p(X) :- q(X), X ! Y.").is_err());
    }

    #[test]
    fn underscore_starts_a_variable() {
        assert_eq!(kinds("_x")[0], UpperIdent("_x"));
    }

    /// Columns count characters, not bytes, and a line break inside a
    /// string starts a new line.
    #[test]
    fn positions_are_tracked() {
        let src = "p(X).\nq(Y).";
        let q = tokenize(src).unwrap().into_iter().find(|t| t.kind == Ident("q")).unwrap();
        assert_eq!(Lexer::new(src).position(q.offset), (2, 1));
        let src = "ü(\"é\nx\", é)";
        let e = tokenize(src).unwrap()[4];
        assert_eq!((e.kind, Lexer::new(src).position(e.offset)), (Ident("é"), (2, 5)));
    }

    #[test]
    fn error_on_stray_colon() {
        let err = tokenize("p :").unwrap_err();
        assert!(err.to_string().contains("expected `:-`"));
    }

    #[test]
    fn error_on_unknown_character() {
        assert!(tokenize("p(X) ? q(X)").is_err());
    }

    #[test]
    fn lexes_query_arrow() {
        assert_eq!(
            kinds("?- anc(ann, Y)."),
            [QuestionDash, Ident("anc"), LParen, Ident("ann"), Comma, UpperIdent("Y"), RParen, Dot, Eof]
        );
    }

    #[test]
    fn error_on_lone_slash() {
        assert!(tokenize("p / q").is_err());
    }

    #[test]
    fn error_on_lone_minus() {
        assert!(tokenize("p(-)").is_err());
    }

    #[test]
    fn huge_integer_is_rejected() {
        assert!(tokenize("p(99999999999999999999999)").is_err());
    }
}
