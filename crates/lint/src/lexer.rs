//! A small, self-contained Rust lexer.
//!
//! toto-lint's rules are *lexical*: they match token sequences, not a full
//! AST. The lexer therefore only needs to get the hard tokenization cases
//! right — comments (including nested block comments), string literals
//! (including raw and byte strings), and the `'a`-lifetime versus `'a'`
//! char-literal ambiguity — so that rule patterns never fire on text that
//! is really inside a comment or a string.
//!
//! Alongside the token stream the lexer collects `// toto-lint: allow(…)`
//! suppression comments with the line they appear on; the rule engine
//! matches them against diagnostics on the same line or the line below.

/// What kind of token this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A string literal (normal, raw, byte or raw-byte).
    Str,
    /// A character or byte literal.
    Char,
    /// A numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
}

/// One token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// The token text. For `Str` this is the raw literal including quotes.
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
    /// 1-based column of the first character.
    pub col: usize,
}

/// A `// toto-lint: allow(RULE, …)` suppression comment.
#[derive(Clone, Debug)]
pub struct AllowComment {
    /// 1-based line the comment appears on.
    pub line: usize,
    /// 1-based column of the comment marker.
    pub col: usize,
    /// The rule ids listed inside `allow(…)`, verbatim.
    pub rules: Vec<String>,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// All suppression comments in source order.
    pub allows: Vec<AllowComment>,
}

/// The marker that introduces a suppression inside a line comment.
pub const ALLOW_MARKER: &str = "toto-lint:";

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Bump one whole UTF-8 character, so the cursor never stops inside
    /// a multi-byte one (the lexer slices the source at cursor
    /// positions).
    fn bump_char(&mut self) {
        self.bump();
        while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
            self.bump();
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Parse the rule list out of a comment body containing the allow marker.
/// Returns `None` if the comment is not a suppression comment.
fn parse_allow(body: &str) -> Option<Vec<String>> {
    // The marker must open the comment body: after the two comment
    // slashes, the first non-space text has to be the marker itself.
    // Prose that merely *mentions* the suppression syntax never matches —
    // doc comment bodies begin with a third `/` or a `!`.
    let body = body.strip_prefix("//").unwrap_or(body);
    let after = body.trim_start().strip_prefix(ALLOW_MARKER)?.trim_start();
    let rest = after.strip_prefix("allow")?.trim_start();
    let inner = rest.strip_prefix('(')?;
    let inner = inner.split(')').next()?;
    Some(
        inner
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

/// Lex a whole file.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                // Line comment (also covers `///` and `//!` doc comments).
                let start = c.pos;
                while let Some(nb) = c.peek() {
                    if nb == b'\n' {
                        break;
                    }
                    c.bump();
                }
                let body = &src[start..c.pos];
                if let Some(rules) = parse_allow(body) {
                    out.allows.push(AllowComment { line, col, rules });
                }
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                // Block comment; Rust block comments nest.
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while depth > 0 && !c.eof() {
                    if c.peek() == Some(b'/') && c.peek_at(1) == Some(b'*') {
                        c.bump();
                        c.bump();
                        depth += 1;
                    } else if c.peek() == Some(b'*') && c.peek_at(1) == Some(b'/') {
                        c.bump();
                        c.bump();
                        depth -= 1;
                    } else {
                        c.bump();
                    }
                }
            }
            b'"' => {
                let text = lex_string(&mut c, 0, false);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                    col,
                });
            }
            b'\'' => {
                if let Some(tok) = lex_char_or_lifetime(&mut c, line, col) {
                    out.tokens.push(tok);
                }
            }
            _ if b.is_ascii_digit() => {
                let start = c.pos;
                // `0x`/`0o`/`0b` literals never carry a decimal exponent, and
                // `E` is a hex digit — `0x1E-5` must stay three tokens.
                let radix_prefixed = b == b'0'
                    && c.peek_at(1)
                        .is_some_and(|p| matches!(p, b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
                while let Some(nb) = c.peek() {
                    if is_ident_continue(nb) {
                        c.bump();
                    } else if nb == b'.' && c.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                        // `1.5` continues the number; `1..5` does not.
                        c.bump();
                    } else if !radix_prefixed
                        && (nb == b'+' || nb == b'-')
                        && c.pos > start
                        && matches!(c.bytes[c.pos - 1], b'e' | b'E')
                        && c.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                    {
                        // Signed exponent: `1e-9`, `2.5E+10` stay one token.
                        c.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    text: src[start..c.pos].to_string(),
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => {
                let start = c.pos;
                while c.peek().is_some_and(is_ident_continue) {
                    c.bump();
                }
                let ident = &src[start..c.pos];
                // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` are string literals
                // whose prefix lexes as an identifier; `b'…'` likewise for
                // byte literals.
                let hashes = {
                    let mut n = 0;
                    while c.peek_at(n) == Some(b'#') {
                        n += 1;
                    }
                    n
                };
                let raw_capable = matches!(ident, "r" | "br");
                let byte_capable = matches!(ident, "b" | "br");
                if (raw_capable && c.peek_at(hashes) == Some(b'"'))
                    || (byte_capable && hashes == 0 && c.peek() == Some(b'"'))
                {
                    let is_raw = raw_capable && c.peek_at(hashes) == Some(b'"');
                    let body = if is_raw {
                        for _ in 0..hashes {
                            c.bump();
                        }
                        lex_string(&mut c, hashes, true)
                    } else {
                        lex_string(&mut c, 0, false)
                    };
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: format!("{ident}{body}"),
                        line,
                        col,
                    });
                } else if ident == "r"
                    && c.peek() == Some(b'#')
                    && c.peek_at(1).is_some_and(is_ident_start)
                {
                    // Raw identifier (`r#type`, `r#match`). Keep the `r#`
                    // prefix in the token text: `r#type` is a distinct
                    // identifier from the keyword `type`, and emitting the
                    // `#` as punctuation would fabricate attribute-like
                    // token sequences.
                    c.bump(); // '#'
                    while c.peek().is_some_and(is_ident_continue) {
                        c.bump();
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: src[start..c.pos].to_string(),
                        line,
                        col,
                    });
                } else if ident == "b" && c.peek() == Some(b'\'') {
                    if let Some(tok) = lex_char_or_lifetime(&mut c, line, col) {
                        out.tokens.push(Token {
                            kind: TokenKind::Char,
                            text: format!("b{}", tok.text),
                            line,
                            col,
                        });
                    }
                } else {
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: ident.to_string(),
                        line,
                        col,
                    });
                }
            }
            _ => {
                c.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Lex a string literal starting at the opening quote. `hashes` is the
/// number of `#`s in a raw string's delimiter; `raw` disables backslash
/// escapes (raw strings treat `\` literally).
fn lex_string(c: &mut Cursor<'_>, hashes: usize, raw: bool) -> String {
    let start = c.pos;
    c.bump(); // opening quote
    while let Some(b) = c.peek() {
        if !raw && b == b'\\' {
            c.bump();
            c.bump();
            continue;
        }
        if b == b'"' {
            c.bump();
            if hashes == 0 {
                break;
            }
            let mut seen = 0;
            while seen < hashes && c.peek() == Some(b'#') {
                c.bump();
                seen += 1;
            }
            if seen == hashes {
                break;
            }
            continue;
        }
        c.bump();
    }
    String::from_utf8_lossy(&c.bytes[start..c.pos]).into_owned()
}

/// Disambiguate `'a'` (char literal) from `'a` (lifetime). Lifetimes are
/// dropped (`None` is only returned for them); char literals become
/// tokens so rule patterns never fire inside them.
fn lex_char_or_lifetime(c: &mut Cursor<'_>, line: usize, col: usize) -> Option<Token> {
    let start = c.pos;
    c.bump(); // opening '
    let first = c.peek()?;
    if is_ident_start(first) {
        // Could be a lifetime ('a, 'static) or a char ('a'). Scan the
        // identifier run and check for a closing quote.
        let mut n = 0;
        while c.peek_at(n).is_some_and(is_ident_continue) {
            n += 1;
        }
        if c.peek_at(n) != Some(b'\'') {
            // Lifetime: consume the identifier and emit nothing.
            for _ in 0..n {
                c.bump();
            }
            return None;
        }
        for _ in 0..=n {
            c.bump();
        }
    } else {
        // Escape or punctuation char literal: '\n', '\'', '\\', '%' …
        if first == b'\\' {
            c.bump();
            c.bump_char();
        } else {
            c.bump();
        }
        if c.peek() == Some(b'\'') {
            c.bump();
        }
    }
    Some(Token {
        kind: TokenKind::Char,
        text: String::from_utf8_lossy(&c.bytes[start..c.pos]).into_owned(),
        line,
        col,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            texts("use std::collections::HashMap;"),
            vec![
                "use",
                "std",
                ":",
                ":",
                "collections",
                ":",
                ":",
                "HashMap",
                ";"
            ]
        );
    }

    #[test]
    fn escaped_multibyte_char_literal_does_not_split_the_char() {
        assert_eq!(texts("'\\é' x"), vec!["'\\é'", "x"]);
        assert_eq!(texts("'\\→x"), vec!["'\\→", "x"]);
    }

    #[test]
    fn comments_are_skipped_even_nested() {
        assert_eq!(
            texts("a // HashMap\nb /* x /* HashMap */ y */ c"),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn strings_are_single_tokens() {
        let toks = lex("let x = \"Instant::now()\";").tokens;
        assert_eq!(toks[3].kind, TokenKind::Str);
        assert_eq!(toks[3].text, "\"Instant::now()\"");
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = lex(r###"let x = r#"un "quoted" thread_rng"#; let y = b"bytes";"###).tokens;
        assert_eq!(toks[3].kind, TokenKind::Str);
        assert!(toks[3].text.contains("thread_rng"));
        let y = toks.iter().find(|t| t.text.starts_with("b\"")).unwrap();
        assert_eq!(y.kind, TokenKind::Str);
    }

    #[test]
    fn lifetimes_versus_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }").tokens;
        assert!(toks
            .iter()
            .all(|t| t.text != "a" || t.kind == TokenKind::Ident));
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn byte_char_literal() {
        let toks = lex("p.expect_byte(b'=')").tokens;
        let ch = toks.iter().find(|t| t.kind == TokenKind::Char).unwrap();
        assert_eq!(ch.text, "b'='");
    }

    #[test]
    fn allow_comments_are_collected() {
        let lexed = lex("use x; // toto-lint: allow(D001, R001)\nlet y = 1;");
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].rules, vec!["D001", "R001"]);
    }

    #[test]
    fn non_allow_comments_are_ignored() {
        let lexed = lex("// just a note about toto-lint rules\nlet y = 1;");
        assert!(lexed.allows.is_empty());
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b").tokens;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        assert_eq!(texts("1.5 + 1..5"), vec!["1.5", "+", "1", ".", ".", "5"]);
    }

    #[test]
    fn float_exponents_are_single_tokens() {
        assert_eq!(texts("1e-9"), vec!["1e-9"]);
        assert_eq!(texts("2.5E+10 * 3e7"), vec!["2.5E+10", "*", "3e7"]);
        assert_eq!(texts("1.5e-3f64"), vec!["1.5e-3f64"]);
        // A sign not preceded by an exponent marker is an operator...
        assert_eq!(texts("1-9"), vec!["1", "-", "9"]);
        // ...and hex digits never absorb one: `0x1E-5` is a subtraction.
        assert_eq!(texts("0x1E-5"), vec!["0x1E", "-", "5"]);
    }

    #[test]
    fn raw_identifiers_are_single_idents() {
        let toks = lex("let r#type = r#match.clone();").tokens;
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[1].text, "r#type");
        assert!(toks.iter().any(|t| t.text == "r#match"));
        // No stray `#` punctuation that could fake an attribute.
        assert!(!toks.iter().any(|t| t.text == "#"));
        // Raw strings still lex as strings, not raw identifiers.
        let s = lex("r#\"text\"#").tokens;
        assert_eq!(s[0].kind, TokenKind::Str);
    }
}
