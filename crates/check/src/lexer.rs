//! A hand-rolled Rust lexer: the token stream every stair-check
//! analyzer works on.
//!
//! The workspace is offline (no registry access), so there is no
//! `syn`/`proc-macro2` to lean on. The analyzers only need line- and
//! token-level facts — "this `.lock()` call is followed by
//! `.unwrap()`", "this string literal sits inside a `counter(…)`
//! call" — so a faithful *lexer* is enough; no parser is built on top.
//!
//! What it understands, because real source in this repo uses all of
//! it: line and (nested) block comments, string literals with escapes,
//! raw strings `r#"…"#` with any number of `#`s, byte and raw-byte
//! strings, char and byte-char literals, lifetimes (`'a` vs `'a'`),
//! raw identifiers (`r#type`), numeric literals with underscores /
//! base prefixes / type suffixes, and maximal-munch multi-character
//! operators.
//!
//! Guarantees the property tests assert:
//!
//! * lexing **never panics**, whatever bytes come in (malformed input
//!   degrades to best-effort tokens, never an abort);
//! * token spans are in-bounds, non-overlapping, and strictly
//!   increasing, and every non-whitespace byte of the input is covered
//!   by exactly one token — so offsets can be trusted for reporting.

/// What a token is, at the granularity the analyzers care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// A lifetime such as `'a` (not a char literal).
    Lifetime,
    /// Integer literal, with any base prefix / suffix.
    Int,
    /// Float literal.
    Float,
    /// Any string-like literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`,
    /// `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// `// …` comment (including `///` and `//!` doc comments).
    LineComment,
    /// `/* … */` comment, nesting respected.
    BlockComment,
    /// Punctuation / operator, maximal munch (`::`, `=>`, `<<`, …).
    Punct,
    /// Bytes the lexer could not classify (stray `\\`, unterminated
    /// quote tails, non-UTF8 survivors). Kept as tokens so coverage
    /// stays total.
    Unknown,
}

/// One token: kind plus its byte span and line/column (1-based).
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column (in bytes) of `start`.
    pub col: u32,
}

/// A lexed file: the source text plus its token stream and an index of
/// the non-comment ("code") tokens most analyzers iterate over.
pub struct TokenFile {
    /// The source text.
    pub src: String,
    /// Every token, in order, comments included.
    pub toks: Vec<Token>,
    /// Indices into `toks` of non-comment tokens.
    pub code: Vec<usize>,
}

impl TokenFile {
    /// Lexes `src` to a token file.
    pub fn lex(src: String) -> TokenFile {
        let toks = lex(&src);
        let code = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokKind::LineComment | TokKind::BlockComment | TokKind::Unknown
                )
            })
            .map(|(i, _)| i)
            .collect();
        TokenFile { src, toks, code }
    }

    /// The text of token `i` (an index into `toks`).
    pub fn text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.src[t.start..t.end]
    }

    /// The text of the `ci`-th *code* token.
    pub fn ctext(&self, ci: usize) -> &str {
        self.text(self.code[ci])
    }

    /// The `ci`-th code token.
    pub fn ctok(&self, ci: usize) -> &Token {
        &self.toks[self.code[ci]]
    }

    /// `true` when code token `ci` exists and is the identifier `s`.
    pub fn is_ident(&self, ci: usize, s: &str) -> bool {
        ci < self.code.len() && self.ctok(ci).kind == TokKind::Ident && self.ctext(ci) == s
    }

    /// `true` when code token `ci` exists and is the punct `s`.
    pub fn is_punct(&self, ci: usize, s: &str) -> bool {
        ci < self.code.len() && self.ctok(ci).kind == TokKind::Punct && self.ctext(ci) == s
    }

    /// The full line of text containing byte `at` (for messages and
    /// fingerprints), without the trailing newline.
    pub fn line_text(&self, line: u32) -> &str {
        self.src.lines().nth(line as usize - 1).unwrap_or("")
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.at + ahead).unwrap_or(&0)
    }

    fn starts_with(&self, s: &str) -> bool {
        // Byte-based: `at` may sit mid-way through a multi-byte char
        // while bumping through a comment or string body.
        self.bytes[self.at..].starts_with(s.as_bytes())
    }

    /// Advances one byte, tracking line/column.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.at += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.at >= self.bytes.len() {
                break;
            }
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Multi-character operators, longest first so munching is maximal.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

fn lex(src: &str) -> Vec<Token> {
    let mut c = Cursor {
        bytes: src.as_bytes(),
        at: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while c.at < c.bytes.len() {
        let b = c.peek(0);
        // Whitespace is skipped, everything else becomes a token.
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        let (start, line, col) = (c.at, c.line, c.col);
        let kind = scan_one(&mut c);
        // Defensive: a scanner that consumed nothing would loop forever.
        if c.at == start {
            c.bump();
        }
        out.push(Token {
            kind,
            start,
            end: c.at,
            line,
            col,
        });
    }
    out
}

/// Scans one token starting at the cursor. Always consumes ≥ 1 byte.
fn scan_one(c: &mut Cursor<'_>) -> TokKind {
    let b = c.peek(0);
    if c.starts_with("//") {
        while c.at < c.bytes.len() && c.peek(0) != b'\n' {
            c.bump();
        }
        return TokKind::LineComment;
    }
    if c.starts_with("/*") {
        c.bump_n(2);
        let mut depth = 1usize;
        while c.at < c.bytes.len() && depth > 0 {
            if c.starts_with("/*") {
                depth += 1;
                c.bump_n(2);
            } else if c.starts_with("*/") {
                depth -= 1;
                c.bump_n(2);
            } else {
                c.bump();
            }
        }
        return TokKind::BlockComment;
    }
    // Raw strings / raw identifiers / byte strings before plain idents.
    if b == b'r' || b == b'b' {
        if let Some(kind) = scan_raw_or_byte(c) {
            return kind;
        }
    }
    if is_ident_start(b) && !b.is_ascii_digit() {
        while c.at < c.bytes.len() && is_ident_continue(c.peek(0)) {
            c.bump();
        }
        return TokKind::Ident;
    }
    if b.is_ascii_digit() {
        return scan_number(c);
    }
    if b == b'"' {
        scan_string_body(c, 0, false);
        return TokKind::Str;
    }
    if b == b'\'' {
        return scan_quote(c);
    }
    for p in PUNCTS {
        if c.starts_with(p) {
            c.bump_n(p.len());
            return TokKind::Punct;
        }
    }
    if b.is_ascii_punctuation() {
        c.bump();
        return TokKind::Punct;
    }
    c.bump();
    TokKind::Unknown
}

/// Handles `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `br#"…"#`, `b'…'`.
/// Returns `None` when the `r`/`b` opens a plain identifier instead.
fn scan_raw_or_byte(c: &mut Cursor<'_>) -> Option<TokKind> {
    let b = c.peek(0);
    // How many prefix bytes before a possible raw marker: `r`, `b`, `br`.
    let (prefix, raw_allowed, char_allowed) = match (b, c.peek(1)) {
        (b'r', _) => (1, true, false),
        (b'b', b'r') => (2, true, false),
        (b'b', _) => (1, false, true),
        _ => return None,
    };
    let mut k = prefix;
    let mut hashes = 0usize;
    if raw_allowed {
        while c.peek(k) == b'#' {
            hashes += 1;
            k += 1;
        }
    }
    if c.peek(k) == b'"' && (hashes == 0 || raw_allowed) {
        c.bump_n(k);
        scan_string_body(c, if raw_allowed { hashes } else { 0 }, raw_allowed);
        return Some(TokKind::Str);
    }
    if char_allowed && c.peek(1) == b'\'' {
        c.bump();
        return Some(scan_quote(c));
    }
    // `r#ident` raw identifier.
    if b == b'r' && hashes == 1 && is_ident_start(c.peek(k)) {
        c.bump_n(k);
        while c.at < c.bytes.len() && is_ident_continue(c.peek(0)) {
            c.bump();
        }
        return Some(TokKind::Ident);
    }
    None
}

/// Consumes a string starting at the opening `"`. Raw strings close on
/// `"` followed by `hashes` `#`s and never process escapes; plain
/// strings honour `\`-escapes. Unterminated strings run to EOF.
fn scan_string_body(c: &mut Cursor<'_>, hashes: usize, raw: bool) {
    let escapes = !raw;
    c.bump(); // opening quote
    while c.at < c.bytes.len() {
        if escapes && c.peek(0) == b'\\' {
            c.bump_n(2);
            continue;
        }
        if c.peek(0) == b'"' {
            let mut ok = true;
            for h in 0..hashes {
                if c.peek(1 + h) != b'#' {
                    ok = false;
                    break;
                }
            }
            if ok {
                c.bump_n(1 + hashes);
                return;
            }
        }
        c.bump();
    }
}

/// Disambiguates `'a` (lifetime) from `'a'` (char literal) and consumes
/// whichever it is, starting at the `'`.
fn scan_quote(c: &mut Cursor<'_>) -> TokKind {
    let next = c.peek(1);
    if is_ident_start(next) && !next.is_ascii_digit() {
        // `'a` could open either. It is a char literal iff the ident
        // run is followed by a closing quote.
        let mut k = 2;
        while is_ident_continue(c.peek(k)) {
            k += 1;
        }
        if c.peek(k) != b'\'' {
            c.bump(); // '
            while c.at < c.bytes.len() && is_ident_continue(c.peek(0)) {
                c.bump();
            }
            return TokKind::Lifetime;
        }
    }
    // Char literal (possibly escaped, possibly malformed). Consume up
    // to the closing quote on the same line.
    c.bump(); // '
    while c.at < c.bytes.len() {
        match c.peek(0) {
            b'\\' => c.bump_n(2),
            b'\'' => {
                c.bump();
                return TokKind::Char;
            }
            b'\n' => return TokKind::Unknown,
            _ => c.bump(),
        }
    }
    TokKind::Unknown
}

fn scan_number(c: &mut Cursor<'_>) -> TokKind {
    let mut float = false;
    // Base prefix?
    if c.peek(0) == b'0' && matches!(c.peek(1), b'x' | b'o' | b'b') {
        c.bump_n(2);
        while c.at < c.bytes.len() && (c.peek(0).is_ascii_alphanumeric() || c.peek(0) == b'_') {
            c.bump();
        }
        return TokKind::Int;
    }
    while c.at < c.bytes.len() && (c.peek(0).is_ascii_digit() || c.peek(0) == b'_') {
        c.bump();
    }
    // Fractional part: `.` followed by a digit (so `1..4` and `1.foo()`
    // stay integers).
    if c.peek(0) == b'.' && c.peek(1).is_ascii_digit() {
        float = true;
        c.bump();
        while c.at < c.bytes.len() && (c.peek(0).is_ascii_digit() || c.peek(0) == b'_') {
            c.bump();
        }
    }
    // Exponent.
    if matches!(c.peek(0), b'e' | b'E')
        && (c.peek(1).is_ascii_digit()
            || (matches!(c.peek(1), b'+' | b'-') && c.peek(2).is_ascii_digit()))
    {
        float = true;
        c.bump();
        if matches!(c.peek(0), b'+' | b'-') {
            c.bump();
        }
        while c.at < c.bytes.len() && (c.peek(0).is_ascii_digit() || c.peek(0) == b'_') {
            c.bump();
        }
    }
    // Type suffix (`u32`, `f64`, …).
    while c.at < c.bytes.len() && is_ident_continue(c.peek(0)) {
        if matches!(c.peek(0), b'f') && !float {
            float = true; // 1f32
        }
        c.bump();
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

/// Unquotes a string literal token's text to its contents (handles
/// plain, raw, and byte forms; escape sequences are kept verbatim —
/// the analyzers only match names, which never use escapes).
pub fn str_contents(text: &str) -> &str {
    let t = text
        .trim_start_matches('b')
        .trim_start_matches('r')
        .trim_start_matches('#');
    let t = t.strip_prefix('"').unwrap_or(t);
    let t = t.trim_end_matches('#');
    t.strip_suffix('"').unwrap_or(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        let tf = TokenFile::lex(src.to_string());
        tf.toks
            .iter()
            .map(|t| (t.kind, src[t.start..t.end].to_string()))
            .collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let ks = kinds("let x = 42u32 + 0xFF_u8 << 2;");
        let texts: Vec<&str> = ks.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "42u32", "+", "0xFF_u8", "<<", "2", ";"]
        );
        assert_eq!(ks[3].0, TokKind::Int);
        assert_eq!(ks[6].0, TokKind::Punct);
    }

    #[test]
    fn floats_vs_ranges_vs_methods() {
        let ks = kinds("1.5 1..4 1.max(2) 2e3 1_000.25");
        assert_eq!(ks[0].0, TokKind::Float);
        assert_eq!(ks[1].0, TokKind::Int); // 1
        assert_eq!(ks[2].1, ".."); // range stays punct
        assert_eq!(ks[4].0, TokKind::Int); // 1 before .max
        assert_eq!(ks[5].1, ".");
        assert_eq!(ks[6].1, "max");
        let last = &ks[ks.len() - 1];
        assert_eq!(last.0, TokKind::Float);
        assert_eq!(last.1, "1_000.25");
    }

    #[test]
    fn strings_raw_strings_chars_lifetimes() {
        let src = r####"f("a\"b", r#"raw "inner" ok"#, 'x', '\n', b'q', &'a str)"####;
        let ks = kinds(src);
        let strs: Vec<_> = ks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[1].1, r###"r#"raw "inner" ok"#"###);
        let chars: Vec<_> = ks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 3);
        assert!(ks.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'a"));
    }

    #[test]
    fn nested_block_comments_and_doc_comments() {
        let ks = kinds("a /* x /* y */ z */ b // tail\nc");
        let texts: Vec<&str> = ks.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(texts, ["a", "/* x /* y */ z */", "b", "// tail", "c"]);
        assert_eq!(ks[1].0, TokKind::BlockComment);
        assert_eq!(ks[3].0, TokKind::LineComment);
    }

    #[test]
    fn line_and_column_tracking() {
        let tf = TokenFile::lex("ab\n  cd".to_string());
        assert_eq!((tf.toks[0].line, tf.toks[0].col), (1, 1));
        assert_eq!((tf.toks[1].line, tf.toks[1].col), (2, 3));
    }

    #[test]
    fn str_contents_unquotes() {
        assert_eq!(str_contents("\"abc\""), "abc");
        assert_eq!(str_contents("r#\"a.b\"#"), "a.b");
        assert_eq!(str_contents("b\"xy\""), "xy");
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ks = kinds("r#type r#match x");
        assert_eq!(ks.len(), 3);
        assert!(ks.iter().all(|(k, _)| *k == TokKind::Ident));
    }
}
