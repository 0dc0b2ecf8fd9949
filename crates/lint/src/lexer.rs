//! A minimal Rust lexer: just enough of the language to know, for every
//! byte of a source file, whether it is *code*, a *comment*, or the
//! interior of a *literal*.
//!
//! The rule engine does not need types, macros, or expressions — its
//! patterns are textual. What broke the old substring scanner was not
//! missing syntax trees but missing *token classes*: `.unwrap()` inside
//! a doc string is not a call, `cast-ok:` inside a string literal is not
//! a marker, and `#[cfg(test)]` halfway down a file does not exempt the
//! library code that follows the test module. The lexer recovers exactly
//! those distinctions:
//!
//! * line comments, block comments (including nesting),
//! * string literals (escapes honoured), raw strings (`r"…"`,
//!   `r#"…"#` with any hash count, `b"…"`/`br#"…"#` byte forms),
//! * char literals vs lifetimes (`'a'` vs `'a`),
//! * identifier / number / punctuation tokens with line spans.
//!
//! [`SourceFile::parse`] folds the token stream into three per-line
//! views the rules consume:
//!
//! 1. **sanitized code lines** — the original text with every comment
//!    and literal byte blanked to a space (newlines kept), so substring
//!    patterns only ever match real code and byte columns still line up
//!    with the original file;
//! 2. **a test mask** — lines inside a `#[cfg(test)]`-gated item, found
//!    by brace matching rather than "everything after the first marker",
//!    so library code after an inline test module is scanned again;
//! 3. **escape markers** — `cast-ok:`-style markers collected from
//!    *trailing* comments only (a comment on a line that already holds
//!    code), never from literals or leading comments.

/// What a token is. The scanner only distinguishes the classes the rule
/// engine cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (including prefixed/suffixed forms).
    Number,
    /// A single punctuation byte.
    Punct,
    /// `// …` to end of line (including `///` and `//!` docs).
    LineComment,
    /// `/* … */`, nesting honoured.
    BlockComment,
    /// `"…"` or `b"…"` with escape processing.
    Str,
    /// `r"…"` / `r#"…"#` / `br#"…"#`, any hash count.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'ident` (no closing quote).
    Lifetime,
}

impl TokKind {
    /// Comment tokens carry escape markers; everything else is code or
    /// literal.
    pub fn is_comment(self) -> bool {
        matches!(self, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Bytes of these tokens are blanked out of the sanitized view.
    fn is_blanked(self) -> bool {
        matches!(
            self,
            TokKind::LineComment
                | TokKind::BlockComment
                | TokKind::Str
                | TokKind::RawStr
                | TokKind::Char
        )
    }
}

/// One token: kind plus byte span and the 1-based line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: usize,
}

impl Tok {
    /// 1-based line the token ends on (strings and block comments may
    /// span several lines).
    pub fn end_line(&self, text: &str) -> usize {
        self.line
            + text[self.start..self.end]
                .bytes()
                .filter(|&b| b == b'\n')
                .count()
    }
}

/// Tokenizes `text`. Unterminated literals or comments are tolerated
/// (the token runs to end of input): the engine lints code that is
/// expected to compile, but must never panic on code that does not.
pub fn tokenize(text: &str) -> Vec<Tok> {
    Lexer {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let b = self.bytes[self.pos];
            let kind = match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    continue;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    self.take_line_comment();
                    TokKind::LineComment
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.take_block_comment();
                    TokKind::BlockComment
                }
                b'"' => {
                    self.take_string();
                    TokKind::Str
                }
                b'\'' => self.take_char_or_lifetime(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.take_ident_or_literal_prefix(),
                b'0'..=b'9' => {
                    self.take_number();
                    TokKind::Number
                }
                _ => {
                    self.pos += 1;
                    TokKind::Punct
                }
            };
            out.push(Tok {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn take_line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn take_block_comment(&mut self) {
        self.pos += 2; // `/*`
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump();
            }
        }
    }

    /// A `"…"` string with `\` escapes; the cursor sits on the opening
    /// quote.
    fn take_string(&mut self) {
        self.pos += 1; // opening `"`
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return;
                }
                b'\\' => {
                    self.pos += 1;
                    if self.pos < self.bytes.len() {
                        self.bump();
                    }
                }
                _ => self.bump(),
            }
        }
    }

    /// A raw string whose terminator is `"` followed by `hashes` `#`s;
    /// the cursor sits on the opening quote.
    fn take_raw_string(&mut self, hashes: usize) {
        self.pos += 1; // opening `"`
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'"' && self.hashes_follow(hashes) {
                self.pos += 1 + hashes;
                return;
            }
            self.bump();
        }
    }

    fn hashes_follow(&self, n: usize) -> bool {
        (1..=n).all(|k| self.peek(k) == Some(b'#'))
    }

    /// Distinguishes `'a'` (char) from `'a` (lifetime) from a bare `'`.
    fn take_char_or_lifetime(&mut self) -> TokKind {
        let mut chars = self.text[self.pos + 1..].chars();
        match chars.next() {
            Some('\\') => {
                // Escaped char literal: consume until the closing quote.
                self.pos += 1;
                while self.pos < self.bytes.len() {
                    match self.bytes[self.pos] {
                        b'\'' => {
                            self.pos += 1;
                            return TokKind::Char;
                        }
                        b'\\' => {
                            self.pos += 1;
                            if self.pos < self.bytes.len() {
                                self.bump();
                            }
                        }
                        _ => self.bump(),
                    }
                }
                TokKind::Char
            }
            Some(c) if chars.next() == Some('\'') => {
                // `'x'` — a one-char literal (any scalar, not just ASCII).
                self.pos += 1 + c.len_utf8() + 1;
                TokKind::Char
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                // `'ident` with no closing quote: a lifetime.
                self.pos += 1;
                while self.pos < self.bytes.len()
                    && (self.bytes[self.pos] == b'_'
                        || self.bytes[self.pos].is_ascii_alphanumeric())
                {
                    self.pos += 1;
                }
                TokKind::Lifetime
            }
            _ => {
                self.pos += 1;
                TokKind::Punct
            }
        }
    }

    /// An identifier — or, when the identifier is `r`/`b`/`br` glued to
    /// a quote (or `#…"` for the raw forms), a string-literal prefix.
    fn take_ident_or_literal_prefix(&mut self) -> TokKind {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b'_' || self.bytes[self.pos].is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let ident = &self.text[start..self.pos];
        let raw = matches!(ident, "r" | "br");
        let stringish = raw || ident == "b";
        if stringish && self.peek(0) == Some(b'"') {
            if raw {
                self.take_raw_string(0);
                return TokKind::RawStr;
            }
            self.take_string();
            return TokKind::Str;
        }
        if raw && self.peek(0) == Some(b'#') {
            let mut hashes = 0usize;
            while self.peek(hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(hashes) == Some(b'"') {
                self.pos += hashes;
                self.take_raw_string(hashes);
                return TokKind::RawStr;
            }
        }
        if ident == "b" && self.peek(0) == Some(b'\'') {
            // `b'x'` byte literal: delegate to the char scanner.
            return self.take_char_or_lifetime();
        }
        TokKind::Ident
    }

    /// A numeric literal: digits plus alphanumeric continuation
    /// (`0x1f`, `1_000u64`, `2e-3`), taking a `.` only when a digit
    /// follows so `1.0.exp2()` splits as `1.0` `.` `exp2`.
    fn take_number(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'_'
                || b.is_ascii_alphanumeric()
                || (b == b'.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()))
            {
                self.pos += 1;
            } else if (b == b'+' || b == b'-')
                && matches!(self.bytes.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                self.pos += 1; // exponent sign in `2e-3`
            } else {
                break;
            }
        }
    }
}

/// The escape markers the rule catalog recognizes (see
/// `rules::RuleId::escape`). `stale-ok:` is the meta-marker: it keeps an
/// intentionally dormant marker from being reported as stale.
pub const MARKERS: [&str; 10] = [
    "cast-ok:",
    "panic-ok:",
    "unit-ok:",
    "context-ok:",
    "time-ok:",
    "print-ok:",
    "lock-ok:",
    "det-ok:",
    "conc-ok:",
    "stale-ok:",
];

/// A lexed source file folded into the per-line views the rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Sanitized lines: comments and literal bytes blanked to spaces,
    /// byte columns preserved. Index 0 is line 1.
    pub code: Vec<String>,
    /// Original lines (for excerpts). Same indexing.
    pub raw: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]`-gated item.
    pub test_mask: Vec<bool>,
    /// Escape markers found in trailing comments, per line.
    markers: Vec<Vec<&'static str>>,
}

impl SourceFile {
    /// Lexes `text` and builds the sanitized/code views.
    pub fn parse(text: &str) -> SourceFile {
        let tokens = tokenize(text);

        let mut bytes = text.as_bytes().to_vec();
        for tok in &tokens {
            if tok.kind.is_blanked() {
                for b in &mut bytes[tok.start..tok.end] {
                    if *b != b'\n' && *b != b'\r' {
                        *b = b' ';
                    }
                }
            }
        }
        // Only whole tokens were overwritten, each with ASCII spaces, so
        // the buffer is still valid UTF-8.
        let sanitized = String::from_utf8_lossy(&bytes).into_owned();
        let code: Vec<String> = sanitized.lines().map(str::to_string).collect();
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let n_lines = raw.len();

        let mut markers: Vec<Vec<&'static str>> = vec![Vec::new(); n_lines];
        let mut last_code_end_line = 0usize;
        for tok in &tokens {
            if tok.kind.is_comment() {
                // Trailing means: some code token already ended on the
                // line this comment starts on.
                if tok.line == last_code_end_line && tok.line <= n_lines {
                    let body = &text[tok.start..tok.end];
                    for marker in MARKERS {
                        if body.contains(marker) && !markers[tok.line - 1].contains(&marker) {
                            markers[tok.line - 1].push(marker);
                        }
                    }
                }
            } else {
                last_code_end_line = tok.end_line(text);
            }
        }

        let test_mask = test_mask(&tokens, text, n_lines);
        SourceFile {
            code,
            raw,
            test_mask,
            markers,
        }
    }

    /// The escape markers attached (via trailing comment) to `line`
    /// (1-based).
    pub fn markers_on(&self, line: usize) -> &[&'static str] {
        self.markers.get(line - 1).map_or(&[], Vec::as_slice)
    }
}

/// Marks every line covered by a `#[cfg(test)]`-gated item: the
/// attribute line, any stacked attributes, and the item body through its
/// matching close brace (or terminating `;`).
fn test_mask(tokens: &[Tok], text: &str, n_lines: usize) -> Vec<bool> {
    let code: Vec<&Tok> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let bytes = text.as_bytes();
    let is_punct = |tok: &Tok, byte: u8| {
        tok.kind == TokKind::Punct && tok.end - tok.start == 1 && bytes[tok.start] == byte
    };
    let is_attr_start =
        |i: usize| code.len() > i + 1 && is_punct(code[i], b'#') && is_punct(code[i + 1], b'[');
    // Index of the `]` matching the `[` at `open`, bracket depth honoured.
    let matching_bracket = |open: usize| -> Option<usize> {
        let mut depth = 0usize;
        for (k, tok) in code.iter().enumerate().skip(open) {
            if is_punct(tok, b'[') {
                depth += 1;
            } else if is_punct(tok, b']') {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        None
    };
    // Whether the attribute tokens in `(from..to)` spell exactly `cfg(test)`.
    let is_cfg_test = |from: usize, to: usize| {
        let inner: Vec<&str> = code[from..to]
            .iter()
            .map(|t| &text[t.start..t.end])
            .collect();
        inner == ["cfg", "(", "test", ")"]
    };

    let mut mask = vec![false; n_lines];
    let mut i = 0usize;
    while i < code.len() {
        if !is_attr_start(i) {
            i += 1;
            continue;
        }
        let Some(close) = matching_bracket(i + 1) else {
            break; // unterminated attribute: nothing more to scope
        };
        if !is_cfg_test(i + 2, close) {
            i = close + 1;
            continue;
        }
        let attr_line = code[i].line;
        // Skip any further stacked attributes before the item itself.
        let mut j = close + 1;
        while is_attr_start(j) {
            match matching_bracket(j + 1) {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item body: first `{` opens it (brace-matched), or a `;`
        // ends a body-less item (`mod tests;`).
        let mut end_line = attr_line;
        while let Some(tok) = code.get(j) {
            end_line = tok.end_line(text);
            if is_punct(tok, b';') {
                break;
            }
            if is_punct(tok, b'{') {
                let mut depth = 1usize;
                j += 1;
                while let Some(body) = code.get(j) {
                    end_line = body.end_line(text);
                    if is_punct(body, b'{') {
                        depth += 1;
                    } else if is_punct(body, b'}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        for line in attr_line..=end_line.min(n_lines) {
            mask[line - 1] = true;
        }
        i = j + 1;
    }
    mask
}
