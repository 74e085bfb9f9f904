//! The `.facts` reader: one pass over the bytes of a fact file.
//!
//! Fact files are the one input `tdx` reads in bulk and do not trust, so
//! they get their own scanner instead of the token [`Parser`] that serves
//! mappings and queries: [`scan_facts`] walks the text once, slices names
//! out of it, interns each distinct name once per scan, and hands every
//! fact to a caller's sink with a reused value buffer. Malformed text
//! comes back as a [`ParseError`] with the line and column (in chars) of
//! the fault; nothing here panics on any input.
//!
//! Grammar:
//!
//! ```text
//! file     := (fact | trivia)*
//! fact     := relation "(" [value ("," value)*] ")" "@" interval ["."]
//! relation := name
//! value    := name                        string constant; `_x` is the named null x
//!           | "'" char* "'" | '"' char* '"'   string constant, any UTF-8, no escapes
//!           | ["-"] digit+                integer constant (i64)
//!           | digit (alnum | "_")*        string constant such as `18k`
//! interval := "[" digit+ "," (digit+ | "inf" | "∞") ")"     half-open, non-empty
//! name     := (alpha | "_") (alnum | "_")*   except the keywords `inf` and `exists`
//! trivia   := ASCII whitespace | ("#" | "%") up to the end of the line
//! ```
//!
//! Trivia may sit between any two tokens. Interval endpoints are
//! non-negative and at most `i64::MAX`.
//!
//! [`Parser`]: crate::parser

use crate::constant::Constant;
use crate::parser::ParseError;
use crate::symbol::Symbol;
// tdx-lint: allow(hash-order): per-scan name lookup, never iterated; keys are file text, so keep the keyed default hasher
use std::collections::HashMap;
use tdx_temporal::Interval;

/// One value position of a parsed fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactTerm {
    /// A constant.
    Const(Constant),
    /// A named labeled null (`_x` in the file; the name scopes nulls within
    /// one file).
    Null(Symbol),
}

/// A temporal fact read from a data file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedFact {
    /// Relation name.
    pub relation: Symbol,
    /// Data values, one per attribute.
    pub values: Vec<FactTerm>,
    /// The fact's time interval.
    pub interval: Interval,
}

/// One fact as [`scan_facts`] hands it to its sink.
#[derive(Clone, Copy, Debug)]
pub struct ScannedFact<'a> {
    /// Relation name.
    pub relation: Symbol,
    /// Data values, one per attribute: the scanner's reused buffer, so a
    /// sink copies out what it keeps.
    pub values: &'a [FactTerm],
    /// The fact's time interval.
    pub interval: Interval,
    /// 1-based line of the fact's relation name.
    pub line: u32,
    /// 1-based column (in chars) of the fact's relation name.
    pub col: u32,
}

/// Scans a whole fact file, calling `sink` on each fact in file order.
/// Stops at the first syntax error (converted into `E`) or the first error
/// the sink returns.
pub fn scan_facts<E: From<ParseError>>(
    src: &str,
    mut sink: impl FnMut(&ScannedFact<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let mut sc = Scanner::new(src);
    let mut values = Vec::new();
    loop {
        sc.skip_trivia();
        if sc.peek().is_none() {
            return Ok(());
        }
        let (line, col) = (sc.line, sc.col());
        let relation = sc.relation()?;
        sc.expect_byte(b'(', "'(' after relation name")?;
        values.clear();
        if !sc.eat(b')') {
            loop {
                values.push(sc.value()?);
                if !sc.eat(b',') {
                    break;
                }
            }
            sc.expect_byte(b')', "')' closing the fact")?;
        }
        sc.expect_byte(b'@', "'@' between fact and interval")?;
        let interval = sc.interval()?;
        sc.eat(b'.');
        sink(&ScannedFact {
            relation,
            values: &values,
            interval,
            line,
            col,
        })?;
    }
}

/// Parses a single fact: `E(Ada, IBM) @ [2012, 2014)`.
pub fn parse_fact(src: &str) -> Result<ParsedFact, ParseError> {
    let mut out = None;
    scan_facts(src, |f| {
        if out.is_some() {
            return Err(ParseError {
                line: f.line,
                col: f.col,
                msg: "unexpected trailing input".into(),
            });
        }
        out = Some(owned(f));
        Ok(())
    })?;
    out.ok_or_else(|| ParseError {
        line: 1,
        col: 1,
        msg: "expected a fact (empty input)".into(),
    })
}

/// Parses a whole fact file (see the grammar above):
///
/// ```text
/// # Figure 4
/// E(Ada, IBM)    @ [2012, 2014)
/// E(Ada, Google) @ [2014, inf)
/// S(Ada, 18k)    @ [2013, ∞)
/// ```
pub fn parse_facts(src: &str) -> Result<Vec<ParsedFact>, ParseError> {
    let mut out = Vec::new();
    scan_facts(src, |f| {
        out.push(owned(f));
        Ok::<(), ParseError>(())
    })?;
    Ok(out)
}

fn owned(f: &ScannedFact<'_>) -> ParsedFact {
    ParsedFact {
        relation: f.relation,
        values: f.values.to_vec(),
        interval: f.interval,
    }
}

/// The UTF-8 encoding of `∞`.
const INF: &[u8] = "∞".as_bytes();

struct Scanner<'s> {
    src: &'s str,
    pos: usize,
    /// 1-based line of `pos`.
    line: u32,
    /// Byte offset where that line starts.
    line_start: usize,
    /// Each distinct name of this scan, interned once. The names come from
    /// the file, so the map keeps std's keyed hasher, which crafted
    /// colliding names cannot degrade.
    symbols: HashMap<&'s str, Symbol>,
}

impl<'s> Scanner<'s> {
    fn new(src: &'s str) -> Self {
        Scanner {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            symbols: HashMap::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'s str {
        self.src.get(self.pos..).unwrap_or("")
    }

    /// The 1-based column of `pos`, in chars.
    fn col(&self) -> u32 {
        let before = self.src.get(self.line_start..self.pos).unwrap_or("");
        u32::try_from(before.chars().count() + 1).unwrap_or(u32::MAX)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col(),
            msg: msg.into(),
        }
    }

    /// "expected …" at `pos`, naming what is there instead.
    fn expected(&self, what: &str) -> ParseError {
        match self.rest().chars().next() {
            Some(c) => self.error(format!("expected {what}, found '{c}'")),
            None => self.error(format!("expected {what} (at end of input)")),
        }
    }

    fn skip_trivia(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                b'#' | b'%' => {
                    self.pos += self.rest().find('\n').unwrap_or(self.rest().len());
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                _ => break,
            }
        }
    }

    /// Consumes `byte` if it is the next token.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_trivia();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn expect_byte(&mut self, byte: u8, what: &str) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    /// The length of the run of `[A-Za-z0-9_]` at `pos`.
    fn word_len(&self) -> usize {
        let rest = self.rest();
        rest.bytes()
            .position(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
            .unwrap_or(rest.len())
    }

    /// Consumes the next `len` bytes.
    fn take(&mut self, len: usize) -> &'s str {
        let s = self.rest().get(..len).unwrap_or("");
        self.pos += s.len();
        s
    }

    /// Consumes the next `len` bytes, a digit run or `-` and a digit run,
    /// as an `i64`.
    fn integer(&mut self, len: usize) -> Result<i64, ParseError> {
        let text = self.rest().get(..len).unwrap_or("");
        let i = text
            .parse()
            .map_err(|_| self.error("integer out of range"))?;
        self.pos += len;
        Ok(i)
    }

    fn intern(&mut self, s: &'s str) -> Symbol {
        *self.symbols.entry(s).or_insert_with(|| Symbol::intern(s))
    }

    /// A name that is not a keyword.
    fn name(&mut self, what: &str) -> Result<&'s str, ParseError> {
        if !self
            .peek()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        {
            return Err(self.expected(what));
        }
        let len = self.word_len();
        match self.rest().get(..len).unwrap_or("") {
            w @ ("inf" | "exists") => {
                Err(self.error(format!("expected {what}, found keyword '{w}'")))
            }
            _ => Ok(self.take(len)),
        }
    }

    fn relation(&mut self) -> Result<Symbol, ParseError> {
        let name = self.name("relation name")?;
        Ok(self.intern(name))
    }

    fn value(&mut self) -> Result<FactTerm, ParseError> {
        self.skip_trivia();
        match self.peek() {
            Some(quote @ (b'\'' | b'"')) => {
                let start = self.pos;
                let body = self.rest().get(1..).unwrap_or("");
                let Some(len) = body.find(quote as char) else {
                    return Err(self.error("unterminated string literal"));
                };
                let text = body.get(..len).unwrap_or("");
                if let Some(last) = text.rfind('\n') {
                    self.line += u32::try_from(text.matches('\n').count()).unwrap_or(u32::MAX);
                    self.line_start = start + 1 + last + 1;
                }
                self.pos = start + 1 + len + 1;
                Ok(FactTerm::Const(Constant::Str(self.intern(text))))
            }
            Some(b) if b.is_ascii_digit() => {
                let len = self.word_len();
                let word = self.rest().get(..len).unwrap_or("");
                if word.bytes().all(|b| b.is_ascii_digit()) {
                    Ok(FactTerm::Const(Constant::Int(self.integer(len)?)))
                } else {
                    let word = self.take(len);
                    Ok(FactTerm::Const(Constant::Str(self.intern(word))))
                }
            }
            Some(b'-') => {
                let digits = self.rest().bytes().skip(1).take_while(u8::is_ascii_digit);
                match digits.count() {
                    0 => Err(self.error("expected a number after '-'")),
                    n => Ok(FactTerm::Const(Constant::Int(self.integer(1 + n)?))),
                }
            }
            _ => {
                let name = self.name("a value (name, quoted string or integer)")?;
                let sym = self.intern(name);
                Ok(if name.starts_with('_') {
                    FactTerm::Null(sym)
                } else {
                    FactTerm::Const(Constant::Str(sym))
                })
            }
        }
    }

    /// An interval endpoint, a digit run within `i64`, if one is next.
    fn point(&mut self, what: &str) -> Result<Option<u64>, ParseError> {
        self.skip_trivia();
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Ok(None);
        }
        let len = self.word_len();
        let word = self.rest().get(..len).unwrap_or("");
        if !word.bytes().all(|b| b.is_ascii_digit()) {
            return Err(self.error(format!("expected {what}, found '{word}'")));
        }
        Ok(Some(self.integer(len)?.unsigned_abs()))
    }

    /// `[s, e)` or `[s, inf)` / `[s, ∞)`.
    fn interval(&mut self) -> Result<Interval, ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col());
        self.expect_byte(b'[', "'[' opening an interval")?;
        let Some(start) = self.point("a non-negative start point")? else {
            return Err(self.expected("a non-negative start point"));
        };
        self.expect_byte(b',', "',' between interval endpoints")?;
        let end = match self.point("an end point or 'inf'")? {
            Some(e) => Some(e),
            None if self.rest().as_bytes().starts_with(INF) => {
                self.pos += INF.len();
                None
            }
            None if self.rest().get(..self.word_len()) == Some("inf") => {
                self.pos += 3;
                None
            }
            None => return Err(self.expected("an end point or 'inf'")),
        };
        self.expect_byte(b')', "')' closing the half-open interval")?;
        match end {
            Some(e) => Interval::try_new(start, e).ok_or_else(|| ParseError {
                line,
                col,
                msg: format!("empty interval [{start}, {e})"),
            }),
            None => Ok(Interval::from(start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_range_is_i64() {
        assert_eq!(
            parse_fact("E(-9223372036854775808) @ [0, 9223372036854775807)")
                .unwrap()
                .values[0],
            FactTerm::Const(Constant::Int(i64::MIN))
        );
        assert!(parse_fact("E(9223372036854775808) @ [0, 1)").is_err());
        assert!(parse_fact("E(x) @ [0, 9223372036854775808)").is_err());
    }

    #[test]
    fn quoted_values_keep_their_utf8() {
        let f = parse_fact("E('Zürich AG', \"∞ und \u{1F600}\") @ [0, 5)").unwrap();
        assert_eq!(
            f.values,
            vec![
                FactTerm::Const(Constant::str("Zürich AG")),
                FactTerm::Const(Constant::str("∞ und \u{1F600}"))
            ]
        );
        // Quoted text is never a null, a keyword or an integer.
        let f = parse_fact("E('_x', 'inf', '42') @ [0, 1)").unwrap();
        assert_eq!(f.values[0], FactTerm::Const(Constant::str("_x")));
        assert_eq!(f.values[1], FactTerm::Const(Constant::str("inf")));
        assert_eq!(f.values[2], FactTerm::Const(Constant::str("42")));
    }

    #[test]
    fn error_positions_count_lines_and_chars() {
        // Column 14 in chars; the `ü` before it is two bytes.
        let err = parse_facts("E('Zürich', x) @ [0, 1)\nE('a\nb', c) @ [0, 1)\n  E(y) @ [3, 2)")
            .unwrap_err();
        assert_eq!((err.line, err.col), (4, 10), "{err}");
        assert!(err.msg.contains("empty interval"), "{err}");
        let err = parse_fact("E('Zürich', ü) @ [0, 1)").unwrap_err();
        assert_eq!((err.line, err.col), (1, 13), "{err}");
        assert!(err.msg.contains("found 'ü'"), "{err}");
        let err = parse_fact("E(a) @ [0, 1").unwrap_err();
        assert!(err.msg.contains("end of input"), "{err}");
    }
}
