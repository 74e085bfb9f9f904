//! A small text syntax for schemas, dependencies, queries and mappings.
//! Fact files have their own one-pass reader in [`crate::facts`].
//!
//! Conventions (following the paper's notation):
//!
//! * identifiers starting with a **lowercase** letter are *variables*
//!   (`n`, `c`, `s2`);
//! * identifiers starting with an **uppercase** letter are *string
//!   constants* in term position (`Ada`, `IBM`) and *relation names* in
//!   relation position; arbitrary strings can be quoted (`'ibm'`, `"a b"`);
//! * digit-initial tokens are integer constants when purely numeric (`2014`)
//!   and string constants otherwise (`18k`);
//! * conjunction is `&`, `∧` or a comma between atoms; implication is `->`
//!   or `→`; existential quantification (`exists s .` / `∃ s .`) is
//!   optional — head variables absent from the body are existential anyway.
//!
//! Grammar sketch:
//!
//! ```text
//! schema   := rel_decl ("." | newline)* ;          e.g.  E(name, company). S(name, salary).
//! tgd      := conj "->" ["exists" vars "."] conj    e.g.  E(n,c) & S(n,s) -> Emp(n,c,s)
//! egd      := conj "->" var "=" var                 e.g.  Emp(n,c,s) & Emp(n,c,s') -> s = s'
//! query    := head ":-" conj                        e.g.  Q(n, s) :- Emp(n, c, s)
//! union    := query (";" query)*
//! mapping  := "source" "{" schema "}" "target" "{" schema "}"
//!             (("tgd" | "egd") [name ":"] dep)*
//! ```

use crate::atom::Atom;
use crate::constant::Constant;
use crate::dependency::{Egd, SchemaMapping, Tgd};
use crate::query::{ConjunctiveQuery, UnionQuery};
use crate::schema::{RelationSchema, Schema};
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::fmt;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Quoted(String),
    Int(i64),
    Alnum(String), // digit-initial mixed token like `18k`
    LParen,
    RParen,
    Comma,
    Dot,
    Semi,
    Colon,
    Eq,
    Arrow,   // -> or →
    Entails, // :-
    Amp,     // & or ∧
    Exists,  // exists or ∃
    LBrace,
    RBrace,
    Inf, // inf or ∞: reserved, so never a variable
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: u32,
    col: u32,
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.src.get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // Columns count chars: UTF-8 continuation bytes add none.
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn tokenize(mut self) -> Result<Vec<Spanned>, ParseError> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and `#` / `%` line comments.
            loop {
                match self.peek() {
                    Some(b) if b.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'#') | Some(b'%') => {
                        while let Some(b) = self.peek() {
                            if b == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else { break };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b';' => {
                    self.bump();
                    Tok::Semi
                }
                b'=' => {
                    self.bump();
                    Tok::Eq
                }
                b'{' => {
                    self.bump();
                    Tok::LBrace
                }
                b'}' => {
                    self.bump();
                    Tok::RBrace
                }
                b'&' => {
                    self.bump();
                    Tok::Amp
                }
                b'-' => {
                    self.bump();
                    match self.peek() {
                        Some(b'>') => {
                            self.bump();
                            Tok::Arrow
                        }
                        Some(c) if c.is_ascii_digit() => {
                            let mut n = String::from("-");
                            while let Some(c) = self.peek() {
                                if c.is_ascii_digit() {
                                    n.push(c as char);
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                            Tok::Int(n.parse().map_err(|_| self.error("bad integer"))?)
                        }
                        _ => return Err(self.error("expected '->' or negative number after '-'")),
                    }
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Entails
                    } else {
                        Tok::Colon
                    }
                }
                b'\'' | b'"' => {
                    let quote = b;
                    self.bump();
                    let start = self.pos;
                    loop {
                        match self.bump() {
                            None => return Err(self.error("unterminated string literal")),
                            Some(c) if c == quote => break,
                            Some(_) => {}
                        }
                    }
                    // Slice the text, not the bytes: the quotes are ASCII,
                    // so the body is whole UTF-8 chars.
                    Tok::Quoted(self.text.get(start..self.pos - 1).unwrap_or("").to_owned())
                }
                _ if b.is_ascii_digit() => {
                    let mut s = String::new();
                    let mut pure = true;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            pure &= c.is_ascii_digit();
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if pure {
                        Tok::Int(s.parse().map_err(|_| self.error("integer out of range"))?)
                    } else {
                        Tok::Alnum(s)
                    }
                }
                _ if b.is_ascii_alphabetic() || b == b'_' => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if s == "exists" {
                        Tok::Exists
                    } else if s == "inf" {
                        Tok::Inf
                    } else {
                        Tok::Ident(s)
                    }
                }
                _ => {
                    // UTF-8 operators: ∧ (0xE2 0x88 0xA7), → (0xE2 0x86 0x92),
                    // ∃ (0xE2 0x88 0x83), ∞ (0xE2 0x88 0x9E).
                    if b == 0xE2 {
                        let (b1, b2) = (self.peek2(), self.src.get(self.pos + 2).copied());
                        let tok = match (b1, b2) {
                            (Some(0x88), Some(0xA7)) => Some(Tok::Amp),
                            (Some(0x86), Some(0x92)) => Some(Tok::Arrow),
                            (Some(0x88), Some(0x83)) => Some(Tok::Exists),
                            (Some(0x88), Some(0x9E)) => Some(Tok::Inf),
                            _ => None,
                        };
                        if let Some(tok) = tok {
                            self.bump();
                            self.bump();
                            self.bump();
                            out.push(Spanned { tok, line, col });
                            continue;
                        }
                    }
                    let c = self.text.get(self.pos..).and_then(|t| t.chars().next());
                    return Err(self.error(format!(
                        "unexpected character '{}'",
                        c.unwrap_or(char::REPLACEMENT_CHARACTER)
                    )));
                }
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: Lexer::new(src).tokenize()?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        match self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
        {
            Some(s) if self.pos < self.toks.len() => ParseError {
                line: s.line,
                col: s.col,
                msg: msg.into(),
            },
            Some(s) => ParseError {
                line: s.line,
                col: s.col + 1,
                msg: format!("{} (at end of input)", msg.into()),
            },
            None => ParseError {
                line: 1,
                col: 1,
                msg: format!("{} (empty input)", msg.into()),
            },
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error_here(format!("expected {what}")))
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error_here(format!("expected {what}"))),
        }
    }

    /// `R(term, …)`
    fn atom(&mut self) -> Result<Atom, ParseError> {
        let rel = self.ident("relation name")?;
        self.expect(Tok::LParen, "'(' after relation name")?;
        let mut terms = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                terms.push(self.term()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "')' closing atom")?;
        Ok(Atom::new(rel.as_str(), terms))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => {
                let first = s.chars().next().expect("nonempty ident");
                if first.is_lowercase() || first == '_' {
                    Ok(Term::Var(Var::new(&s)))
                } else {
                    Ok(Term::Const(Constant::str(&s)))
                }
            }
            Some(Tok::Quoted(s)) => Ok(Term::Const(Constant::str(&s))),
            Some(Tok::Int(i)) => Ok(Term::Const(Constant::Int(i))),
            Some(Tok::Alnum(s)) => Ok(Term::Const(Constant::str(&s))),
            _ => Err(self.error_here("expected a term (variable or constant)")),
        }
    }

    /// `atom (("&"|"∧"|",") atom)*`
    fn conjunction(&mut self) -> Result<Vec<Atom>, ParseError> {
        let mut atoms = vec![self.atom()?];
        while matches!(self.peek(), Some(Tok::Amp) | Some(Tok::Comma)) {
            self.pos += 1;
            atoms.push(self.atom()?);
        }
        Ok(atoms)
    }

    fn tgd(&mut self) -> Result<Tgd, ParseError> {
        let body = self.conjunction()?;
        self.expect(Tok::Arrow, "'->' between tgd body and head")?;
        // Optional `exists v1, v2 .`
        let mut declared_existentials = Vec::new();
        if self.peek() == Some(&Tok::Exists) {
            self.pos += 1;
            loop {
                let name = self.ident("existential variable")?;
                declared_existentials.push(Var::new(&name));
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(Tok::Dot, "'.' after existential variables")?;
        }
        let head = self.conjunction()?;
        let tgd = Tgd::new(body, head).map_err(|m| self.error_here(m))?;
        // Declared existentials must really be existential.
        let actual = tgd.existential_vars();
        for v in &declared_existentials {
            if !actual.contains(v) {
                return Err(self.error_here(format!(
                    "variable {v} is declared existential but occurs in the body"
                )));
            }
        }
        Ok(tgd)
    }

    fn egd(&mut self) -> Result<Egd, ParseError> {
        let body = self.conjunction()?;
        self.expect(Tok::Arrow, "'->' between egd body and equality")?;
        let lhs = self.var("left side of equality")?;
        self.expect(Tok::Eq, "'=' in egd head")?;
        let rhs = self.var("right side of equality")?;
        Egd::new(body, lhs, rhs).map_err(|m| self.error_here(m))
    }

    fn var(&mut self, what: &str) -> Result<Var, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s))
                if s.chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_') =>
            {
                let v = Var::new(s);
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.error_here(format!("expected variable for {what}"))),
        }
    }

    fn query(&mut self) -> Result<ConjunctiveQuery, ParseError> {
        let name = self.ident("query head name")?;
        self.expect(Tok::LParen, "'(' after query name")?;
        let mut head = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                head.push(self.term()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "')' closing query head")?;
        self.expect(Tok::Entails, "':-' between query head and body")?;
        let body = self.conjunction()?;
        Ok(ConjunctiveQuery::new(head, body)
            .map_err(|m| self.error_here(m))?
            .named(&name))
    }

    /// `R(attr, …)` declarations separated by optional dots.
    fn schema_decls(&mut self, until_brace: bool) -> Result<Vec<RelationSchema>, ParseError> {
        let mut rels = Vec::new();
        loop {
            if self.at_end() || (until_brace && self.peek() == Some(&Tok::RBrace)) {
                break;
            }
            let name = self.ident("relation name")?;
            self.expect(Tok::LParen, "'(' after relation name")?;
            let mut attrs = Vec::new();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    attrs.push(Symbol::intern(&self.ident("attribute name")?));
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "')' closing relation declaration")?;
            if self.peek() == Some(&Tok::Dot) {
                self.pos += 1;
            }
            rels.push(RelationSchema::from_symbols(Symbol::intern(&name), attrs));
        }
        Ok(rels)
    }

    fn mapping(&mut self) -> Result<SchemaMapping, ParseError> {
        let kw = self.ident("'source'")?;
        if kw != "source" {
            return Err(self.error_here("mapping must start with 'source {'"));
        }
        self.expect(Tok::LBrace, "'{' after 'source'")?;
        let source = Schema::new(self.schema_decls(true)?).map_err(|m| self.error_here(m))?;
        self.expect(Tok::RBrace, "'}' closing source schema")?;
        let kw = self.ident("'target'")?;
        if kw != "target" {
            return Err(self.error_here("expected 'target {' after source schema"));
        }
        self.expect(Tok::LBrace, "'{' after 'target'")?;
        let target = Schema::new(self.schema_decls(true)?).map_err(|m| self.error_here(m))?;
        self.expect(Tok::RBrace, "'}' closing target schema")?;

        let mut tgds = Vec::new();
        let mut egds = Vec::new();
        while !self.at_end() {
            let kind = self.ident("'tgd' or 'egd'")?;
            // Optional `name :`
            let name = if let (Some(Tok::Ident(n)), Some(Tok::Colon)) =
                (self.peek(), self.toks.get(self.pos + 1).map(|s| &s.tok))
            {
                let n = n.clone();
                self.pos += 2;
                Some(n)
            } else {
                None
            };
            match kind.as_str() {
                "tgd" => {
                    let mut t = self.tgd()?;
                    t.name = name;
                    tgds.push(t);
                }
                "egd" => {
                    let mut e = self.egd()?;
                    e.name = name;
                    egds.push(e);
                }
                other => {
                    return Err(self.error_here(format!("expected 'tgd' or 'egd', found '{other}'")))
                }
            }
        }
        SchemaMapping::new(source, target, tgds, egds).map_err(|m| self.error_here(m))
    }

    fn finish<T>(self, value: T) -> Result<T, ParseError> {
        if self.at_end() {
            Ok(value)
        } else {
            Err(self.error_here("unexpected trailing input"))
        }
    }
}

/// Parses a schema: `E(name, company). S(name, salary).`
pub fn parse_schema(src: &str) -> Result<Schema, ParseError> {
    let mut p = Parser::new(src)?;
    let rels = p.schema_decls(false)?;
    let schema = Schema::new(rels).map_err(|m| p.error_here(m))?;
    p.finish(schema)
}

/// Parses one s-t tgd: `E(n,c) & S(n,s) -> Emp(n,c,s)`.
pub fn parse_tgd(src: &str) -> Result<Tgd, ParseError> {
    let mut p = Parser::new(src)?;
    let tgd = p.tgd()?;
    p.finish(tgd)
}

/// Parses one temporal (modal) s-t tgd. The head is prefixed by a modality
/// keyword (`now`, `sometime_past`, `always_past`, `sometime_future`,
/// `always_future`; omitted means `now`):
///
/// ```text
/// PhDgrad(n) -> sometime_past exists adv, top . PhDCan(n, adv, top)
/// ```
pub fn parse_temporal_tgd(
    src: &str,
) -> Result<crate::temporal_dependency::TemporalTgd, ParseError> {
    use crate::temporal_dependency::{Modality, TemporalTgd};
    let mut p = Parser::new(src)?;
    let body = p.conjunction()?;
    p.expect(Tok::Arrow, "'->' between body and modal head")?;
    let modality = match p.peek() {
        Some(Tok::Ident(kw)) => match Modality::from_keyword(kw) {
            Some(m) => {
                p.pos += 1;
                m
            }
            None => Modality::Now,
        },
        _ => Modality::Now,
    };
    // Optional `exists v1, v2 .`
    if p.peek() == Some(&Tok::Exists) {
        p.pos += 1;
        loop {
            p.ident("existential variable")?;
            if p.peek() == Some(&Tok::Comma) {
                p.pos += 1;
            } else {
                break;
            }
        }
        p.expect(Tok::Dot, "'.' after existential variables")?;
    }
    let head = p.conjunction()?;
    let t = TemporalTgd::new(body, modality, head).map_err(|m| p.error_here(m))?;
    p.finish(t)
}

/// Parses one egd: `Emp(n,c,s) & Emp(n,c,s2) -> s = s2`.
pub fn parse_egd(src: &str) -> Result<Egd, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.egd()?;
    p.finish(e)
}

/// Parses one conjunctive query: `Q(n, s) :- Emp(n, c, s)`.
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.finish(q)
}

/// Parses a union of conjunctive queries separated by `;`.
pub fn parse_union_query(src: &str) -> Result<UnionQuery, ParseError> {
    let mut p = Parser::new(src)?;
    let mut disjuncts = vec![p.query()?];
    while p.peek() == Some(&Tok::Semi) {
        p.pos += 1;
        disjuncts.push(p.query()?);
    }
    let u = UnionQuery::new(disjuncts).map_err(|m| p.error_here(m))?;
    p.finish(u)
}

/// Parses a complete data exchange setting:
///
/// ```text
/// source { E(name, company)  S(name, salary) }
/// target { Emp(name, company, salary) }
/// tgd st1: E(n,c) -> exists s . Emp(n,c,s)
/// tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)
/// egd fd:  Emp(n,c,s) & Emp(n,c,s2) -> s = s2
/// ```
pub fn parse_mapping(src: &str) -> Result<SchemaMapping, ParseError> {
    let mut p = Parser::new(src)?;
    let m = p.mapping()?;
    p.finish(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{parse_fact, parse_facts, FactTerm};

    #[test]
    fn parses_schema() {
        let s = parse_schema("E(name, company). S(name, salary).").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.relations()[0].arity(), 2);
        // Dots are optional.
        let s = parse_schema("E(name, company) S(name, salary)").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn parses_tgd_variants() {
        let t = parse_tgd("E(n,c) -> exists s . Emp(n,c,s)").unwrap();
        assert_eq!(t.existential_vars(), vec![Var::new("s")]);
        let t2 = parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap();
        assert_eq!(t, t2);
        let t3 = parse_tgd("E(n,c) ∧ S(n,s) → Emp(n,c,s)").unwrap();
        assert!(t3.existential_vars().is_empty());
        assert_eq!(t3.body.len(), 2);
    }

    #[test]
    fn rejects_fake_existential() {
        let err = parse_tgd("E(n,c) -> exists n . Emp(n,c,s)");
        assert!(err.is_err());
    }

    #[test]
    fn parses_egd() {
        let e = parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2").unwrap();
        assert_eq!(e.lhs, Var::new("s"));
        assert_eq!(e.rhs, Var::new("s2"));
        assert_eq!(e.body.len(), 2);
    }

    #[test]
    fn parses_constants() {
        let t = parse_tgd("E(n, IBM) -> Emp(n, IBM, 18k)").unwrap();
        assert_eq!(t.body[0].terms[1], Term::constant("IBM"));
        assert_eq!(t.head[0].terms[2], Term::constant("18k"));
        let t = parse_tgd("E(n, 'acme corp') -> Emp(n, 2014, -7)").unwrap();
        assert_eq!(t.body[0].terms[1], Term::constant("acme corp"));
        assert_eq!(t.head[0].terms[1], Term::constant(2014i64));
        assert_eq!(t.head[0].terms[2], Term::constant(-7i64));
    }

    #[test]
    fn parses_query_and_union() {
        let q = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap();
        assert_eq!(q.arity(), 2);
        assert_eq!(q.name.as_deref(), Some("Q"));
        let u = parse_union_query("Q(n) :- Emp(n, c, s); Q(n) :- Former(n)").unwrap();
        assert_eq!(u.disjuncts().len(), 2);
        assert!(parse_union_query("Q(n) :- Emp(n,c,s); R(n,c) :- Emp(n,c,s)").is_err());
    }

    #[test]
    fn parses_full_mapping() {
        let m = parse_mapping(
            "source { E(name, company)  S(name, salary) }\n\
             target { Emp(name, company, salary) }\n\
             tgd st1: E(n,c) -> exists s . Emp(n,c,s)\n\
             tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)\n\
             egd fd: Emp(n,c,s) & Emp(n,c,s2) -> s = s2\n",
        )
        .unwrap();
        assert_eq!(m.st_tgds().len(), 2);
        assert_eq!(m.egds().len(), 1);
        assert_eq!(m.st_tgds()[0].name.as_deref(), Some("st1"));
        assert_eq!(m.egds()[0].name.as_deref(), Some("fd"));
    }

    #[test]
    fn comments_are_skipped() {
        let m = parse_tgd("# paper sigma_1\nE(n,c) -> Emp(n,c,s) % trailing");
        assert!(m.is_ok());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_tgd("E(n,c) -> ").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("relation name"));
        let err = parse_egd("Emp(n,c,s) -> s = S2").unwrap_err();
        assert!(err.msg.contains("variable"));
        let err = parse_schema("E(a) extra-").unwrap_err();
        assert!(err.col > 1);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_tgd("E(n,'oops) -> Emp(n,c,s)").is_err());
    }

    #[test]
    fn parses_facts() {
        let f = parse_fact("E(Ada, IBM) @ [2012, 2014)").unwrap();
        assert_eq!(f.relation.as_str(), "E");
        assert_eq!(
            f.values,
            vec![
                FactTerm::Const(Constant::str("Ada")),
                FactTerm::Const(Constant::str("IBM"))
            ]
        );
        assert_eq!(f.interval, tdx_temporal::Interval::new(2012, 2014));
        // inf / ∞ and lowercase coercion.
        let f = parse_fact("S(ada, 18k) @ [2013, inf)").unwrap();
        assert_eq!(f.values[0], FactTerm::Const(Constant::str("ada")));
        assert!(f.interval.is_unbounded());
        let f = parse_fact("S(Ada, 18k) @ [2013, ∞)").unwrap();
        assert!(f.interval.is_unbounded());
        // Integer values.
        let f = parse_fact("Reading(42, -7) @ [0, 1)").unwrap();
        assert_eq!(
            f.values,
            vec![
                FactTerm::Const(Constant::Int(42)),
                FactTerm::Const(Constant::Int(-7))
            ]
        );
        // Named nulls.
        let f = parse_fact("Emp(Ada, IBM, _s1) @ [2012, 2013)").unwrap();
        assert_eq!(f.values[2], FactTerm::Null(Symbol::intern("_s1")));
    }

    #[test]
    fn parses_fact_files() {
        let facts = parse_facts(
            "# Figure 4\n\
             E(Ada, IBM)    @ [2012, 2014).\n\
             E(Ada, Google) @ [2014, inf)\n\
             S(Bob, 13k)    @ [2015, ∞)  % trailing comment\n",
        )
        .unwrap();
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[2].relation.as_str(), "S");
        // Trivia may sit between any two tokens; no separator is needed.
        let facts = parse_facts("E(Ada,# c\n IBM)@[0,1)E(Bob,'x')@ [ 1 , inf ) .").unwrap();
        assert_eq!(facts.len(), 2);
        assert!(parse_facts("").unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_facts() {
        assert!(parse_fact("E(Ada, IBM)").is_err()); // no interval
        assert!(parse_fact("E(Ada) @ [5, 5)").is_err()); // empty interval
        assert!(parse_fact("E(Ada) @ [9, 4)").is_err()); // reversed
        assert!(parse_fact("E(Ada) @ [-3, 4)").is_err()); // negative start
        assert!(parse_fact("E(inf, x) @ [0, 1)").is_err()); // keyword value
        assert!(parse_fact("E(exists) @ [0, 1)").is_err());
        assert!(parse_fact("inf(x) @ [0, 1)").is_err());
        assert!(parse_fact("E(x) @ [inf, 1)").is_err());
        assert!(parse_fact("E(x) @ [0, infinity)").is_err());
        assert!(parse_fact("E(x) @ [0, 1a)").is_err());
        assert!(parse_fact("E(-7k) @ [0, 1)").is_err());
        assert!(parse_fact("E(x) @ [0, 1)..").is_err());
        assert!(parse_fact("E(x) @ [0, 1) E(y) @ [0, 1)").is_err()); // two facts
        assert!(parse_fact("").is_err());
        assert!(parse_fact("E('open) @ [0, 1)").is_err());
    }

    #[test]
    fn quoted_constants_keep_their_utf8() {
        let q = parse_query("Q(n) :- Emp(n, 'Zürich', s)").unwrap();
        assert_eq!(q.body[0].terms[1], Term::constant("Zürich"));
        let t = parse_tgd("E(n, \"Zürich AG\") -> Emp(n, '∞ ∧ →', s)").unwrap();
        assert_eq!(t.body[0].terms[1], Term::constant("Zürich AG"));
        assert_eq!(t.head[0].terms[1], Term::constant("∞ ∧ →"));
    }

    #[test]
    fn error_columns_count_chars() {
        // `ü` is two bytes but one column: the stray `$` is column 21.
        let err = parse_tgd("E(n, 'Zürich') -> F($n)").unwrap_err();
        assert_eq!((err.line, err.col), (1, 21), "{err}");
        let err = parse_tgd("E(n, c) -> F(n) ü").unwrap_err();
        assert!(err.msg.contains("'ü'"), "{err}");
    }

    #[test]
    fn parses_temporal_tgds() {
        use crate::temporal_dependency::Modality;
        let t =
            parse_temporal_tgd("PhDgrad(n) -> sometime_past exists adv, top . PhDCan(n, adv, top)")
                .unwrap();
        assert_eq!(t.modality, Modality::SometimePast);
        assert_eq!(t.body.len(), 1);
        assert_eq!(t.head.len(), 1);
        let t = parse_temporal_tgd("Hired(n) -> always_future OnPayroll(n)").unwrap();
        assert_eq!(t.modality, Modality::AlwaysFuture);
        // No keyword means `now`.
        let t = parse_temporal_tgd("E(n,c) -> Emp(n,c,s)").unwrap();
        assert_eq!(t.modality, Modality::Now);
        assert!(t.as_plain().is_some());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_tgd("E(n,c) -> Emp(n,c,s) garbage()").is_err());
    }
}
