//! `tdx-lint`: the workspace static-analysis pass.
//!
//! The reproduction's core claim — chase results are **byte-identical**
//! across engines, server counts, transports, crashes and chaos plans —
//! rests on invariants `rustc` cannot see. This pass enforces the three
//! that have bitten before, with a hand-rolled token scanner (the build
//! image has no crates.io, so no `syn`):
//!
//! 1. **Determinism** (`wall-clock`, `rng`, `hash-order`): wall-clock
//!    reads, unseeded randomness and std's randomly-seeded hash
//!    collections are forbidden in production code unless annotated —
//!    every time/randomness boundary must be explicit and justified.
//! 2. **Protocol exhaustiveness** (`protocol`): every `Message`/`Response`
//!    variant must have an encode arm and a decode arm in its `Wire`
//!    impl, a handler arm in `server.rs`, and an entry in the chaos/fault
//!    test matrix. Adding a v4 frame without full coverage fails CI.
//! 3. **Panic-free fault paths** (`panic`, `index`): `unwrap()`,
//!    `expect(`, `panic!` and panicking slice operations are denied in
//!    the transport/coordinator/chaos/WAL/durable files, whose job is to
//!    turn byte-level failures into typed errors.
//!
//! A finding is suppressed by an annotation on the same line or the line
//! directly above:
//!
//! ```text
//! // tdx-lint: allow(wall-clock): liveness-only deadline; never in results
//! ```
//!
//! Each annotation suppresses exactly one finding and must carry a
//! justification after the second colon; an annotation that suppresses
//! nothing is itself a finding, so stale allows cannot accumulate.
//!
//! The scanner masks comments, strings and `#[cfg(test)]` regions before
//! matching, so patterns inside literals or tests never fire. Heuristics
//! are documented in `docs/static-analysis.md`.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules and findings

/// The rule families. `Annotation` covers meta-findings about the allow
/// machinery itself (malformed, reasonless or unused annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    WallClock,
    Rng,
    HashOrder,
    Panic,
    Index,
    Protocol,
    Annotation,
}

impl Rule {
    /// The id used in `allow(<id>)` annotations and in CLI output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::Rng => "rng",
            Rule::HashOrder => "hash-order",
            Rule::Panic => "panic",
            Rule::Index => "index",
            Rule::Protocol => "protocol",
            Rule::Annotation => "annotation",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "wall-clock" => Rule::WallClock,
            "rng" => Rule::Rng,
            "hash-order" => Rule::HashOrder,
            "panic" => Rule::Panic,
            "index" => Rule::Index,
            "protocol" => Rule::Protocol,
            _ => return None,
        })
    }
}

/// One lint finding, anchored to a 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Source masking: comments and string/char literals become spaces, comment
// text is kept per line for annotation parsing.

struct Masked {
    /// Code with every comment and literal body blanked, split into lines.
    lines: Vec<String>,
    /// Comment text collected per line (line and block comments alike).
    comments: Vec<String>,
    /// Whether the line sits inside a `#[cfg(test)]`-gated block.
    in_test: Vec<bool>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Detects a raw-string opener at `i` (`r"`, `r#"`, `br##"`, …). Returns
/// the hash count and the index just past the opening quote.
fn raw_string_open(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&b'"') {
        Some((hashes, j + 1))
    } else {
        None
    }
}

fn mask_source(src: &str) -> Masked {
    enum St {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let b = src.as_bytes();
    let mut code = Vec::with_capacity(b.len());
    let mut comments: Vec<String> = vec![String::new()];
    let mut line = 0usize;
    let mut st = St::Code;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            code.push(b'\n');
            line += 1;
            comments.push(String::new());
            if let St::LineComment = st {
                st = St::Code;
            }
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let prev_ident = i > 0 && is_ident_byte(b[i - 1]);
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::LineComment;
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(1);
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'"' {
                    st = St::Str;
                    code.push(b' ');
                    i += 1;
                } else if !prev_ident && (c == b'r' || c == b'b') {
                    if let Some((hashes, after)) = raw_string_open(b, i) {
                        st = St::RawStr(hashes);
                        code.extend(std::iter::repeat_n(b' ', after - i));
                        i = after;
                    } else if c == b'b' && b.get(i + 1) == Some(&b'"') {
                        st = St::Str;
                        code.extend_from_slice(b"  ");
                        i += 2;
                    } else if c == b'b' && b.get(i + 1) == Some(&b'\'') {
                        st = St::Char;
                        code.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == b'\'' {
                    // Lifetime or char literal. A lifetime is `'` followed
                    // by an identifier *not* closed by another quote.
                    let next = b.get(i + 1).copied();
                    let lifetime = matches!(next, Some(n) if is_ident_byte(n) && n != b'\\')
                        && b.get(i + 2) != Some(&b'\'');
                    if lifetime {
                        code.push(c);
                        i += 1;
                    } else {
                        st = St::Char;
                        code.push(b' ');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                comments[line].push(c as char);
                code.push(b' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(depth + 1);
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    comments[line].push(c as char);
                    code.push(b' ');
                    i += 1;
                }
            }
            St::Str => {
                if c == b'\\' {
                    // Keep line numbers aligned across `\`-continuations.
                    code.push(b' ');
                    match b.get(i + 1) {
                        Some(&b'\n') => {
                            code.push(b'\n');
                            line += 1;
                            comments.push(String::new());
                        }
                        Some(_) => code.push(b' '),
                        None => {}
                    }
                    i += 2;
                } else if c == b'"' {
                    st = St::Code;
                    code.push(b' ');
                    i += 1;
                } else {
                    code.push(b' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == b'"' {
                    let closed = (0..hashes).all(|k| b.get(i + 1 + k) == Some(&b'#'));
                    if closed {
                        st = St::Code;
                        code.extend(std::iter::repeat_n(b' ', hashes + 1));
                        i += 1 + hashes;
                        continue;
                    }
                }
                code.push(b' ');
                i += 1;
            }
            St::Char => {
                if c == b'\\' {
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'\'' {
                    st = St::Code;
                    code.push(b' ');
                    i += 1;
                } else {
                    code.push(b' ');
                    i += 1;
                }
            }
        }
    }
    let code = String::from_utf8_lossy(&code).into_owned();
    let lines: Vec<String> = code.split('\n').map(str::to_owned).collect();
    while comments.len() < lines.len() {
        comments.push(String::new());
    }
    let in_test = mark_test_regions(&lines);
    Masked {
        lines,
        comments,
        in_test,
    }
}

/// Marks every line inside a `#[cfg(test)]`-gated braced item (in this
/// tree, always `mod tests`). An attribute followed by a `;` before any
/// `{` gates a single statement — only those lines are marked.
fn mark_test_regions(lines: &[String]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if !lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            flags[j] = true;
            let mut done = false;
            for ch in lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            done = true;
                        }
                    }
                    ';' if !opened && depth == 0 && j > i => done = true,
                    _ => {}
                }
            }
            if done || (opened && depth <= 0) {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    flags
}

// ---------------------------------------------------------------------------
// Token matching helpers

/// Whether `pat` occurs in `hay` with a non-identifier byte (or the edge)
/// immediately before the match. Patterns starting with `.` or containing
/// `::` get the boundary check for free.
fn has_token(hay: &str, pat: &str) -> bool {
    count_token(hay, pat) > 0
}

fn count_token(hay: &str, pat: &str) -> usize {
    let mut n = 0usize;
    let mut start = 0usize;
    while let Some(idx) = hay[start..].find(pat) {
        let abs = start + idx;
        let before_ok = abs == 0 || !is_ident_byte(hay.as_bytes()[abs - 1]);
        let end = abs + pat.len();
        let after_ok = end >= hay.len() || !is_ident_byte(hay.as_bytes()[end]);
        if before_ok && after_ok {
            n += 1;
        }
        start = abs + 1;
    }
    n
}

// ---------------------------------------------------------------------------
// Allow annotations

struct Allow {
    line: usize, // 0-indexed
    rule: Rule,
    suppresses: bool,
    used: bool,
}

const MARKER: &str = "tdx-lint:";

fn parse_allows(path: &str, comments: &[String]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (li, text) in comments.iter().enumerate() {
        // Doc comments (`///`, `//!`) never carry live annotations — their
        // collected text starts with the third slash or the bang — so the
        // rulebook can quote annotation examples without tripping itself.
        if matches!(
            text.trim_start().as_bytes().first(),
            Some(b'/') | Some(b'!')
        ) {
            continue;
        }
        let Some(at) = text.find(MARKER) else {
            continue;
        };
        let mut bad = |message: String| {
            findings.push(Finding {
                path: path.to_owned(),
                line: li + 1,
                rule: Rule::Annotation,
                message,
            });
        };
        let rest = text[at + MARKER.len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            bad(format!(
                "malformed annotation: expected `{MARKER} allow(<rule>): <reason>`"
            ));
            continue;
        };
        let Some(close) = inner.find(')') else {
            bad("malformed annotation: unclosed `allow(`".to_owned());
            continue;
        };
        let id = inner[..close].trim();
        let Some(rule) = Rule::from_id(id) else {
            bad(format!("unknown rule `{id}` in allow annotation"));
            continue;
        };
        let tail = inner[close + 1..].trim_start();
        let reason_ok = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            bad(format!(
                "allow({id}) carries no justification: write `allow({id}): <reason>`"
            ));
        }
        allows.push(Allow {
            line: li,
            rule,
            suppresses: reason_ok,
            used: false,
        });
    }
    (allows, findings)
}

// ---------------------------------------------------------------------------
// The line rules

const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now", "UNIX_EPOCH"];
const RNG_PATTERNS: &[&str] = &["thread_rng", "from_entropy", "rand::random", "OsRng"];
const HASH_COLLECTIONS: &[&str] = &["HashMap", "HashSet"];
const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// The files whose entire job is converting byte-level failure into typed
/// errors: panicking there turns one lost frame into a lost coordinator.
const FAULT_PATH_SUFFIXES: &[&str] = &[
    "chase/cluster/transport.rs",
    "chase/cluster/coordinator.rs",
    "chase/cluster/chaos.rs",
    "storage/src/wal.rs",
    "chase/durable.rs",
    // The concurrent read path: a panicking reader poisons the shared
    // query-service lock for every other reader and the writer.
    "query/plan.rs",
    "query/compiled.rs",
    "query/cache.rs",
    "storage/src/snapshot.rs",
    // The `.facts` scanner: every byte it reads is untrusted file text.
    "logic/src/facts.rs",
];

/// Whether `path` is one of the panic-free fault-path files.
pub fn is_fault_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    FAULT_PATH_SUFFIXES.iter().any(|s| p.ends_with(s))
}

/// A panicking slice-index heuristic: an index expression whose bracket
/// content contains a range (`..`) or additive arithmetic — the shape of
/// wire-data-driven offsets like `bytes[pos..pos + 4]`. Loop-bounded
/// plain indexes (`slots[s]`) pass; `docs/static-analysis.md` documents
/// the trade-off.
fn has_risky_index(line: &str) -> bool {
    let b = line.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != b'[' {
            i += 1;
            continue;
        }
        // Indexing needs a completed expression before the bracket.
        let before = b[..i].iter().rev().find(|c| !c.is_ascii_whitespace());
        let indexes = matches!(before, Some(&c) if is_ident_byte(c) || c == b')' || c == b']');
        let mut depth = 1i64;
        let mut j = i + 1;
        while j < b.len() && depth > 0 {
            match b[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let content = &line[i + 1..j.saturating_sub(1).max(i + 1)];
        if indexes && depth == 0 {
            let trimmed = content.trim();
            let full_slice = trimmed == ".." || trimmed.is_empty();
            if !full_slice
                && (content.contains("..") || content.contains('+') || content.contains(" - "))
            {
                return true;
            }
        }
        i = j.max(i + 1);
    }
    false
}

/// Scans one file's source. `path` decides whether the fault-path rules
/// (`panic`, `index`) arm — see [`is_fault_path`].
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    scan_source_with(path, src, is_fault_path(path))
}

/// [`scan_source`] with the fault-path rules armed explicitly (the CLI's
/// `--fault-path`, and fixtures that live outside the real fault files).
pub fn scan_source_with(path: &str, src: &str, fault_path: bool) -> Vec<Finding> {
    let masked = mask_source(src);
    let (mut allows, mut findings) = parse_allows(path, &masked.comments);
    let mut raw: Vec<(usize, Rule, String)> = Vec::new();
    for (li, line) in masked.lines.iter().enumerate() {
        if masked.in_test[li] {
            continue;
        }
        if let Some(pat) = WALL_CLOCK_PATTERNS.iter().find(|p| has_token(line, p)) {
            raw.push((
                li,
                Rule::WallClock,
                format!("`{pat}` reads the wall clock; results must not depend on time"),
            ));
        }
        if let Some(pat) = RNG_PATTERNS.iter().find(|p| has_token(line, p)) {
            raw.push((
                li,
                Rule::Rng,
                format!("`{pat}` is unseeded randomness; use the seeded splitmix64 stream"),
            ));
        }
        let std_hash = (line.contains("collections::")
            && HASH_COLLECTIONS.iter().any(|p| has_token(line, p)))
            || has_token(line, "RandomState");
        if std_hash {
            raw.push((
                li,
                Rule::HashOrder,
                "std HashMap/HashSet iteration order is randomly seeded; \
                 import FxHashMap/BTreeMap instead"
                    .to_owned(),
            ));
        }
        if fault_path {
            if let Some(pat) = PANIC_PATTERNS.iter().find(|p| line.contains(*p)) {
                raw.push((
                    li,
                    Rule::Panic,
                    format!("`{pat}` in a fault path; return the typed error instead"),
                ));
            }
            if has_risky_index(line) {
                raw.push((
                    li,
                    Rule::Index,
                    "computed slice index in a fault path can panic on malformed \
                     input; use `get(..)`/`split_first_chunk`"
                        .to_owned(),
                ));
            }
        }
    }
    for (li, rule, message) in raw {
        // An annotation on the same line or the line directly above
        // suppresses exactly one finding of its rule.
        let allow = allows.iter_mut().find(|a| {
            a.rule == rule && a.suppresses && !a.used && (a.line == li || a.line + 1 == li)
        });
        if let Some(a) = allow {
            a.used = true;
            continue;
        }
        findings.push(Finding {
            path: path.to_owned(),
            line: li + 1,
            rule,
            message,
        });
    }
    for a in &allows {
        if a.suppresses && !a.used {
            findings.push(Finding {
                path: path.to_owned(),
                line: a.line + 1,
                rule: Rule::Annotation,
                message: format!(
                    "unused allow({}) annotation: it suppresses nothing on its own \
                     or the next line — delete it",
                    a.rule.id()
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

// ---------------------------------------------------------------------------
// Protocol exhaustiveness

/// The sources the protocol rule inspects. Paths are only used in the
/// findings; contents are supplied by the caller so fixtures can drive
/// the rule without a workspace.
pub struct ProtocolSources<'a> {
    /// `protocol.rs`: declares `Message`/`Response` and their `Wire` impls.
    pub protocol_path: &'a str,
    pub protocol: &'a str,
    /// `server.rs`: the partition-server frame handler.
    pub server_path: &'a str,
    pub server: &'a str,
    /// The chaos/fault-offset test matrix (searched raw, comments
    /// included: the matrix is a coverage table, not executable arms).
    pub matrix_path: &'a str,
    pub matrix: &'a str,
}

fn enum_variants(lines: &[String], name: &str) -> Option<Vec<(String, usize)>> {
    let decl = lines
        .iter()
        .position(|l| has_token(l, "enum") && has_token(l, name))?;
    let mut variants = Vec::new();
    let mut depth = 0i64;
    let mut opened = false;
    for (off, line) in lines[decl..].iter().enumerate() {
        let start_depth = depth;
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && start_depth == 1 {
            let t = line.trim_start();
            let ident: String = t
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                variants.push((ident, decl + off + 1));
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    Some(variants)
}

/// The brace-matched line range of the item whose header contains `marker`
/// as a whole token (so `impl Wire for Message` never matches a
/// `MessageKind` impl).
fn region(lines: &[String], marker: &str) -> Option<(usize, usize)> {
    let start = lines.iter().position(|l| {
        l.find(marker).is_some_and(|at| {
            let end = at + marker.len();
            end >= l.len() || !is_ident_byte(l.as_bytes()[end])
        })
    })?;
    let mut depth = 0i64;
    let mut opened = false;
    for (off, line) in lines[start..].iter().enumerate() {
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some((start, start + off));
        }
    }
    None
}

fn count_in(lines: &[String], range: (usize, usize), pat: &str) -> usize {
    lines[range.0..=range.1]
        .iter()
        .map(|l| count_token(l, pat))
        .sum()
}

/// Checks that every `Message`/`Response` variant has a `Wire` encode and
/// decode arm, a `server.rs` handler arm, and an entry in the fault
/// matrix. Findings anchor to the variant's declaration line.
pub fn check_protocol(s: &ProtocolSources<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let protocol = mask_source(s.protocol);
    let server = mask_source(s.server);
    let server_lines: Vec<String> = server
        .lines
        .iter()
        .enumerate()
        .filter(|(i, _)| !server.in_test[*i])
        .map(|(_, l)| l.clone())
        .collect();
    for enum_name in ["Message", "Response"] {
        let Some(variants) = enum_variants(&protocol.lines, enum_name) else {
            findings.push(Finding {
                path: s.protocol_path.to_owned(),
                line: 1,
                rule: Rule::Protocol,
                message: format!("enum `{enum_name}` not found"),
            });
            continue;
        };
        let wire = region(&protocol.lines, &format!("impl Wire for {enum_name}"));
        for (variant, line) in &variants {
            let qualified = format!("{enum_name}::{variant}");
            match wire {
                Some(r) if count_in(&protocol.lines, r, &qualified) >= 2 => {}
                Some(_) => findings.push(Finding {
                    path: s.protocol_path.to_owned(),
                    line: *line,
                    rule: Rule::Protocol,
                    message: format!(
                        "`{qualified}` needs both an encode and a decode arm in \
                         `impl Wire for {enum_name}`"
                    ),
                }),
                None => findings.push(Finding {
                    path: s.protocol_path.to_owned(),
                    line: *line,
                    rule: Rule::Protocol,
                    message: format!("no `impl Wire for {enum_name}` block found"),
                }),
            }
            if !server_lines.iter().any(|l| has_token(l, &qualified)) {
                findings.push(Finding {
                    path: s.server_path.to_owned(),
                    line: *line,
                    rule: Rule::Protocol,
                    message: format!(
                        "`{qualified}` is never matched or constructed in the \
                         server frame handler ({})",
                        s.server_path
                    ),
                });
            }
            if count_token(s.matrix, &qualified) == 0 {
                findings.push(Finding {
                    path: s.matrix_path.to_owned(),
                    line: *line,
                    rule: Rule::Protocol,
                    message: format!(
                        "`{qualified}` has no entry in the chaos/fault-offset test \
                         matrix ({}): route the frame through a fault sweep and \
                         list it in the coverage table",
                        s.matrix_path
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace driver

const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", ".git"];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`: `src/` and every
/// `crates/*/src/`, plus the protocol-exhaustiveness check over
/// `protocol.rs` / `server.rs` / `tests/equivalence.rs`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let msrc = member.join("src");
            if msrc.is_dir() {
                collect_rs(&msrc, &mut files)?;
            }
        }
    }
    let mut findings = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &src));
    }
    let protocol_path = "crates/core/src/chase/cluster/protocol.rs";
    let server_path = "crates/core/src/chase/cluster/server.rs";
    let matrix_path = "tests/equivalence.rs";
    let read = |p: &str| std::fs::read_to_string(root.join(p));
    if let (Ok(protocol), Ok(server), Ok(matrix)) =
        (read(protocol_path), read(server_path), read(matrix_path))
    {
        findings.extend(check_protocol(&ProtocolSources {
            protocol_path,
            protocol: &protocol,
            server_path,
            server: &server,
            matrix_path,
            matrix: &matrix,
        }));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let x = \"Instant::now\"; // Instant::now in a comment\nInstant::now();\n";
        let f = scan_source("a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn raw_strings_and_chars_are_masked() {
        let src = "let p = r#\"panic!(\"x\")\"#;\nlet c = 'a';\nlet lt: &'static str = \"s\";\n";
        assert!(scan_source("chase/cluster/chaos.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n";
        assert!(scan_source("a.rs", src).is_empty());
    }

    #[test]
    fn allow_on_same_or_previous_line_suppresses_once() {
        let src = "\
// tdx-lint: allow(wall-clock): deadline only
let t = Instant::now();
let u = Instant::now(); // tdx-lint: allow(wall-clock): deadline only
let v = Instant::now();
";
        let f = scan_source("a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn reasonless_and_unused_allows_are_findings() {
        let src = "// tdx-lint: allow(wall-clock)\nlet t = Instant::now();\n// tdx-lint: allow(rng): no rng here\nlet x = 1;\n";
        let f = scan_source("a.rs", src);
        let rules: Vec<Rule> = f.iter().map(|x| x.rule).collect();
        // Reasonless annotation: one annotation finding + the unsuppressed
        // wall-clock finding; plus one unused-allow finding.
        assert_eq!(
            rules,
            vec![Rule::Annotation, Rule::WallClock, Rule::Annotation],
            "{f:?}"
        );
    }

    #[test]
    fn fault_path_rules_only_arm_on_fault_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(scan_source("crates/core/src/exchange.rs", src).is_empty());
        let f = scan_source("crates/storage/src/wal.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Panic);
    }

    #[test]
    fn risky_index_heuristic() {
        assert!(has_risky_index("let x = bytes[pos..pos + 4];"));
        assert!(has_risky_index("let x = buf[i + 1];"));
        assert!(!has_risky_index("let x = slots[s];"));
        assert!(!has_risky_index("let x = &data[..];"));
        assert!(!has_risky_index("let a = [0u8; 4];"));
        assert!(!has_risky_index("#[cfg(feature = \"x\")]"));
    }

    #[test]
    fn fx_alias_is_not_flagged_without_std_path() {
        let src = "use tdx_storage::fxhash::FxHashMap;\nlet m: FxHashMap<u32, u32> = FxHashMap::default();\n";
        assert!(scan_source("a.rs", src).is_empty());
    }
}
