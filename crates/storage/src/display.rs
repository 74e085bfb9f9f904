//! Paper-style table rendering for instances.
//!
//! The experiment harness reproduces the paper's figures as text tables; the
//! formatting lives here so `Display` for [`TemporalInstance`] and the bench
//! crate agree on the layout.

use crate::temporal_instance::TemporalInstance;
use crate::value::Value;
// tdx-lint: allow(hash-order): value-to-id lookup, never iterated; values come from input files, so keep the keyed default hasher
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io;
use tdx_logic::RelId;

/// Renders an aligned text table.
///
/// ```text
/// E+
///  Name | Company | Time
///  Ada  | IBM     | [2012, 2014)
/// ```
pub fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let chars =
        |cells: &[String]| -> Vec<usize> { cells.iter().map(|c| c.chars().count()).collect() };
    let mut widths = chars(headers);
    let row_chars: Vec<Vec<usize>> = rows.iter().map(|r| chars(r)).collect();
    for counts in &row_chars {
        for (w, &n) in widths.iter_mut().zip(counts) {
            *w = (*w).max(n);
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    push_row(&mut out, pair(headers, &chars(headers)), &widths);
    for (row, counts) in rows.iter().zip(&row_chars) {
        push_row(&mut out, pair(row, counts), &widths);
    }
    out
}

fn pair<'a>(
    cells: &'a [String],
    chars: &'a [usize],
) -> impl Iterator<Item = (&'a str, usize)> + 'a {
    cells.iter().map(String::as_str).zip(chars.iter().copied())
}

/// Appends one table row: a space, then the cells separated by ` | `, each
/// but the last padded with spaces to its column's width. A cell comes with
/// its length in chars, which is its width in columns (`∞` is three bytes
/// and one column).
fn push_row<'a>(
    out: &mut String,
    cells: impl IntoIterator<Item = (&'a str, usize)>,
    widths: &[usize],
) {
    const SPACES: &str = "                                ";
    out.push(' ');
    for (i, (cell, chars)) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        out.push_str(cell);
        if i + 1 < widths.len() {
            let mut pad = widths.get(i).map_or(0, |w| w.saturating_sub(chars));
            while pad > 0 {
                let n = pad.min(SPACES.len());
                out.push_str(&SPACES[..n]);
                pad -= n;
            }
        }
    }
    out.push('\n');
}

/// Renders one relation of a temporal instance as a paper-style table (see
/// [`write_temporal_relation`]).
pub fn render_temporal_relation(instance: &TemporalInstance, rel: RelId) -> String {
    let mut out = String::new();
    write_temporal_relation(&mut out, instance, rel);
    out
}

/// Appends one relation of a temporal instance to `out` as a paper-style
/// table. Rows are sorted for reproducibility: by the text of their data
/// values, column by column, then by interval; rows equal in both keep
/// their order in the instance.
pub fn write_temporal_relation(out: &mut String, instance: &TemporalInstance, rel: RelId) {
    let rs = instance.schema().relation(rel);
    let facts = instance.facts(rel);
    let arity = rs.arity();
    // Each distinct value is rendered once into `arena`; a cell is the id
    // of its value's text. The values come from input files, so the map
    // keeps std's keyed hasher: crafted integers cannot make it collide.
    let mut arena = String::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut ids: HashMap<Value, u32> = HashMap::new();
    let mut cells: Vec<u32> = Vec::with_capacity(facts.len() * arity);
    for f in facts {
        for v in f.data.iter() {
            let next = spans.len() as u32;
            cells.push(*ids.entry(*v).or_insert_with(|| {
                let start = arena.len();
                let _ = write!(arena, "{v}");
                spans.push((start, arena.len()));
                next
            }));
        }
    }
    let text = |id: u32| {
        let (s, e) = spans[id as usize];
        &arena[s..e]
    };
    // Rank the texts: equal texts (an integer and a string that print
    // alike) share a rank, so rank order is exactly text order.
    let mut by_text: Vec<u32> = (0..spans.len() as u32).collect();
    by_text.sort_unstable_by(|&a, &b| text(a).cmp(text(b)));
    let mut rank = vec![0u32; spans.len()];
    for pair in by_text.windows(2) {
        let step = u32::from(text(pair[0]) != text(pair[1]));
        rank[pair[1] as usize] = rank[pair[0] as usize] + step;
    }
    let ranked: Vec<u32> = cells.iter().map(|&c| rank[c as usize]).collect();
    let key = |i: usize| &ranked[i * arity..(i + 1) * arity];
    let mut rows: Vec<usize> = (0..facts.len()).collect();
    rows.sort_unstable_by(|&a, &b| {
        key(a)
            .cmp(key(b))
            .then(facts[a].interval.cmp(&facts[b].interval))
            .then(a.cmp(&b))
    });

    let chars: Vec<usize> = (0..spans.len() as u32)
        .map(|id| text(id).chars().count())
        .collect();
    let headers: Vec<String> = rs
        .attrs()
        .iter()
        .map(|a| cap(a.as_str()))
        .chain(std::iter::once("Time".to_owned()))
        .collect();
    let header_chars: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    let mut widths = header_chars.clone();
    for (i, &c) in cells.iter().enumerate() {
        let w = &mut widths[i % arity];
        *w = (*w).max(chars[c as usize]);
    }
    let _ = writeln!(out, "{}+", rs.name());
    push_row(out, pair(&headers, &header_chars), &widths);
    let mut interval = String::new();
    for i in rows {
        interval.clear();
        let _ = write!(interval, "{}", facts[i].interval);
        let data = cells[i * arity..(i + 1) * arity]
            .iter()
            .map(|&c| (text(c), chars[c as usize]));
        push_row(
            out,
            data.chain(std::iter::once((interval.as_str(), 0))),
            &widths,
        );
    }
}

/// Renders every non-empty relation of `instance` back to back into one
/// buffer and writes it to `w` in one call (the `tdx` output layout).
pub fn write_instance(w: &mut impl io::Write, instance: &TemporalInstance) -> io::Result<()> {
    w.write_all(render_instance(instance, "").as_bytes())
}

/// Every non-empty relation's table, in schema order; each one but
/// relation 0 is preceded by `separator`.
fn render_instance(instance: &TemporalInstance, separator: &str) -> String {
    let mut out = String::new();
    for i in 0..instance.schema().len() {
        let rel = RelId(i as u32);
        if instance.len(rel) == 0 {
            continue;
        }
        if i > 0 {
            out.push_str(separator);
        }
        write_temporal_relation(&mut out, instance, rel);
    }
    out
}

fn cap(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// The `Display` layout: relations separated by blank lines.
pub(crate) fn fmt_temporal_instance(
    instance: &TemporalInstance,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    f.write_str(&render_instance(instance, "\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdx_logic::{RelationSchema, Schema};
    use tdx_temporal::Interval;

    #[test]
    fn renders_aligned_table() {
        let t = render_table(
            "E+",
            &["Name".into(), "Company".into(), "Time".into()],
            &[
                vec!["Ada".into(), "IBM".into(), "[2012, 2014)".into()],
                vec!["Ada".into(), "Google".into(), "[2014, ∞)".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "E+");
        assert_eq!(lines[1], " Name | Company | Time");
        assert_eq!(lines[2], " Ada  | IBM     | [2012, 2014)");
        assert_eq!(lines[3], " Ada  | Google  | [2014, ∞)");
    }

    #[test]
    fn renders_temporal_relation_sorted() {
        let schema =
            Arc::new(Schema::new(vec![RelationSchema::new("E", &["name", "company"])]).unwrap());
        let mut i = TemporalInstance::new(schema);
        i.insert_strs("E", &["Bob", "IBM"], Interval::new(2013, 2018));
        i.insert_strs("E", &["Ada", "IBM"], Interval::new(2012, 2014));
        let out = render_temporal_relation(&i, RelId(0));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "E+");
        assert!(lines[1].starts_with(" Name | Company"));
        assert!(lines[2].contains("Ada"));
        assert!(lines[3].contains("Bob"));
    }

    #[test]
    fn multibyte_cells_align_by_chars() {
        let schema =
            Arc::new(Schema::new(vec![RelationSchema::new("E", &["name", "city"])]).unwrap());
        let mut i = TemporalInstance::new(schema);
        i.insert_strs("E", &["Zoë", "Zürich AG"], Interval::from(3));
        i.insert_strs("E", &["Al", "Bern"], Interval::new(1, 2));
        let out = render_temporal_relation(&i, RelId(0));
        assert_eq!(
            out,
            "E+\n \
             Name | City      | Time\n \
             Al   | Bern      | [1, 2)\n \
             Zoë  | Zürich AG | [3, ∞)\n"
        );
    }

    /// The layout as first written: one `String` per cell, rows sorted by
    /// their data cells' text, then by interval.
    fn render_by_strings(instance: &TemporalInstance, rel: RelId) -> String {
        let rs = instance.schema().relation(rel);
        let mut headers: Vec<String> = rs.attrs().iter().map(|a| cap(a.as_str())).collect();
        headers.push("Time".to_owned());
        let mut rows: Vec<(Interval, Vec<String>)> = instance
            .facts(rel)
            .iter()
            .map(|f| {
                let mut cells: Vec<String> = f.data.iter().map(|v| v.to_string()).collect();
                cells.push(f.interval.to_string());
                (f.interval, cells)
            })
            .collect();
        rows.sort_by(|a, b| {
            let ka = (&a.1[..a.1.len() - 1], a.0);
            let kb = (&b.1[..b.1.len() - 1], b.0);
            ka.cmp(&kb)
        });
        let cells: Vec<Vec<String>> = rows.into_iter().map(|(_, r)| r).collect();
        render_table(&format!("{}+", rs.name()), &headers, &cells)
    }

    #[test]
    fn rank_sort_matches_sorting_by_cell_strings() {
        use crate::value::NullId;
        // Integers, strings that print like them, nulls and multibyte text,
        // with duplicates in every column and interval ties.
        let pool = [
            Value::int(10),
            Value::int(9),
            Value::str("10"),
            Value::str("9"),
            Value::str("N1"),
            Value::Null(NullId(1)),
            Value::Null(NullId(12)),
            Value::str("Zürich"),
            Value::str("Zz"),
            Value::str(""),
        ];
        let schema = Arc::new(
            Schema::new(vec![
                RelationSchema::new("R", &["a", "b"]),
                RelationSchema::new("Z", &[]),
            ])
            .unwrap(),
        );
        let mut x = 7u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut inst = TemporalInstance::new(schema);
        for _ in 0..400 {
            let (a, b) = (pool[next(10) as usize], pool[next(10) as usize]);
            let s = next(6);
            let iv = if next(4) == 0 {
                Interval::from(s)
            } else {
                Interval::new(s, s + 1 + next(3))
            };
            inst.insert(RelId(0), crate::value::row([a, b]), iv);
            inst.insert(RelId(1), crate::value::row([]), iv);
        }
        for rel in [RelId(0), RelId(1)] {
            assert_eq!(
                render_temporal_relation(&inst, rel),
                render_by_strings(&inst, rel)
            );
        }
        // Display separates relations with a blank line; the CLI layout
        // does not.
        let mut cli = Vec::new();
        write_instance(&mut cli, &inst).unwrap();
        let (r, z) = (
            render_temporal_relation(&inst, RelId(0)),
            render_temporal_relation(&inst, RelId(1)),
        );
        assert_eq!(String::from_utf8(cli).unwrap(), format!("{r}{z}"));
        assert_eq!(inst.to_string(), format!("{r}\n{z}"));
    }
}
