//! The indexed fact store backing concrete temporal instances.
//!
//! [`FactStore`] is the storage engine the whole system sits on. Per
//! relation it maintains, **eagerly and incrementally**:
//!
//! * the fact list (dense `u32` ids in insertion order) plus a hash set for
//!   exact-duplicate rejection;
//! * one value index per column (`Value → ids`), replacing the old
//!   lazily-synced `ColIndex` — updates ride along with every insert, so
//!   readers never pay a sync check and need no interior mutability;
//! * an interval-endpoint index
//!   ([`IntervalIndex`](tdx_temporal::IntervalIndex)) answering *exact*
//!   probes (the shared chase variable `t`), *overlap* probes (Algorithm 1's
//!   candidate-set condition) and incremental endpoint enumeration;
//! * a **generation log**: [`FactStore::mark`] seals the current contents
//!   and returns a [`Generation`] token; `delta_start`/`facts_since` then
//!   answer "which facts were added since?" — the primitive watermark
//!   snapshot reads are built on.
//!
//! Insertion ids are stable and monotone, so a generation is just a
//! per-relation watermark and a delta is a contiguous id range.
//!
//! Two insert paths fill the same indexes. [`FactStore::insert`] absorbs
//! the interval index's unsorted tail with an amortized rebuild whenever
//! the tail outgrows `64 + built/8`, which keeps interleaved insert and
//! probe (the chase's tgd phase) near-linear. Building a whole n-fact
//! relation that way still re-sorts about 7–8n entries in total and
//! allocates a fresh tree some 24–30 times for 9k–18k facts.
//! [`FactStore::extend`] bulk-loads a slice and rebuilds the tree once at
//! the end; the whole-instance builders (the parser, normalization output,
//! the session's materialized target) use it.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::temporal_instance::TemporalFact;
use crate::value::{Row, Value};
use std::sync::Arc;
use tdx_logic::{RelId, Schema, Symbol};
use tdx_temporal::{Breakpoints, Interval, IntervalIndex};

/// A sealed point in a store's history, produced by [`FactStore::mark`].
/// Facts inserted after the mark form the generation's *delta*.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Generation(pub u32);

#[derive(Clone)]
struct RelStore {
    facts: Vec<TemporalFact>,
    set: FxHashSet<(Row, Interval)>,
    /// One eager value index per column.
    cols: Vec<FxHashMap<Value, Vec<u32>>>,
    /// Eager exact-interval index (`O(1)` per insert); exact probes are on
    /// the chase's insert-probe-insert hot path, where rebuilding a sorted
    /// structure would be quadratic.
    exact: FxHashMap<Interval, Vec<u32>>,
    /// Interval-endpoint index for overlap probes and endpoint enumeration.
    /// Appends are eager and the tree rebuild happens at insert time,
    /// amortized per `insert` or once per `extend` (both already take
    /// `&mut self`), so every probe is `&self`
    /// and the store is `Sync` — worker threads of the partitioned chase
    /// share shards without locks.
    ivs: IntervalIndex,
}

impl RelStore {
    fn new(arity: usize) -> RelStore {
        RelStore {
            facts: Vec::new(),
            set: FxHashSet::default(),
            cols: (0..arity).map(|_| FxHashMap::default()).collect(),
            exact: FxHashMap::default(),
            ivs: IntervalIndex::new(),
        }
    }

    /// Appends a fact to the list and every index except the interval
    /// tree's rebuild, which the caller schedules; `false` (and no change)
    /// if the exact fact is already present.
    fn push(&mut self, data: Row, interval: Interval) -> bool {
        if !self.set.insert((Arc::clone(&data), interval)) {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "a 2^32nd fact is a capacity invariant, not a recoverable fault"
        )]
        let id = u32::try_from(self.facts.len()).expect("fact id overflow");
        for (col, index) in self.cols.iter_mut().enumerate() {
            index.entry(data[col]).or_default().push(id);
        }
        self.exact.entry(interval).or_default().push(id);
        self.ivs.push(interval);
        self.facts.push(TemporalFact { data, interval });
        true
    }
}

fn assert_arity(schema: &Schema, rel: RelId, data: &Row) {
    assert_eq!(
        data.len(),
        schema.relation(rel).arity(),
        "arity mismatch inserting into {}",
        schema.relation(rel).name()
    );
}

/// An indexed, generation-logged store of temporal facts over a schema.
/// Cloning preserves everything, including the generation log — previously
/// issued [`Generation`] tokens stay valid on the clone.
#[derive(Clone)]
pub struct FactStore {
    schema: Arc<Schema>,
    rels: Vec<RelStore>,
    /// `marks[g][rel]` = number of facts in `rel` when generation `g` was
    /// sealed.
    marks: Vec<Vec<u32>>,
}

impl FactStore {
    /// An empty store over `schema`.
    pub fn new(schema: Arc<Schema>) -> FactStore {
        let rels = (0..schema.len())
            .map(|i| RelStore::new(schema.relation(RelId(i as u32)).arity()))
            .collect();
        FactStore {
            schema,
            rels,
            marks: Vec::new(),
        }
    }

    /// The store's (data) schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Inserts a fact, updating every index; returns `false` if the exact
    /// fact (same data, same interval) was already present.
    pub fn insert(&mut self, rel: RelId, data: Row, interval: Interval) -> bool {
        assert_arity(&self.schema, rel, &data);
        let rd = &mut self.rels[rel.0 as usize];
        let added = rd.push(data, interval);
        // Absorb the unsorted tail while we hold `&mut self`; probes then
        // never need interior mutability (see the `ivs` field note).
        rd.ivs.ensure_built();
        added
    }

    /// Bulk-inserts `facts` into `rel`: the same store as inserting them
    /// one by one (first occurrence wins, ids in slice order), but the
    /// interval tree is rebuilt once at the end instead of amortized per
    /// insert. Returns the number of facts actually added.
    pub fn extend(&mut self, rel: RelId, facts: &[TemporalFact]) -> usize {
        let rd = &mut self.rels[rel.0 as usize];
        rd.facts.reserve(facts.len());
        rd.set.reserve(facts.len());
        let mut added = 0;
        for fact in facts {
            assert_arity(&self.schema, rel, &fact.data);
            added += usize::from(rd.push(Arc::clone(&fact.data), fact.interval));
        }
        rd.ivs.rebuild();
        added
    }

    /// Inserts by relation name. Panics on an unknown relation.
    pub fn insert_values<I: IntoIterator<Item = Value>>(
        &mut self,
        rel: &str,
        vals: I,
        interval: Interval,
    ) -> bool {
        let id = self
            .schema
            .rel_id(Symbol::intern(rel))
            .unwrap_or_else(|| panic!("unknown relation {rel}"));
        self.insert(id, vals.into_iter().collect(), interval)
    }

    /// Whether the exact fact is present.
    pub fn contains(&self, rel: RelId, data: &Row, interval: Interval) -> bool {
        self.rels[rel.0 as usize]
            .set
            .contains(&(Arc::clone(data), interval))
    }

    /// The facts of one relation, in insertion order (ids are positions).
    pub fn facts(&self, rel: RelId) -> &[TemporalFact] {
        &self.rels[rel.0 as usize].facts
    }

    /// Number of facts in one relation.
    pub fn len(&self, rel: RelId) -> usize {
        self.rels[rel.0 as usize].facts.len()
    }

    /// Total number of facts.
    pub fn total_len(&self) -> usize {
        self.rels.iter().map(|r| r.facts.len()).sum()
    }

    /// Whether the whole store is empty.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Iterates `(rel, fact)` over the whole store.
    pub fn iter_all(&self) -> impl Iterator<Item = (RelId, &TemporalFact)> {
        self.rels
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.facts.iter().map(move |fact| (RelId(i as u32), fact)))
    }

    // ---- generation log ----------------------------------------------

    /// Seals the current contents as a generation. Facts inserted after this
    /// call are the generation's delta.
    pub fn mark(&mut self) -> Generation {
        let lens: Vec<u32> = self.rels.iter().map(|r| r.facts.len() as u32).collect();
        self.marks.push(lens);
        Generation((self.marks.len() - 1) as u32)
    }

    /// The first fact id of `rel` added after `gen` was sealed.
    pub fn delta_start(&self, rel: RelId, gen: Generation) -> u32 {
        self.marks[gen.0 as usize][rel.0 as usize]
    }

    /// The facts of `rel` added since `gen` was sealed.
    pub fn facts_since(&self, rel: RelId, gen: Generation) -> &[TemporalFact] {
        let start = self.delta_start(rel, gen) as usize;
        &self.rels[rel.0 as usize].facts[start..]
    }

    /// Whether any relation gained facts since `gen` was sealed.
    pub fn has_delta_since(&self, gen: Generation) -> bool {
        (0..self.rels.len()).any(|i| {
            let rel = RelId(i as u32);
            self.delta_start(rel, gen) < self.len(rel) as u32
        })
    }

    // ---- value-index probes ------------------------------------------

    /// Number of facts with value `v` in column `col`.
    pub fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        self.rels[rel.0 as usize].cols[col]
            .get(v)
            .map_or(0, |ids| ids.len())
    }

    /// Visits fact ids with `col = v`; `f` returns `false` to stop. Returns
    /// `false` if stopped early.
    pub fn for_col(
        &self,
        rel: RelId,
        col: usize,
        v: &Value,
        f: &mut dyn FnMut(u32) -> bool,
    ) -> bool {
        if let Some(ids) = self.rels[rel.0 as usize].cols[col].get(v) {
            for &id in ids {
                if !f(id) {
                    return false;
                }
            }
        }
        true
    }

    // ---- interval-index probes ---------------------------------------

    fn overlap_ids(&self, rel: RelId, iv: &Interval) -> Vec<u32> {
        let mut ids = Vec::new();
        self.rels[rel.0 as usize]
            .ivs
            .visit_overlapping(iv, &mut |id| ids.push(id));
        ids
    }

    /// Number of facts whose interval equals `iv`.
    pub fn exact_count(&self, rel: RelId, iv: &Interval) -> usize {
        self.rels[rel.0 as usize]
            .exact
            .get(iv)
            .map_or(0, |ids| ids.len())
    }

    /// Visits fact ids whose interval equals `iv`; `f` returns `false` to
    /// stop. Returns `false` if stopped early.
    pub fn for_exact(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        if let Some(ids) = self.rels[rel.0 as usize].exact.get(iv) {
            for &id in ids {
                if !f(id) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of facts whose interval overlaps `iv`.
    pub fn overlap_count(&self, rel: RelId, iv: &Interval) -> usize {
        self.rels[rel.0 as usize].ivs.count_overlapping(iv)
    }

    /// Visits fact ids whose interval overlaps `iv`; `f` returns `false` to
    /// stop. Returns `false` if stopped early.
    pub fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        for id in self.overlap_ids(rel, iv) {
            if !f(id) {
                return false;
            }
        }
        true
    }

    /// All distinct start/end points across the store, read from the
    /// incrementally maintained per-relation endpoint sets (no fact scan).
    pub fn endpoints(&self) -> Breakpoints {
        Breakpoints::from_points(self.rels.iter().flat_map(|r| r.ivs.endpoints()))
    }

    /// Distinct start/end points of one relation.
    pub fn endpoints_of(&self, rel: RelId) -> Breakpoints {
        Breakpoints::from_points(self.rels[rel.0 as usize].ivs.endpoints())
    }

    /// Set equality of contents (used by `TemporalInstance`'s `PartialEq`).
    pub fn same_facts(&self, other: &FactStore) -> bool {
        self.rels
            .iter()
            .zip(&other.rels)
            .all(|(a, b)| a.set == b.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;
    use tdx_logic::RelationSchema;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn store() -> FactStore {
        FactStore::new(Arc::new(
            Schema::new(vec![
                RelationSchema::new("E", &["name", "company"]),
                RelationSchema::new("S", &["name", "salary"]),
            ])
            .unwrap(),
        ))
    }

    #[test]
    fn eager_column_index_tracks_inserts() {
        let mut s = store();
        s.insert_values("E", [Value::str("Ada"), Value::str("IBM")], iv(0, 5));
        s.insert_values("E", [Value::str("Bob"), Value::str("IBM")], iv(1, 6));
        let e = RelId(0);
        assert_eq!(s.col_count(e, 1, &Value::str("IBM")), 2);
        s.insert_values("E", [Value::str("Cyd"), Value::str("IBM")], iv(2, 7));
        assert_eq!(s.col_count(e, 1, &Value::str("IBM")), 3);
        assert_eq!(s.col_count(e, 0, &Value::str("Ada")), 1);
        let mut seen = Vec::new();
        s.for_col(e, 1, &Value::str("IBM"), &mut |id| {
            seen.push(id);
            true
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn generation_log_exposes_deltas() {
        let mut s = store();
        s.insert_values("E", [Value::str("Ada"), Value::str("IBM")], iv(0, 5));
        let g0 = s.mark();
        assert!(!s.has_delta_since(g0));
        s.insert_values("E", [Value::str("Bob"), Value::str("IBM")], iv(1, 6));
        s.insert_values("S", [Value::str("Bob"), Value::str("13k")], iv(1, 6));
        assert!(s.has_delta_since(g0));
        let e = RelId(0);
        assert_eq!(s.delta_start(e, g0), 1);
        let delta: Vec<String> = s
            .facts_since(e, g0)
            .iter()
            .map(|f| f.data[0].to_string())
            .collect();
        assert_eq!(delta, vec!["Bob"]);
        let g1 = s.mark();
        assert!(!s.has_delta_since(g1));
        // Earlier marks keep their watermarks.
        assert_eq!(s.delta_start(e, g0), 1);
        assert_eq!(s.delta_start(e, g1), 2);
    }

    #[test]
    fn interval_probes() {
        let mut s = store();
        s.insert_values("E", [Value::str("Ada"), Value::str("IBM")], iv(0, 5));
        s.insert_values("E", [Value::str("Ada"), Value::str("IBM")], iv(5, 9));
        s.insert_values("E", [Value::str("Bob"), Value::str("IBM")], iv(3, 6));
        let e = RelId(0);
        assert_eq!(s.exact_count(e, &iv(0, 5)), 1);
        assert_eq!(s.exact_count(e, &iv(0, 6)), 0);
        assert_eq!(s.overlap_count(e, &iv(4, 6)), 3);
        let mut hits = Vec::new();
        s.for_overlap(e, &iv(8, 20), &mut |id| {
            hits.push(id);
            true
        });
        assert_eq!(hits, vec![1]);
        assert_eq!(s.endpoints().points(), &[0, 3, 5, 6, 9]);
        assert_eq!(s.endpoints_of(RelId(1)).points(), &[] as &[u64]);
    }

    #[test]
    fn clone_preserves_generation_log() {
        let mut s = store();
        s.insert_values("E", [Value::str("Ada"), Value::str("IBM")], iv(0, 5));
        let g = s.mark();
        s.insert_values("E", [Value::str("Bob"), Value::str("IBM")], iv(1, 6));
        let c = s.clone();
        assert!(c.has_delta_since(g));
        assert_eq!(c.delta_start(RelId(0), g), 1);
        assert_eq!(c.facts_since(RelId(0), g).len(), 1);
        assert!(c.same_facts(&s));
    }

    #[test]
    fn dedup_and_contains() {
        let mut s = store();
        assert!(s.insert(
            RelId(0),
            row([Value::str("Ada"), Value::str("IBM")]),
            iv(0, 5)
        ));
        assert!(!s.insert(
            RelId(0),
            row([Value::str("Ada"), Value::str("IBM")]),
            iv(0, 5)
        ));
        assert!(s.contains(
            RelId(0),
            &row([Value::str("Ada"), Value::str("IBM")]),
            iv(0, 5)
        ));
        assert_eq!(s.total_len(), 1);
        let t = s.clone();
        assert!(s.same_facts(&t));
    }
}
