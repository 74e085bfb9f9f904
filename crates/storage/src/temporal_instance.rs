//! Concrete temporal instances.
//!
//! A [`TemporalInstance`] stores facts of the concrete schema `R⁺`: every
//! tuple carries a time interval (paper Section 2). Nulls inside the tuple
//! are interval-annotated implicitly — the annotation is the fact's interval.
//!
//! Storage, indexing and the generation log live in [`FactStore`]; this type
//! layers the paper-level operations on top (snapshots, coalescing,
//! value rewriting, semantic equality).

use crate::fact_store::{FactStore, Generation};
use crate::value::{NullId, Row, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use tdx_logic::{RelId, Schema};
use tdx_temporal::{coalesce_intervals, Breakpoints, Interval, TimePoint};

use crate::instance::Instance;

/// One concrete fact: data attribute values plus the temporal attribute.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TemporalFact {
    /// The data attribute values (`f[D]` in the paper).
    pub data: Row,
    /// The time interval (`f[T]` in the paper).
    pub interval: Interval,
}

impl fmt::Display for TemporalFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vals: Vec<String> = self.data.iter().map(|v| v.to_string()).collect();
        write!(f, "({}, {})", vals.join(", "), self.interval)
    }
}

impl fmt::Debug for TemporalFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A concrete temporal database instance over the implicit schema `R⁺`,
/// backed by an indexed [`FactStore`].
#[derive(Clone)]
pub struct TemporalInstance {
    store: FactStore,
}

impl TemporalInstance {
    /// An empty instance over `schema` (data attributes only; the temporal
    /// attribute is implicit).
    pub fn new(schema: Arc<Schema>) -> TemporalInstance {
        TemporalInstance {
            store: FactStore::new(schema),
        }
    }

    /// An empty instance over an owned schema.
    pub fn with_schema(schema: Schema) -> TemporalInstance {
        TemporalInstance::new(Arc::new(schema))
    }

    /// The instance's (data) schema.
    pub fn schema(&self) -> &Schema {
        self.store.schema()
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        self.store.schema_arc()
    }

    /// The backing fact store (indexes, generation log).
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Mutable access to the backing fact store.
    pub fn store_mut(&mut self) -> &mut FactStore {
        &mut self.store
    }

    /// Inserts a fact; returns `false` if the identical fact (same data and
    /// same interval) was already present.
    pub fn insert(&mut self, rel: RelId, data: Row, interval: Interval) -> bool {
        self.store.insert(rel, data, interval)
    }

    /// Bulk-inserts facts into one relation with a single interval-index
    /// rebuild (see [`FactStore::extend`]); returns how many were new.
    pub fn extend(&mut self, rel: RelId, facts: &[TemporalFact]) -> usize {
        self.store.extend(rel, facts)
    }

    /// Inserts by relation name. Panics on an unknown relation.
    pub fn insert_values<I: IntoIterator<Item = Value>>(
        &mut self,
        rel: &str,
        vals: I,
        interval: Interval,
    ) -> bool {
        self.store.insert_values(rel, vals, interval)
    }

    /// Convenience for string-constant facts: `insert_strs("E", &["Ada", "IBM"], iv)`.
    pub fn insert_strs(&mut self, rel: &str, vals: &[&str], interval: Interval) -> bool {
        self.insert_values(rel, vals.iter().map(|s| Value::str(s)), interval)
    }

    /// Whether the exact fact is present.
    pub fn contains(&self, rel: RelId, data: &Row, interval: Interval) -> bool {
        self.store.contains(rel, data, interval)
    }

    /// The facts of one relation, in insertion order.
    pub fn facts(&self, rel: RelId) -> &[TemporalFact] {
        self.store.facts(rel)
    }

    /// Number of facts in one relation.
    pub fn len(&self, rel: RelId) -> usize {
        self.store.len(rel)
    }

    /// Total number of facts.
    pub fn total_len(&self) -> usize {
        self.store.total_len()
    }

    /// Whether the whole instance is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Iterates `(rel, fact)` over the whole instance.
    pub fn iter_all(&self) -> impl Iterator<Item = (RelId, &TemporalFact)> {
        self.store.iter_all()
    }

    /// Seals the current contents as a generation (see
    /// [`FactStore::mark`]). Facts inserted afterwards form the delta that
    /// [`TemporalInstance::facts_since`] returns; a
    /// [`StoreSnapshot`](crate::snapshot::StoreSnapshot) reads at such a
    /// watermark.
    pub fn mark_generation(&mut self) -> Generation {
        self.store.mark()
    }

    /// The facts of `rel` added since `gen` was sealed.
    pub fn facts_since(&self, rel: RelId, gen: Generation) -> &[TemporalFact] {
        self.store.facts_since(rel, gen)
    }

    /// Whether any relation gained facts since `gen` was sealed.
    pub fn has_delta_since(&self, gen: Generation) -> bool {
        self.store.has_delta_since(gen)
    }

    /// The set of null bases occurring anywhere in the instance.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        let mut out = BTreeSet::new();
        for (_, fact) in self.iter_all() {
            for v in fact.data.iter() {
                if let Value::Null(n) = v {
                    out.insert(*n);
                }
            }
        }
        out
    }

    /// Whether the instance contains no nulls (is *complete*).
    pub fn is_complete(&self) -> bool {
        self.iter_all()
            .all(|(_, f)| f.data.iter().all(|v| !v.is_null()))
    }

    /// All distinct start/end points of the instance's facts, read from the
    /// store's incrementally maintained endpoint sets.
    pub fn endpoints(&self) -> Breakpoints {
        self.store.endpoints()
    }

    /// The snapshot `db_ℓ` of the represented abstract instance at time `t`:
    /// all facts whose interval contains `t`, with their data values
    /// unchanged (a null base `N` stands for the labeled null `N_t`).
    pub fn project_at(&self, t: TimePoint) -> Instance {
        let mut out = Instance::new(self.schema_arc());
        for (rel, fact) in self.iter_all() {
            if fact.interval.contains(t) {
                out.insert(rel, Arc::clone(&fact.data));
            }
        }
        out
    }

    /// The coalesced form (paper Section 2): facts with identical data
    /// values get their intervals merged into maximal disjoint,
    /// non-adjacent intervals. Sound for nulls too, because fragments of one
    /// annotated null share their base and `⟦·⟧` only depends on
    /// (base, time point).
    pub fn coalesced(&self) -> TemporalInstance {
        let mut out = TemporalInstance::new(self.schema_arc());
        for r in 0..self.schema().len() {
            let rel = RelId(r as u32);
            let groups = coalesce_intervals(
                self.facts(rel)
                    .iter()
                    .map(|f| (Arc::clone(&f.data), f.interval)),
            );
            for (data, set) in groups {
                for iv in set.intervals() {
                    out.insert(rel, Arc::clone(&data), *iv);
                }
            }
        }
        out
    }

    /// Whether every relation is already coalesced.
    pub fn is_coalesced(&self) -> bool {
        (0..self.schema().len()).all(|r| {
            tdx_temporal::coalesce::is_coalesced(
                self.facts(RelId(r as u32))
                    .iter()
                    .map(|f| (Arc::clone(&f.data), f.interval)),
            )
        })
    }

    /// Semantic equality: do the two instances represent the same abstract
    /// instance? Compared on coalesced forms (null bases must match
    /// exactly; use the core crate's homomorphism tools for
    /// equivalence up to null renaming).
    pub fn eq_coalesced(&self, other: &TemporalInstance) -> bool {
        let a = self.coalesced();
        let b = other.coalesced();
        if a.schema() != b.schema() {
            return false;
        }
        a.store.same_facts(&b.store)
    }

    /// A new instance with every value mapped through `f`. The interval of
    /// each fact is preserved; facts that become identical are merged.
    pub fn map_values(&self, mut f: impl FnMut(&Value, Interval) -> Value) -> TemporalInstance {
        let mut out = TemporalInstance::new(self.schema_arc());
        for (rel, fact) in self.iter_all() {
            let new_data: Row = fact.data.iter().map(|v| f(v, fact.interval)).collect();
            out.insert(rel, new_data, fact.interval);
        }
        out
    }
}

impl PartialEq for TemporalInstance {
    /// Exact set equality of facts (see [`TemporalInstance::eq_coalesced`]
    /// for equality up to coalescing).
    fn eq(&self, other: &Self) -> bool {
        if self.schema() != other.schema() {
            return false;
        }
        self.store.same_facts(&other.store)
    }
}

impl Eq for TemporalInstance {}

impl fmt::Display for TemporalInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::display::fmt_temporal_instance(self, f)
    }
}

impl fmt::Debug for TemporalInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdx_logic::RelationSchema;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                RelationSchema::new("E", &["name", "company"]),
                RelationSchema::new("S", &["name", "salary"]),
            ])
            .unwrap(),
        )
    }

    /// The paper's Figure 4 source instance.
    fn figure4() -> TemporalInstance {
        let mut i = TemporalInstance::new(schema());
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    #[test]
    fn insert_dedupes_exact_facts() {
        let mut i = figure4();
        assert_eq!(i.total_len(), 5);
        assert!(!i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014)));
        // Same data, different interval is a different fact.
        assert!(i.insert_strs("E", &["Ada", "IBM"], iv(2020, 2021)));
        assert_eq!(i.total_len(), 6);
    }

    #[test]
    fn project_at_matches_figure1() {
        let i = figure4();
        // 2013 snapshot: E(Ada,IBM), S(Ada,18k), E(Bob,IBM)  (Figure 1)
        let db2013 = i.project_at(2013);
        assert_eq!(
            db2013.to_string(),
            "{E(Ada, IBM), E(Bob, IBM), S(Ada, 18k)}"
        );
        // 2018 snapshot: E(Ada,Google), S(Ada,18k), S(Bob,13k)
        let db2018 = i.project_at(2018);
        assert_eq!(
            db2018.to_string(),
            "{E(Ada, Google), S(Ada, 18k), S(Bob, 13k)}"
        );
        // Before anything: empty.
        assert!(i.project_at(2000).is_empty());
    }

    #[test]
    fn endpoints_collects_all() {
        let bps = figure4().endpoints();
        assert_eq!(bps.points(), &[2012, 2013, 2014, 2015, 2018]);
    }

    #[test]
    fn coalesce_round_trip() {
        let mut i = TemporalInstance::new(schema());
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2013));
        i.insert_strs("E", &["Ada", "IBM"], iv(2013, 2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        assert!(!i.is_coalesced());
        let c = i.coalesced();
        assert!(c.is_coalesced());
        assert_eq!(c.total_len(), 2);
        assert!(c.contains(
            RelId(0),
            &crate::value::row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2014)
        ));
        assert!(i.eq_coalesced(&c));
        assert!(figure4().is_coalesced());
    }

    #[test]
    fn generation_marks_surface_deltas() {
        let mut i = figure4();
        let gen = i.mark_generation();
        assert!(!i.has_delta_since(gen));
        i.insert_strs("E", &["Cyd", "Intel"], iv(0, 1));
        assert!(i.has_delta_since(gen));
        let delta: Vec<String> = i
            .facts_since(RelId(0), gen)
            .iter()
            .map(|f| f.data[0].to_string())
            .collect();
        assert_eq!(delta, vec!["Cyd"]);
        assert!(i.facts_since(RelId(1), gen).is_empty());
    }

    #[test]
    fn col_index_on_temporal() {
        let i = figure4();
        let e = RelId(0);
        assert_eq!(i.store().col_count(e, 0, &Value::str("Ada")), 2);
        assert_eq!(i.store().col_count(e, 0, &Value::str("Bob")), 1);
    }

    #[test]
    fn interval_probes_via_store() {
        let i = figure4();
        let e = RelId(0);
        assert_eq!(i.store().exact_count(e, &iv(2012, 2014)), 1);
        assert_eq!(i.store().exact_count(e, &iv(1999, 2000)), 0);
        let mut hits = Vec::new();
        i.store().for_exact(e, &iv(2012, 2014), &mut |id| {
            hits.push(id);
            true
        });
        assert_eq!(hits, vec![0]);
        // Overlap probe: everything live in 2013.
        assert_eq!(i.store().overlap_count(e, &Interval::point(2013)), 2);
    }

    #[test]
    fn map_values_preserves_intervals() {
        let mut i = TemporalInstance::new(schema());
        i.insert_values("E", [Value::str("Ada"), Value::Null(NullId(0))], iv(0, 5));
        let out = i.map_values(|v, interval| {
            assert_eq!(interval, iv(0, 5));
            match v {
                Value::Null(_) => Value::str("IBM"),
                other => *other,
            }
        });
        assert!(out.contains(
            RelId(0),
            &crate::value::row([Value::str("Ada"), Value::str("IBM")]),
            iv(0, 5)
        ));
    }

    #[test]
    fn clone_and_eq() {
        let i = figure4();
        let j = i.clone();
        assert_eq!(i, j);
        let mut k = j.clone();
        k.insert_strs("E", &["Cyd", "Intel"], iv(0, 1));
        assert_ne!(i, k);
    }
}
