//! Generation-watermark snapshots: cheap MVCC read handles over a
//! [`TemporalInstance`].
//!
//! The [`FactStore`] is append-only with dense, monotone fact ids, and its
//! generation log records the per-relation fact count at every
//! [`mark`](FactStore::mark). A *snapshot* is therefore nothing more than
//! that watermark vector: every fact with `id < watermark[rel]` belongs to
//! the snapshot, everything appended later does not. [`StoreSnapshot`]
//! packages an `Arc` of the instance together with such a watermark, so
//! readers hold an immutable view at near-zero cost — no copy, no lock —
//! while writers keep appending (to a successor instance, or to the same
//! store through `&mut` between reads).
//!
//! Index probes are watermark-aware: per-column postings are appended in
//! insertion order, so a column probe stops at the first out-of-window id;
//! interval-overlap probes filter per id. The conjunctive matcher consumes
//! the same watermarks as per-atom id bounds
//! ([`TemporalInstance::find_matches_bounded`]), the same mechanism the
//! sharded store's delta-pivoted scopes use.

use crate::fact_store::{FactStore, Generation};
use crate::matcher::{Match, MatchError, SearchOptions, TemporalMode};
use crate::temporal_instance::{TemporalFact, TemporalInstance};
use crate::value::Value;
use std::sync::Arc;
use tdx_logic::{Atom, RelId, Schema, Var};
use tdx_temporal::Interval;

/// An immutable read view of a [`TemporalInstance`] pinned to a generation
/// watermark. Cloning is cheap (an `Arc` clone plus a small vector).
#[derive(Clone)]
pub struct StoreSnapshot {
    instance: Arc<TemporalInstance>,
    /// Per-relation fact-count watermark: fact `id` of relation `r` is in
    /// the snapshot iff `id < bounds[r]`.
    bounds: Vec<u32>,
}

impl StoreSnapshot {
    /// A snapshot of the instance's *current* contents. Later appends to
    /// the same store (through `&mut` access elsewhere) stay invisible.
    pub fn latest(instance: Arc<TemporalInstance>) -> StoreSnapshot {
        let bounds = (0..instance.schema().len())
            .map(|r| instance.len(RelId(r as u32)) as u32)
            .collect();
        StoreSnapshot { instance, bounds }
    }

    /// A snapshot pinned to a previously sealed generation: only facts
    /// present when `gen` was marked are visible.
    pub fn at_generation(instance: Arc<TemporalInstance>, gen: Generation) -> StoreSnapshot {
        let bounds = (0..instance.schema().len())
            .map(|r| instance.store().delta_start(RelId(r as u32), gen))
            .collect();
        StoreSnapshot { instance, bounds }
    }

    /// The underlying instance (callers must respect the watermark when
    /// reading it directly).
    pub fn instance(&self) -> &TemporalInstance {
        &self.instance
    }

    /// Shared handle to the underlying instance.
    pub fn instance_arc(&self) -> Arc<TemporalInstance> {
        Arc::clone(&self.instance)
    }

    /// The backing store (index probes on it ignore the watermark; use the
    /// snapshot's own probe methods for watermark-aware reads).
    pub fn store(&self) -> &FactStore {
        self.instance.store()
    }

    /// The data schema.
    pub fn schema(&self) -> &Schema {
        self.instance.schema()
    }

    /// The per-relation id watermarks.
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// Number of snapshot-visible facts in one relation.
    pub fn rel_len(&self, rel: RelId) -> usize {
        let r = rel.0 as usize;
        self.bounds
            .get(r)
            .map_or(0, |&b| (b as usize).min(self.instance.len(rel)))
    }

    /// Total number of snapshot-visible facts.
    pub fn total_len(&self) -> usize {
        (0..self.bounds.len())
            .map(|r| self.rel_len(RelId(r as u32)))
            .sum()
    }

    /// Whether fact `id` of `rel` is inside the snapshot window.
    pub fn visible(&self, rel: RelId, id: u32) -> bool {
        self.bounds.get(rel.0 as usize).is_some_and(|&b| id < b)
    }

    /// The snapshot-visible fact `id` of `rel`, if any.
    pub fn fact(&self, rel: RelId, id: u32) -> Option<&TemporalFact> {
        if !self.visible(rel, id) {
            return None;
        }
        self.instance.facts(rel).get(id as usize)
    }

    /// Visits snapshot-visible fact ids with `col = v`. Postings are in
    /// insertion (= id) order, so the probe stops at the watermark instead
    /// of filtering the tail. `f` returns `false` to stop early.
    pub fn for_col(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(u32) -> bool) {
        let bound = self.bounds.get(rel.0 as usize).copied().unwrap_or(0);
        self.instance.store().for_col(rel, col, v, &mut |id| {
            if id >= bound {
                return false; // postings ascend: everything further is newer
            }
            f(id)
        });
    }

    /// Visits snapshot-visible fact ids whose interval overlaps `iv`.
    pub fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) {
        let bound = self.bounds.get(rel.0 as usize).copied().unwrap_or(0);
        self.instance.store().for_overlap(rel, iv, &mut |id| {
            if id < bound {
                f(id)
            } else {
                true // out-of-window id: skip, keep scanning
            }
        });
    }

    /// Upper bound on the number of snapshot-visible facts with `col = v`
    /// (unclamped posting length — cheap, used for plan costing only).
    pub fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        self.instance
            .store()
            .col_count(rel, col, v)
            .min(self.rel_len(rel))
    }

    /// Enumerates homomorphisms from `atoms` into the snapshot: the
    /// conjunctive matcher with every atom's candidate set clipped to the
    /// watermark window.
    pub fn find_matches(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        let mut bounds = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let b = self
                .schema()
                .rel_id(atom.relation)
                .and_then(|rel| self.bounds.get(rel.0 as usize).copied())
                .unwrap_or(0);
            bounds.push((0u32, b));
        }
        self.instance.find_matches_bounded(
            atoms,
            mode,
            prebound,
            pre_interval,
            options,
            &bounds,
            |m| on_match(m),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdx_logic::{RelationSchema, Schema};

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn instance() -> TemporalInstance {
        let mut i = TemporalInstance::new(Arc::new(
            Schema::new(vec![RelationSchema::new("E", &["name", "company"])]).unwrap(),
        ));
        i.insert_strs("E", &["Ada", "IBM"], iv(0, 5));
        i.insert_strs("E", &["Bob", "IBM"], iv(3, 8));
        i
    }

    #[test]
    fn latest_sees_everything_then_freezes() {
        let mut i = instance();
        let gen = i.mark_generation();
        i.insert_strs("E", &["Cyd", "Intel"], iv(1, 4));
        let arc = Arc::new(i);
        let pinned = StoreSnapshot::at_generation(Arc::clone(&arc), gen);
        let latest = StoreSnapshot::latest(Arc::clone(&arc));
        let e = RelId(0);
        assert_eq!(pinned.rel_len(e), 2);
        assert_eq!(latest.rel_len(e), 3);
        assert!(pinned.visible(e, 1));
        assert!(!pinned.visible(e, 2));
        assert!(latest.visible(e, 2));
        assert!(pinned.fact(e, 2).is_none());
        assert_eq!(latest.fact(e, 2).unwrap().data[0], Value::str("Cyd"));
        assert_eq!(pinned.total_len(), 2);
    }

    #[test]
    fn probes_respect_the_watermark() {
        let mut i = instance();
        let gen = i.mark_generation();
        i.insert_strs("E", &["Eve", "IBM"], iv(2, 6));
        let arc = Arc::new(i);
        let snap = StoreSnapshot::at_generation(arc, gen);
        let e = RelId(0);
        let mut ids = Vec::new();
        snap.for_col(e, 1, &Value::str("IBM"), &mut |id| {
            ids.push(id);
            true
        });
        assert_eq!(ids, vec![0, 1], "Eve (id 2) is after the watermark");
        let mut hits = Vec::new();
        snap.for_overlap(e, &iv(3, 4), &mut |id| {
            hits.push(id);
            true
        });
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        assert!(snap.col_count(e, 1, &Value::str("IBM")) <= 2);
    }

    #[test]
    fn matcher_ignores_post_snapshot_facts() {
        let mut i = instance();
        let gen = i.mark_generation();
        i.insert_strs("E", &["Eve", "IBM"], iv(2, 6));
        let arc = Arc::new(i);
        let snap = StoreSnapshot::at_generation(Arc::clone(&arc), gen);
        let atoms = vec![Atom::new(
            "E",
            vec![
                tdx_logic::Term::var("n"),
                tdx_logic::Term::constant(tdx_logic::Constant::str("IBM")),
            ],
        )];
        let mut names = Vec::new();
        snap.find_matches(
            &atoms,
            TemporalMode::Free,
            &[],
            None,
            SearchOptions::default(),
            |m| {
                names.push(m.value(tdx_logic::Var::new("n")).unwrap());
                true
            },
        )
        .unwrap();
        names.sort();
        assert_eq!(names, vec![Value::str("Ada"), Value::str("Bob")]);
        // The unpinned view sees Eve too.
        let latest = StoreSnapshot::latest(arc);
        let mut n = 0;
        latest
            .find_matches(
                &atoms,
                TemporalMode::Free,
                &[],
                None,
                SearchOptions::default(),
                |_| {
                    n += 1;
                    true
                },
            )
            .unwrap();
        assert_eq!(n, 3);
    }
}
