//! A timeline-partitioned shard layout over [`FactStore`]s — the match
//! store of the partition servers and of wide-conjunction normalization
//! discovery.
//!
//! [`ShardedFactStore`] splits the facts of one logical instance across
//! *timeline partitions*: the timeline `[0, ∞)` is cut at coarse breakpoints
//! ([`TimelinePartition`]) and every fact is **owned** by the partition
//! containing its interval's start point. Facts whose intervals cross a
//! partition boundary are additionally **replicated** into every other
//! partition they overlap. The layout exploits the two locality properties
//! the chase's matcher depends on:
//!
//! * **shared-`t` locality** — a [`TemporalMode::Shared`] match binds every
//!   atom to the *same* interval, so all of its facts have the same owner
//!   partition: tgd and egd match enumeration decomposes exactly across
//!   partitions with no reconciliation (owner blocks only, replicas
//!   excluded);
//! * **overlap locality** — a [`TemporalMode::FreeOverlapping`] image has a
//!   non-empty common intersection, which meets some partition's range; all
//!   of its facts overlap that range, so the image is wholly visible in
//!   that partition once boundary-crossing facts are replicated. Partitioned
//!   normalization discovery therefore finds *every* image of Algorithm 1;
//!   only the group-merge (a union-find over global fact ids) is global.
//!
//! The store is frozen at construction ([`ShardedFactStore::build_from`] /
//! [`ShardedFactStore::build_with_delta`]): the chase rebuilds it between
//! rounds anyway, and a frozen layout keeps owner blocks and delta suffixes
//! contiguous so the matcher's per-atom id bounds express every scope the
//! engine needs. Global fact ids are assigned in input order, and the same
//! probe surface as [`FactStore`] (`for_col` / `for_exact` / `for_overlap` /
//! `facts_since`) is exposed over them, so the matcher — and any code
//! written against the flat store — slots in unchanged.

use crate::fact_store::{FactStore, Generation};
use crate::matcher::{run_search, Match, MatchError, SearchOptions, Store, TemporalMode};
use crate::temporal_instance::{TemporalFact, TemporalInstance};
use crate::value::{Row, Value};
use std::sync::Arc;
use tdx_logic::{Atom, RelId, Schema, Var};
use tdx_temporal::{Breakpoints, Interval, TimelinePartition};

/// One timeline partition: an owner block (facts starting in this range, in
/// global order, pre-delta before delta) followed by replicas of
/// boundary-crossing facts owned elsewhere.
struct Shard {
    store: FactStore,
    /// Per relation: number of owner facts (owner block = local ids
    /// `[0, own_len)`; replicas sit above).
    own_len: Vec<u32>,
    /// Per relation: first owner-local id of the delta suffix (equals
    /// `own_len` when the shard has no delta).
    delta_from: Vec<u32>,
    /// Per relation: local id → global id (replicas map to their owner's
    /// global id).
    global: Vec<Vec<u32>>,
}

/// A timeline-partitioned sharded fact store.
///
/// See the module docs for the layout. Construction freezes the contents;
/// global fact ids are dense per relation, in input order.
pub struct ShardedFactStore {
    schema: Arc<Schema>,
    partition: TimelinePartition,
    parts: Vec<Shard>,
    /// Per relation: global id → (partition, owner-local id).
    loc: Vec<Vec<(u32, u32)>>,
    /// Generation watermarks over global ids (see [`FactStore::mark`]).
    marks: Vec<Vec<u32>>,
}

/// How a partition-local search scopes its candidate facts.
#[derive(Clone, Copy, Debug)]
pub enum PartScope {
    /// All atoms range over the owner block — complete and duplicate-free
    /// across partitions for [`TemporalMode::Shared`] searches.
    Owner,
    /// Owner block only, restricted to matches whose image contains at
    /// least one fact of the delta suffix (semi-naive rounds).
    OwnerDelta,
    /// Owner block plus replicas — the visibility a
    /// [`TemporalMode::FreeOverlapping`] discovery pass needs.
    Full,
    /// Owner block plus replicas, restricted to matches where at least one
    /// atom binds an *owner* fact (pivot decomposition: the first such atom
    /// ranges over the owner block, earlier atoms over replicas only). An
    /// overlapping image's common intersection starts at some member's start
    /// point, so the image is covered in that member's owner partition —
    /// while images of long-lived facts are no longer re-enumerated in every
    /// partition they span.
    OwnerTouch,
}

impl ShardedFactStore {
    /// Builds a sharded store over the facts of `inst`, all sealed as
    /// pre-delta. `replicate` controls whether
    /// boundary-crossing facts are copied into the partitions they overlap —
    /// required for [`PartScope::Full`]/[`PartScope::OwnerTouch`] overlap
    /// discovery, dead weight for shared-`t`-only (owner-block) matching.
    pub fn build_from(
        inst: &TemporalInstance,
        partition: TimelinePartition,
        replicate: bool,
    ) -> ShardedFactStore {
        Self::build_with_delta(inst.schema_arc(), partition, replicate, |rel| {
            (inst.facts(rel), &[])
        })
    }

    /// Builds a sharded store whose facts arrive split into a pre block and
    /// a delta block per relation (`per_rel(rel) = (pre, delta)`). A
    /// generation is sealed between the blocks, so
    /// [`ShardedFactStore::facts_since`] of generation 0 is exactly the
    /// delta, and each shard's owner block keeps its delta facts in a
    /// contiguous suffix (the [`PartScope::OwnerDelta`] pivot range).
    pub fn build_with_delta<'a>(
        schema: Arc<Schema>,
        partition: TimelinePartition,
        replicate: bool,
        per_rel: impl Fn(RelId) -> (&'a [TemporalFact], &'a [TemporalFact]),
    ) -> ShardedFactStore {
        let nrels = schema.len();
        let nparts = partition.len();
        let mut parts: Vec<Shard> = (0..nparts)
            .map(|_| Shard {
                store: FactStore::new(Arc::clone(&schema)),
                own_len: vec![0; nrels],
                delta_from: vec![0; nrels],
                global: vec![Vec::new(); nrels],
            })
            .collect();
        let mut loc: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nrels];
        let mut pre_marks = vec![0u32; nrels];

        for r in 0..nrels {
            let rel = RelId(r as u32);
            let (pre, delta) = per_rel(rel);
            pre_marks[r] = pre.len() as u32;
            // Owner blocks in global id order, which lays out every pre
            // fact before the delta suffix.
            let owner_of = |fact: &TemporalFact| partition.part_of(fact.interval.start());
            let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            let all = || pre.iter().chain(delta.iter());
            for (gid, fact) in all().enumerate() {
                owned[owner_of(fact)].push(gid as u32);
            }
            loc[r] = vec![(0, 0); pre.len() + delta.len()];
            for (p, shard) in parts.iter_mut().enumerate() {
                let order = &owned[p];
                for (local, &gid) in order.iter().enumerate() {
                    let fact = if (gid as usize) < pre.len() {
                        &pre[gid as usize]
                    } else {
                        &delta[gid as usize - pre.len()]
                    };
                    let fresh = shard
                        .store
                        .insert(rel, Arc::clone(&fact.data), fact.interval);
                    debug_assert!(fresh, "sharded build saw a duplicate fact");
                    shard.global[r].push(gid);
                    loc[r][gid as usize] = (p as u32, local as u32);
                }
                shard.own_len[r] = order.len() as u32;
                shard.delta_from[r] = order.partition_point(|&g| (g as usize) < pre.len()) as u32;
            }
            if replicate {
                // Replicas of boundary-crossing facts, one pass over the
                // relation: every owner block of `rel` is complete above,
                // so replicas land after it in each shard's local id space.
                for (gid, fact) in all().enumerate() {
                    let owner = owner_of(fact);
                    let (lo, hi) = partition.parts_overlapping(&fact.interval);
                    for (p, shard) in parts.iter_mut().enumerate().take(hi + 1).skip(lo) {
                        if p == owner {
                            continue;
                        }
                        let fresh = shard
                            .store
                            .insert(rel, Arc::clone(&fact.data), fact.interval);
                        debug_assert!(fresh, "replica collided with an existing fact");
                        shard.global[r].push(gid as u32);
                    }
                }
            }
        }
        ShardedFactStore {
            schema,
            partition,
            parts,
            loc,
            marks: vec![pre_marks],
        }
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The timeline partition the store is sharded by.
    pub fn partition(&self) -> &TimelinePartition {
        &self.partition
    }

    /// Number of timeline partitions.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of facts in one relation (owners only — replicas are an
    /// internal detail).
    pub fn len(&self, rel: RelId) -> usize {
        self.loc[rel.0 as usize].len()
    }

    /// Total number of facts.
    pub fn total_len(&self) -> usize {
        self.loc.iter().map(|l| l.len()).sum()
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// The fact with global id `id`.
    pub fn fact(&self, rel: RelId, id: u32) -> &TemporalFact {
        let (p, local) = self.loc[rel.0 as usize][id as usize];
        &self.parts[p as usize].store.facts(rel)[local as usize]
    }

    /// Iterates `(rel, global id, fact)` over the whole store in global id
    /// order.
    pub fn iter_all(&self) -> impl Iterator<Item = (RelId, u32, &TemporalFact)> {
        (0..self.schema.len()).flat_map(move |r| {
            let rel = RelId(r as u32);
            (0..self.loc[r].len() as u32).map(move |gid| (rel, gid, self.fact(rel, gid)))
        })
    }

    /// Whether the exact fact is present (owner-shard lookup).
    pub fn contains(&self, rel: RelId, data: &Row, interval: Interval) -> bool {
        let p = self.partition.part_of(interval.start());
        self.parts[p].store.contains(rel, data, interval)
    }

    /// Materializes the logical instance (owner facts in global id order).
    pub fn to_instance(&self) -> TemporalInstance {
        let mut out = TemporalInstance::new(self.schema_arc());
        for r in 0..self.schema.len() {
            let rel = RelId(r as u32);
            let facts: Vec<TemporalFact> = (0..self.len(rel) as u32)
                .map(|gid| self.fact(rel, gid).clone())
                .collect();
            out.extend(rel, &facts);
        }
        out
    }

    // ---- generation log ----------------------------------------------

    /// Seals the current contents as a generation over global ids. The
    /// pre/delta split of [`ShardedFactStore::build_with_delta`] is
    /// generation 0.
    pub fn mark(&mut self) -> Generation {
        let lens: Vec<u32> = self.loc.iter().map(|l| l.len() as u32).collect();
        self.marks.push(lens);
        Generation(self.marks.len() as u32 - 1)
    }

    /// The first global id of `rel` not yet present when `gen` was sealed.
    pub fn delta_start(&self, rel: RelId, gen: Generation) -> u32 {
        self.marks[gen.0 as usize][rel.0 as usize]
    }

    /// The facts of `rel` added after `gen`, as `(global id, fact)` pairs —
    /// the delta-log shipping unit of the partitioned chase.
    pub fn facts_since(
        &self,
        rel: RelId,
        gen: Generation,
    ) -> impl Iterator<Item = (u32, &TemporalFact)> {
        let start = self.delta_start(rel, gen);
        (start..self.len(rel) as u32).map(move |gid| (gid, self.fact(rel, gid)))
    }

    /// Whether any relation gained facts since `gen` was sealed.
    pub fn has_delta_since(&self, gen: Generation) -> bool {
        (0..self.schema.len()).any(|r| {
            let rel = RelId(r as u32);
            self.delta_start(rel, gen) < self.len(rel) as u32
        })
    }

    // ---- flat probe surface (global ids) -----------------------------

    /// Number of facts with value `v` in column `col`.
    pub fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        let mut n = 0;
        self.for_col(rel, col, v, &mut |_| {
            n += 1;
            true
        });
        n
    }

    /// Visits global fact ids with `col = v`; `f` returns `false` to stop.
    pub fn for_col(
        &self,
        rel: RelId,
        col: usize,
        v: &Value,
        f: &mut dyn FnMut(u32) -> bool,
    ) -> bool {
        let r = rel.0 as usize;
        for shard in &self.parts {
            let mut keep = true;
            shard.store.for_col(rel, col, v, &mut |lid| {
                if lid < shard.own_len[r] {
                    keep = f(shard.global[r][lid as usize]);
                }
                keep
            });
            if !keep {
                return false;
            }
        }
        true
    }

    /// Number of facts whose interval equals `iv`.
    pub fn exact_count(&self, rel: RelId, iv: &Interval) -> usize {
        // Facts with interval exactly `iv` are all owned by one partition.
        let p = self.partition.part_of(iv.start());
        let shard = &self.parts[p];
        let mut n = 0;
        shard.store.for_exact(rel, iv, &mut |lid| {
            if lid < shard.own_len[rel.0 as usize] {
                n += 1;
            }
            true
        });
        n
    }

    /// Visits global fact ids whose interval equals `iv`.
    pub fn for_exact(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        let r = rel.0 as usize;
        let p = self.partition.part_of(iv.start());
        let shard = &self.parts[p];
        let mut keep = true;
        shard.store.for_exact(rel, iv, &mut |lid| {
            if lid < shard.own_len[r] {
                keep = f(shard.global[r][lid as usize]);
            }
            keep
        });
        keep
    }

    /// Number of facts whose interval overlaps `iv`.
    pub fn overlap_count(&self, rel: RelId, iv: &Interval) -> usize {
        let mut n = 0;
        self.for_overlap(rel, iv, &mut |_| {
            n += 1;
            true
        });
        n
    }

    /// Visits global fact ids whose interval overlaps `iv`.
    pub fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        // Owner partitions of overlapping facts all lie at or before the
        // partitions `iv` spans (an interval starting after `iv`'s span
        // cannot reach back), so scan partitions `0..=hi`.
        let r = rel.0 as usize;
        let (_, hi) = self.partition.parts_overlapping(iv);
        for shard in &self.parts[..=hi] {
            let mut keep = true;
            shard.store.for_overlap(rel, iv, &mut |lid| {
                if lid < shard.own_len[r] {
                    keep = f(shard.global[r][lid as usize]);
                }
                keep
            });
            if !keep {
                return false;
            }
        }
        true
    }

    /// All distinct start/end points across the store.
    pub fn endpoints(&self) -> Breakpoints {
        Breakpoints::from_points(self.parts.iter().flat_map(|s| {
            let bps = s.store.endpoints();
            bps.points().to_vec()
        }))
    }

    // ---- partition-local matching ------------------------------------

    /// A view of one timeline partition for partition-local matching.
    pub fn part(&self, p: usize) -> PartView<'_> {
        PartView {
            shard: &self.parts[p],
            schema: &self.schema,
        }
    }
}

/// A borrowed view of one timeline partition; matching runs against it with
/// the scopes of [`PartScope`].
#[derive(Clone, Copy)]
pub struct PartView<'a> {
    shard: &'a Shard,
    schema: &'a Schema,
}

impl<'a> PartView<'a> {
    /// Number of owner facts of `rel` in this partition.
    pub fn own_len(&self, rel: RelId) -> u32 {
        self.shard.own_len[rel.0 as usize]
    }

    /// Number of facts of `rel` in this partition, replicas included
    /// (local ids range over `0..len`).
    pub fn len(&self, rel: RelId) -> u32 {
        self.shard.store.len(rel) as u32
    }

    /// First owner-local id of the delta suffix of `rel`.
    pub fn delta_from(&self, rel: RelId) -> u32 {
        self.shard.delta_from[rel.0 as usize]
    }

    /// Whether the partition has any delta facts.
    pub fn has_delta(&self) -> bool {
        (0..self.schema.len()).any(|r| self.shard.delta_from[r] < self.shard.own_len[r])
    }

    /// Whether the partition has any facts at all (replicas included).
    pub fn is_empty(&self) -> bool {
        (0..self.schema.len()).all(|r| self.shard.store.len(RelId(r as u32)) == 0)
    }

    /// The global id of a local row (owner or replica).
    pub fn global_row(&self, rel: RelId, local: u32) -> u32 {
        self.shard.global[rel.0 as usize][local as usize]
    }

    /// The fact at a local row.
    pub fn local_fact(&self, rel: RelId, local: u32) -> &'a TemporalFact {
        &self.shard.store.facts(rel)[local as usize]
    }

    /// Enumerates homomorphisms from `atoms` to this partition under
    /// `scope` (see [`PartScope`] for the completeness guarantees). Matches
    /// report *local* rows; translate with [`PartView::global_row`].
    #[allow(clippy::too_many_arguments)]
    pub fn find_matches(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
        scope: PartScope,
        on_match: &mut dyn FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        let rel_of = |atom: &Atom| {
            self.schema
                .rel_id(atom.relation)
                .ok_or_else(|| MatchError(format!("unknown relation {}", atom.relation)))
        };
        match scope {
            PartScope::Full => run_search(
                self,
                atoms,
                mode,
                prebound,
                pre_interval,
                options,
                None,
                on_match,
            ),
            PartScope::Owner => {
                let mut bounds = Vec::with_capacity(atoms.len());
                for atom in atoms {
                    bounds.push((0, self.own_len(rel_of(atom)?)));
                }
                run_search(
                    self,
                    atoms,
                    mode,
                    prebound,
                    pre_interval,
                    options,
                    Some(&bounds),
                    on_match,
                )
            }
            PartScope::OwnerTouch => {
                // Pivot over the owner block; atoms before the pivot see
                // replicas only, atoms after see everything — each match
                // with ≥ 1 owner fact is enumerated exactly once (pivot =
                // its first owner atom).
                let mut own = Vec::with_capacity(atoms.len());
                let mut all = Vec::with_capacity(atoms.len());
                for atom in atoms {
                    let rel = rel_of(atom)?;
                    own.push(self.own_len(rel));
                    all.push(self.shard.store.len(rel) as u32);
                }
                self.pivot_search(
                    atoms,
                    mode,
                    prebound,
                    pre_interval,
                    options,
                    |pivot, j, ord| match ord {
                        std::cmp::Ordering::Less => Some((own[j], all[j])),
                        std::cmp::Ordering::Equal => (own[pivot] > 0).then_some((0, own[j])),
                        std::cmp::Ordering::Greater => Some((0, all[j])),
                    },
                    on_match,
                )
            }
            PartScope::OwnerDelta => {
                // Classic delta-join decomposition inside the owner block:
                // pivot atom over the delta suffix, earlier atoms over the
                // pre prefix, later atoms over the whole block — each
                // qualifying match enumerated exactly once.
                let mut own = Vec::with_capacity(atoms.len());
                let mut from = Vec::with_capacity(atoms.len());
                for atom in atoms {
                    let rel = rel_of(atom)?;
                    own.push(self.own_len(rel));
                    from.push(self.delta_from(rel));
                }
                self.pivot_search(
                    atoms,
                    mode,
                    prebound,
                    pre_interval,
                    options,
                    |pivot, j, ord| match ord {
                        std::cmp::Ordering::Less => Some((0, from[j])),
                        std::cmp::Ordering::Equal => {
                            (from[pivot] < own[pivot]).then_some((from[j], own[j]))
                        }
                        std::cmp::Ordering::Greater => Some((0, own[j])),
                    },
                    on_match,
                )
            }
        }
    }

    /// The shared per-pivot decomposition behind [`PartScope::OwnerDelta`]
    /// and [`PartScope::OwnerTouch`]: one search per pivot atom, with
    /// `bounds_for(pivot, j, j.cmp(&pivot))` choosing atom `j`'s id range —
    /// or `None` on the `Equal` arm to skip a pivot with an empty range.
    #[allow(clippy::too_many_arguments)]
    fn pivot_search(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
        bounds_for: impl Fn(usize, usize, std::cmp::Ordering) -> Option<(u32, u32)>,
        on_match: &mut dyn FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        let mut found = false;
        let mut stopped = false;
        for pivot in 0..atoms.len() {
            if bounds_for(pivot, pivot, std::cmp::Ordering::Equal).is_none() {
                continue; // nothing to pivot on
            }
            #[expect(
                clippy::expect_used,
                reason = "bounds_for only returns None for the Equal ordering, screened above"
            )]
            let bounds: Vec<(u32, u32)> = (0..atoms.len())
                .map(|j| bounds_for(pivot, j, j.cmp(&pivot)).expect("only Equal may skip"))
                .collect();
            let any = run_search(
                self,
                atoms,
                mode,
                prebound,
                pre_interval,
                options,
                Some(&bounds),
                &mut |m| {
                    let keep = on_match(m);
                    if !keep {
                        stopped = true;
                    }
                    keep
                },
            )?;
            found |= any;
            if stopped {
                break;
            }
        }
        Ok(found)
    }
}

impl Store for PartView<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }
    fn count(&self, rel: RelId) -> usize {
        self.shard.store.len(rel)
    }
    fn data(&self, rel: RelId, row: u32) -> &[Value] {
        &self.shard.store.facts(rel)[row as usize].data
    }
    fn interval_of(&self, rel: RelId, row: u32) -> Option<Interval> {
        Some(self.shard.store.facts(rel)[row as usize].interval)
    }
    fn is_temporal(&self) -> bool {
        true
    }
    fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        self.shard.store.col_count(rel, col, v)
    }
    fn for_col(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.shard.store.for_col(rel, col, v, f)
    }
    fn exact_count(&self, rel: RelId, iv: &Interval) -> usize {
        self.shard.store.exact_count(rel, iv)
    }
    fn for_exact(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.shard.store.for_exact(rel, iv, f)
    }
    fn overlap_count(&self, rel: RelId, iv: &Interval) -> usize {
        self.shard.store.overlap_count(rel, iv)
    }
    fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.shard.store.for_overlap(rel, iv, f)
    }
}

impl Store for ShardedFactStore {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn count(&self, rel: RelId) -> usize {
        self.len(rel)
    }
    fn data(&self, rel: RelId, row: u32) -> &[Value] {
        &self.fact(rel, row).data
    }
    fn interval_of(&self, rel: RelId, row: u32) -> Option<Interval> {
        Some(self.fact(rel, row).interval)
    }
    fn is_temporal(&self) -> bool {
        true
    }
    fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        ShardedFactStore::col_count(self, rel, col, v)
    }
    fn for_col(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(u32) -> bool) -> bool {
        ShardedFactStore::for_col(self, rel, col, v, f)
    }
    fn exact_count(&self, rel: RelId, iv: &Interval) -> usize {
        ShardedFactStore::exact_count(self, rel, iv)
    }
    fn for_exact(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        ShardedFactStore::for_exact(self, rel, iv, f)
    }
    fn overlap_count(&self, rel: RelId, iv: &Interval) -> usize {
        ShardedFactStore::overlap_count(self, rel, iv)
    }
    fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        ShardedFactStore::for_overlap(self, rel, iv, f)
    }
}

impl ShardedFactStore {
    /// Enumerates homomorphisms from `atoms` against the *logical* store
    /// (global ids, owner facts) — the same matcher entry as
    /// [`TemporalInstance::find_matches_with`], proving the sharded layout
    /// serves the flat probe surface.
    pub fn find_matches_with(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        run_search(
            self,
            atoms,
            mode,
            prebound,
            pre_interval,
            options,
            None,
            &mut on_match,
        )
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

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                RelationSchema::new("E", &["name", "company"]),
                RelationSchema::new("S", &["name", "salary"]),
            ])
            .unwrap(),
        )
    }

    fn figure4() -> TemporalInstance {
        let mut i = TemporalInstance::new(schema());
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    fn sharded(parts: &[u64]) -> ShardedFactStore {
        ShardedFactStore::build_from(
            &figure4(),
            TimelinePartition::new(&Breakpoints::from_points(parts.iter().copied())),
            true,
        )
    }

    #[test]
    fn global_ids_follow_input_order() {
        let s = sharded(&[2014]);
        assert_eq!(s.part_count(), 2);
        assert_eq!(s.total_len(), 5);
        let e = RelId(0);
        // Global ids match the input instance's ids.
        let inst = figure4();
        for gid in 0..s.len(e) as u32 {
            assert_eq!(s.fact(e, gid), &inst.facts(e)[gid as usize]);
        }
        assert!(s.contains(
            e,
            &row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2014)
        ));
        assert!(!s.contains(
            e,
            &row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2015)
        ));
        assert_eq!(s.to_instance(), inst);
    }

    #[test]
    fn probes_agree_with_flat_store() {
        let inst = figure4();
        for cuts in [
            &[][..],
            &[2014][..],
            &[2013, 2015][..],
            &[1, 2013, 2014, 2015, 2016][..],
        ] {
            let s = sharded(cuts);
            for r in 0..2u32 {
                let rel = RelId(r);
                let flat = inst.store();
                for v in ["Ada", "Bob", "IBM", "18k", "nope"] {
                    let v = Value::str(v);
                    for col in 0..2 {
                        let mut a = Vec::new();
                        flat.for_col(rel, col, &v, &mut |id| {
                            a.push(id);
                            true
                        });
                        let mut b = Vec::new();
                        s.for_col(rel, col, &v, &mut |id| {
                            b.push(id);
                            true
                        });
                        b.sort_unstable();
                        assert_eq!(a, b, "col probe {cuts:?}");
                        assert_eq!(s.col_count(rel, col, &v), a.len());
                    }
                }
                for q in [
                    iv(2012, 2014),
                    iv(2013, 2018),
                    Interval::from(2013),
                    iv(1, 2),
                ] {
                    let mut a = Vec::new();
                    flat.for_exact(rel, &q, &mut |id| {
                        a.push(id);
                        true
                    });
                    let mut b = Vec::new();
                    s.for_exact(rel, &q, &mut |id| {
                        b.push(id);
                        true
                    });
                    b.sort_unstable();
                    assert_eq!(a, b, "exact probe {cuts:?}");
                    let mut a = Vec::new();
                    flat.for_overlap(rel, &q, &mut |id| {
                        a.push(id);
                        true
                    });
                    a.sort_unstable();
                    let mut b = Vec::new();
                    s.for_overlap(rel, &q, &mut |id| {
                        b.push(id);
                        true
                    });
                    b.sort_unstable();
                    assert_eq!(a, b, "overlap probe {cuts:?}");
                    assert_eq!(s.overlap_count(rel, &q), a.len());
                    assert_eq!(s.exact_count(rel, &q), flat.exact_count(rel, &q));
                }
            }
            assert_eq!(s.endpoints().points(), inst.endpoints().points());
        }
    }

    #[test]
    fn owner_scope_covers_shared_matches_exactly_once() {
        use tdx_logic::parse_tgd;
        // Normalized Figure 5, where shared-t matches exist.
        let mut inst = TemporalInstance::new(schema());
        inst.insert_strs("E", &["Ada", "IBM"], iv(2012, 2013));
        inst.insert_strs("E", &["Ada", "IBM"], iv(2013, 2014));
        inst.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        inst.insert_strs("E", &["Bob", "IBM"], iv(2013, 2015));
        inst.insert_strs("E", &["Bob", "IBM"], iv(2015, 2018));
        inst.insert_strs("S", &["Ada", "18k"], iv(2013, 2014));
        inst.insert_strs("S", &["Ada", "18k"], Interval::from(2014));
        inst.insert_strs("S", &["Bob", "13k"], iv(2015, 2018));
        inst.insert_strs("S", &["Bob", "13k"], Interval::from(2018));
        let atoms = parse_tgd("E(n,c) & S(n,s) -> Z()").unwrap().body;
        let mut expected = Vec::new();
        inst.find_matches(&atoms, TemporalMode::Shared, &[], None, |m| {
            expected.push(format!("{:?}@{:?}", m.bindings(), m.shared_interval()));
            true
        })
        .unwrap();
        expected.sort();
        for cuts in [&[2014][..], &[2013, 2015][..]] {
            let s = ShardedFactStore::build_from(
                &inst,
                TimelinePartition::new(&Breakpoints::from_points(cuts.iter().copied())),
                true,
            );
            let mut got = Vec::new();
            for p in 0..s.part_count() {
                s.part(p)
                    .find_matches(
                        &atoms,
                        TemporalMode::Shared,
                        &[],
                        None,
                        SearchOptions::default(),
                        PartScope::Owner,
                        &mut |m| {
                            got.push(format!("{:?}@{:?}", m.bindings(), m.shared_interval()));
                            true
                        },
                    )
                    .unwrap();
            }
            got.sort();
            assert_eq!(got, expected, "cuts {cuts:?}");
            // The flat matcher over the sharded store agrees too.
            let mut flat = Vec::new();
            s.find_matches_with(
                &atoms,
                TemporalMode::Shared,
                &[],
                None,
                SearchOptions::default(),
                |m| {
                    flat.push(format!("{:?}@{:?}", m.bindings(), m.shared_interval()));
                    true
                },
            )
            .unwrap();
            flat.sort();
            assert_eq!(flat, expected, "flat matcher, cuts {cuts:?}");
        }
    }

    #[test]
    fn full_scope_sees_replicated_overlap_images() {
        use tdx_logic::parse_tgd;
        // E(Bob, IBM) @ [2013, 2018) crosses the 2014 boundary; S(Bob, 13k)
        // @ [2015, ∞) is owned by the upper partition. Their overlapping
        // image must be visible in a single partition via replicas.
        let s = sharded(&[2014]);
        let atoms = parse_tgd("E(n,c) & S(n,s) -> Z()").unwrap().body;
        let mut images = std::collections::BTreeSet::new();
        for p in 0..s.part_count() {
            let view = s.part(p);
            view.find_matches(
                &atoms,
                TemporalMode::FreeOverlapping,
                &[],
                None,
                SearchOptions::default(),
                PartScope::Full,
                &mut |m| {
                    let mut img: Vec<(RelId, u32)> = m
                        .atom_rows()
                        .iter()
                        .map(|&(rel, local)| (rel, view.global_row(rel, local)))
                        .collect();
                    img.sort_unstable();
                    images.insert(img);
                    true
                },
            )
            .unwrap();
        }
        // Reference: the flat instance finds the same image set.
        let inst = figure4();
        let mut expected = std::collections::BTreeSet::new();
        inst.find_matches(&atoms, TemporalMode::FreeOverlapping, &[], None, |m| {
            let mut img: Vec<(RelId, u32)> = m.atom_rows().to_vec();
            img.sort_unstable();
            expected.insert(img);
            true
        })
        .unwrap();
        assert_eq!(images, expected);
    }

    #[test]
    fn delta_scope_pivots_on_the_delta_suffix() {
        use tdx_logic::parse_tgd;
        let inst = figure4();
        let pre: Vec<Vec<TemporalFact>> = (0..2).map(|r| inst.facts(RelId(r)).to_vec()).collect();
        let delta_e = vec![TemporalFact {
            data: row([Value::str("Cyd"), Value::str("IBM")]),
            interval: iv(2013, 2018),
        }];
        let empty: Vec<TemporalFact> = Vec::new();
        let s = ShardedFactStore::build_with_delta(
            schema(),
            TimelinePartition::new(&Breakpoints::from_points([2014])),
            true,
            |rel| {
                if rel.0 == 0 {
                    (&pre[0], &delta_e)
                } else {
                    (&pre[1], &empty)
                }
            },
        );
        assert_eq!(s.len(RelId(0)), 4);
        let delta: Vec<String> = s
            .facts_since(RelId(0), Generation(0))
            .map(|(_, f)| f.data[0].to_string())
            .collect();
        assert_eq!(delta, vec!["Cyd"]);
        assert!(s.has_delta_since(Generation(0)));
        // Delta-scoped matching only reports images touching Cyd's fact.
        let atoms = parse_tgd("E(n,c) & E(m,c) -> Z()").unwrap().body;
        let mut names = std::collections::BTreeSet::new();
        for p in 0..s.part_count() {
            s.part(p)
                .find_matches(
                    &atoms,
                    TemporalMode::Shared,
                    &[],
                    None,
                    SearchOptions::default(),
                    PartScope::OwnerDelta,
                    &mut |m| {
                        names.insert(format!(
                            "{}/{}",
                            m.value(Var::new("n")).unwrap(),
                            m.value(Var::new("m")).unwrap()
                        ));
                        true
                    },
                )
                .unwrap();
        }
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            vec!["Bob/Cyd", "Cyd/Bob", "Cyd/Cyd"]
        );
    }
}
