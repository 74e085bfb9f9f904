//! The list-level kernels behind the session engine
//! (`ChaseEngine::IndexedSemiNaive` and `ChaseEngine::PartitionedParallel`,
//! both run by [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange))
//! and the distributed coordinator.
//!
//! The paper's c-chase (Section 4.3) is defined fact-at-a-time, but its
//! normalization step makes the target fragment along interval breakpoints,
//! so the concrete timeline decomposes into independent slices the same way
//! the abstract chase decomposes into epochs. The kernels here work on
//! per-relation fact lists split into a settled `pre` block and a changed
//! `delta` block. `pre` is edited in place through [`Settled`], whose
//! index answers "which settled facts does this fresh one touch?" by
//! lookup (`chase/settled.rs`), so a pass costs the delta and what it
//! touches:
//!
//! * **Algorithm-1 discovery** ([`discover_images`]): 2-atom conjunctions
//!   run the [`sweep_lists`] overlap join, one parallel task per
//!   conjunction, restricted to images touching a *fresh* fact after the
//!   first pass; wider conjunctions fall back to the backtracking matcher
//!   over a replicated [`ShardedFactStore`], cut at coarse timeline
//!   breakpoints so every overlap image is visible inside one partition;
//! * **re-fragmentation to a fixpoint** ([`refragment_lists`]): discovered
//!   groups plus shared-null alignment become per-fact cuts
//!   ([`image_cuts`], [`base_align_cuts`]) applied by [`apply_cuts`]; a
//!   cut settled fact leaves `pre` in place and its fragments join the
//!   delta block, so the next pass visits only what changed;
//! * **the egd rewrite** ([`rewrite_values`]): the facts holding a merged
//!   null go through the round's union-find; unchanged delta facts settle
//!   into `pre` and changed ones form the new `delta` — the
//!   delta-restricted (semi-naive) split the next egd round joins against.
//!
//! Work fans out through [`run_tasks`], which merges in task order, so
//! results are byte-identical across thread counts. The equivalence
//! argument is spelled out in `docs/parallelism.md`; `tests/equivalence.rs`
//! checks every engine against the Definition-16 reference.

use crate::chase::concrete::AnnotatedUnionFind;
use crate::chase::settled::{null_bases, Settled, SettledIndex};
use crate::error::Result;
use crate::normalize::{merge_image_sets, FactRef};
use std::sync::Arc;
use tdx_logic::{Atom, RelId, Schema, Var};
use tdx_storage::fxhash::{FxHashMap, FxHashSet};
use tdx_storage::{
    NullId, PartScope, Row, SearchOptions, ShardedFactStore, TemporalFact, TemporalMode, Value,
};
use tdx_temporal::{fragment_interval, Breakpoints, Interval, TimePoint, TimelinePartition};

/// Per-relation fact lists: the working representation between rebuilds.
/// `pre` holds facts unchanged since the last round, `delta` the changed
/// ones; a fact's global id is its position in `pre ++ delta`. One alias
/// crate-wide — the cluster protocol ships this exact representation, and
/// the incremental session's materialized target lives in it between
/// batches.
pub(crate) use crate::chase::cluster::protocol::FactLists;

/// Runs `f(0..n)` on up to `threads` scoped workers (inline when either
/// count is one) and returns the results in task order — so the merge, and
/// therefore the chase result, is deterministic regardless of thread count
/// and scheduling.
pub(crate) fn run_tasks<R: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    // Workers beyond the machine's cores only add spawn and scheduling
    // overhead — asking for 4 threads on a 1-core box must not be slower
    // than asking for 1. The core count is read only when the fan-out
    // could matter: on Linux the query reads cgroup files (≈20 µs).
    let threads = if threads <= 1 || n <= 1 {
        1
    } else {
        threads.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
    };
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().expect("task results lock").push((i, r));
            });
        }
    });
    let mut out = results.into_inner().expect("workers joined");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// One atom of a compiled pair, as a key over facts: the relation, the
/// constant and intra-atom-equality filters a fact must pass to match the
/// atom, and the columns its join with the other atom reads (in join
/// order, so two facts join iff their keys are equal value by value).
#[derive(Clone, PartialEq)]
pub(crate) struct AtomKey {
    pub(crate) rel: RelId,
    consts: Vec<(usize, Value)>,
    intra: Vec<(usize, usize)>,
    cols: Vec<usize>,
}

impl AtomKey {
    /// The number of key columns.
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Whether `data` passes the atom's constant and intra-atom equality
    /// filters.
    pub(crate) fn passes(&self, data: &[Value]) -> bool {
        !self.consts.iter().any(|&(col, ref v)| data[col] != *v)
            && !self.intra.iter().any(|&(c1, c2)| data[c1] != data[c2])
    }

    /// The hash of `data`'s key columns. No per-fact allocation; a
    /// collision only groups unrelated facts, and callers re-check with
    /// [`agrees`](Self::agrees).
    pub(crate) fn key_hash(&self, data: &[Value]) -> u64 {
        hash_values(self.cols.iter().map(|&c| &data[c]))
    }

    /// The hash `map`'s key gives the facts that agree with `data` under
    /// `self`, where `proj` places `map`'s key columns in `self`'s key
    /// (see [`served_by`](Self::served_by)).
    pub(crate) fn projected_hash(&self, data: &[Value], proj: &[usize]) -> u64 {
        hash_values(proj.iter().map(|&j| &data[self.cols[j]]))
    }

    /// Whether `map`'s index finds every fact that passes `self`: the
    /// same relation, no filter `self` lacks, and key columns among
    /// `self`'s. Returns the place of each of `map`'s key columns in
    /// `self`'s key.
    pub(crate) fn served_by(&self, map: &AtomKey) -> Option<Vec<usize>> {
        if map.rel != self.rel
            || map.cols.is_empty()
            || !map.consts.iter().all(|c| self.consts.contains(c))
            || !map.intra.iter().all(|c| self.intra.contains(c))
        {
            return None;
        }
        map.cols
            .iter()
            .map(|c| self.cols.iter().position(|x| x == c))
            .collect()
    }

    /// Whether `data`'s key under `self` equals `other_data`'s under
    /// `other`.
    pub(crate) fn agrees(&self, data: &[Value], other: &AtomKey, other_data: &[Value]) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(&a, &b)| data[a] == other_data[b])
    }
}

fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = tdx_storage::fxhash::FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// A 2-atom conjunction compiled for the sweep join: one [`AtomKey`] per
/// atom, whose key columns pair up as the cross-atom join.
pub(crate) struct PairSpec {
    pub(crate) sides: [AtomKey; 2],
}

impl PairSpec {
    /// Compiles a 2-atom conjunction; `None` when a relation is unknown
    /// (the caller falls back to the generic matcher, which reports the
    /// proper error).
    fn compile(atoms: &[Atom], schema: &Schema) -> Option<PairSpec> {
        PairSpec::compile_across([(&atoms[0], schema), (&atoms[1], schema)])
    }

    /// Compiles two atoms, each over its own schema (a tgd pairs a source
    /// body atom with a target head atom); `None` when a relation is
    /// unknown or an arity does not match.
    pub(crate) fn compile_across(atoms: [(&Atom, &Schema); 2]) -> Option<PairSpec> {
        let mut sides: [AtomKey; 2] = [0, 1].map(|_| AtomKey {
            rel: RelId(0),
            consts: Vec::new(),
            intra: Vec::new(),
            cols: Vec::new(),
        });
        let mut first_of: Vec<(Var, usize, usize)> = Vec::new(); // var → (atom, col)
        for (ai, (atom, schema)) in atoms.into_iter().enumerate() {
            sides[ai].rel = schema.rel_id(atom.relation)?;
            if schema.relation(sides[ai].rel).arity() != atom.arity() {
                return None;
            }
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    tdx_logic::Term::Const(c) => sides[ai].consts.push((col, Value::Const(*c))),
                    tdx_logic::Term::Var(v) => match first_of.iter().find(|(w, _, _)| w == v) {
                        None => first_of.push((*v, ai, col)),
                        Some(&(_, fa, fc)) => {
                            if fa == ai {
                                sides[ai].intra.push((fc, col));
                            } else {
                                sides[0].cols.push(fc);
                                sides[1].cols.push(col);
                            }
                        }
                    },
                }
            }
        }
        Some(PairSpec { sides })
    }

    /// Whether the atoms share a variable.
    pub(crate) fn joins(&self) -> bool {
        !self.sides[0].cols.is_empty()
    }

    /// Whether `fact` passes atom `side`'s filters.
    pub(crate) fn passes(&self, fact: &TemporalFact, side: usize) -> bool {
        self.sides[side].passes(&fact.data)
    }

    /// The hash of `fact`'s join columns as atom `side`.
    pub(crate) fn key_hash(&self, fact: &TemporalFact, side: usize) -> u64 {
        self.sides[side].key_hash(&fact.data)
    }
}

/// Splits `conjs` into the 2-atom bodies the sweep join runs (compiled,
/// in order) and the rest, which need the generic matcher. Single-atom
/// bodies are dropped: their images are singletons and can never cut.
pub(crate) fn split_bodies<'c>(
    schema: &Schema,
    conjs: &[&'c [Atom]],
) -> (Vec<PairSpec>, Vec<&'c [Atom]>) {
    let mut specs = Vec::new();
    let mut generic = Vec::new();
    for &atoms in conjs {
        if atoms.len() < 2 {
            continue;
        }
        match (atoms.len() == 2)
            .then(|| PairSpec::compile(atoms, schema))
            .flatten()
        {
            Some(spec) => specs.push(spec),
            None => generic.push(atoms),
        }
    }
    (specs, generic)
}

/// Compiles every multi-atom conjunction of `conjs` for the sweep join, or
/// `None` if any needs the generic matcher (more than two atoms, or an
/// unknown relation). This is the gate for **server-side** discovery: a
/// server can run the sweep over its local lists only when every
/// conjunction is sweepable, because the generic fallback needs the
/// global replicated store.
pub(crate) fn sweep_specs(schema: &Schema, conjs: &[&[Atom]]) -> Option<Vec<PairSpec>> {
    let (specs, generic) = split_bodies(schema, conjs);
    generic.is_empty().then_some(specs)
}

/// Packs a fact reference into the discovery dedup key.
pub(crate) fn pack_ref((rel, gid): FactRef) -> u64 {
    ((rel.0 as u64) << 32) | gid as u64
}

/// Inverse of [`pack_ref`].
pub(crate) fn unpack_ref(k: u64) -> FactRef {
    (RelId((k >> 32) as u32), k as u32)
}

/// Runs the sweep join for every compiled spec (one parallel task each) and
/// returns the discovered pair images as packed sorted key pairs, deduped
/// per spec, in spec order. Shared by coordinator-local discovery
/// ([`discover_images`]) and the servers' fused-round discovery — byte
/// identity across the two paths rests on both emitting the same *set* of
/// pairs, which this function pins. `settled`, when given, indexes `pre`
/// with join maps for exactly `specs` (see [`SettledIndex`]).
pub(crate) fn sweep_images(
    pre: &FactLists,
    delta: &FactLists,
    fresh: Option<&[Vec<bool>]>,
    specs: &[PairSpec],
    threads: usize,
    settled: Option<&SettledIndex>,
) -> Vec<(u64, u64)> {
    run_tasks(threads, specs.len(), |i| {
        let mut pairs: FxHashSet<(u64, u64)> = Default::default();
        let mut out: Vec<(u64, u64)> = Vec::new();
        sweep_lists(
            pre,
            delta,
            fresh,
            &specs[i],
            settled.map(|s| (s, i)),
            |a, b| {
                let (ka, kb) = (pack_ref(a), pack_ref(b));
                let key = if ka <= kb { (ka, kb) } else { (kb, ka) };
                if pairs.insert(key) {
                    out.push(key);
                }
            },
        );
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Sweep-based overlap join for a 2-atom conjunction over the global fact
/// lists — the list kernels' replacement for backtracking image
/// discovery. Candidates are filtered per atom, bucketed by join key,
/// sorted by interval start, and swept: a pair is emitted iff the two
/// intervals overlap (for two atoms, pairwise overlap *is* the non-empty
/// common intersection of `TemporalMode::FreeOverlapping`). Diagonal pairs
/// (both atoms on one fact) are singleton images and contribute nothing to
/// Algorithm 1's groups, so they are skipped. With `fresh` set, only pairs
/// touching a fresh (just-changed) fact are emitted — the semi-naive
/// restriction of incremental renormalization: a pair of settled facts was
/// already discovered, and aligned, in the round that last changed one of
/// them.
fn sweep_lists(
    pre: &FactLists,
    delta: &FactLists,
    fresh: Option<&[Vec<bool>]>,
    spec: &PairSpec,
    settled: Option<(&SettledIndex, usize)>,
    mut emit: impl FnMut(FactRef, FactRef),
) {
    // Per join key, the candidate (interval, global id, fresh) entries of
    // each atom side. Keys are *hashes* of the joined values.
    type Entry = (Interval, u32, bool);
    // Restricted (semi-naive) runs: only join keys carried by some fresh
    // fact can contribute a new pair, so collect the fresh keys per side
    // first; a settled fact is a candidate only under one of the other
    // side's fresh keys.
    let restricted = fresh.is_some();
    let mut fresh_keys: [FxHashSet<u64>; 2] = [Default::default(), Default::default()];
    if let Some(flags) = fresh {
        for (ai, keys) in fresh_keys.iter_mut().enumerate() {
            let r = spec.sides[ai].rel.0 as usize;
            for (i, fact) in delta[r].iter().enumerate() {
                if flags[r][i] && spec.passes(fact, ai) {
                    keys.insert(spec.key_hash(fact, ai));
                }
            }
        }
        if fresh_keys[0].is_empty() && fresh_keys[1].is_empty() {
            return; // nothing fresh joins this conjunction
        }
    }
    let mut buckets: FxHashMap<u64, [Vec<Entry>; 2]> = FxHashMap::default();
    for ai in 0..2 {
        let r = spec.sides[ai].rel.0 as usize;
        let pre_len = pre[r].len();
        match settled.filter(|_| restricted) {
            // The settled partners of the other side's fresh keys, by
            // lookup: the block itself is never visited.
            Some((idx, si)) => {
                for &key in &fresh_keys[1 - ai] {
                    for pos in idx.join_partners(si, ai, key) {
                        let iv = pre[r][pos as usize].interval;
                        buckets.entry(key).or_default()[ai].push((iv, pos, false));
                    }
                }
            }
            None => {
                for (gid, fact) in pre[r].iter().enumerate() {
                    if !spec.passes(fact, ai) {
                        continue;
                    }
                    let key = spec.key_hash(fact, ai);
                    if restricted && !fresh_keys[1 - ai].contains(&key) {
                        continue; // cannot pair with any fresh fact
                    }
                    let is_fresh = !restricted;
                    buckets.entry(key).or_default()[ai].push((fact.interval, gid as u32, is_fresh));
                }
            }
        }
        for (i, fact) in delta[r].iter().enumerate() {
            if !spec.passes(fact, ai) {
                continue;
            }
            let is_fresh = fresh.is_none_or(|flags| flags[r][i]);
            let key = spec.key_hash(fact, ai);
            if restricted && !is_fresh && !fresh_keys[1 - ai].contains(&key) {
                continue; // cannot pair with any fresh fact
            }
            let gid = (pre_len + i) as u32;
            buckets.entry(key).or_default()[ai].push((fact.interval, gid, is_fresh));
        }
    }
    let (ra, rb) = (spec.sides[0].rel, spec.sides[1].rel);
    for [a_side, b_side] in buckets.values_mut() {
        if a_side.is_empty() || b_side.is_empty() {
            continue;
        }
        a_side.sort_unstable_by_key(|e| e.0.start());
        b_side.sort_unstable_by_key(|e| e.0.start());
        for &(aiv, agid, afresh) in a_side.iter() {
            for &(biv, bgid, bfresh) in b_side.iter() {
                if tdx_temporal::Endpoint::Fin(biv.start()) >= aiv.end() {
                    break; // b and everything after starts at/after a ends
                }
                if (restricted && !(afresh || bfresh)) || !aiv.overlaps(&biv) {
                    continue;
                }
                if ra == rb && agid == bgid {
                    continue; // singleton image
                }
                // Re-check the join columns: bucket keys are hashes.
                if spec.joins() {
                    let fa = fact_at(pre, delta, ra, agid);
                    let fb = fact_at(pre, delta, rb, bgid);
                    if !spec.sides[0].agrees(&fa.data, &spec.sides[1], &fb.data) {
                        continue;
                    }
                }
                emit((ra, agid), (rb, bgid));
            }
        }
    }
}

/// The fact with global id `gid` inside the `pre ++ delta` lists.
pub(crate) fn fact_at<'a>(
    pre: &'a FactLists,
    delta: &'a FactLists,
    rel: RelId,
    gid: u32,
) -> &'a TemporalFact {
    let r = rel.0 as usize;
    let g = gid as usize;
    if g < pre[r].len() {
        &pre[r][g]
    } else {
        &delta[r][g - pre[r].len()]
    }
}

/// Image discovery for Algorithm 1 over the working fact lists.
///
/// 2-atom conjunctions — every dependency body in the scenario suite — go
/// through the [`sweep_lists`] overlap join, one parallel task per
/// conjunction, with no store build at all; restricted runs over an
/// indexed `pre` look its candidates up instead of scanning it. Wider
/// conjunctions fall back to the generic backtracking matcher over a
/// replicated [`ShardedFactStore`] of the whole lists: each image's
/// common intersection meets some partition's range, replicas make all of
/// its facts visible there, and the at-least-one-owner pivot decomposition
/// keeps long-lived facts from being re-enumerated in every partition they
/// span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn discover_images(
    schema: &Arc<Schema>,
    tp: &TimelinePartition,
    pre: &FactLists,
    delta: &FactLists,
    fresh: Option<&[Vec<bool>]>,
    conjs: &[&[Atom]],
    threads: usize,
    sopts: SearchOptions,
    settled: Option<&SettledIndex>,
) -> Result<Vec<Vec<FactRef>>> {
    // Images are deduplicated as packed `(rel << 32 | gid)` keys — a pair
    // for the ubiquitous 2-atom bodies, a heap key above — so duplicate
    // enumerations (symmetric self-joins) cost a hash probe, not an
    // allocation.
    let pack = pack_ref;
    let unpack = unpack_ref;
    let (specs, generic) = split_bodies(schema, conjs);
    let settled = settled.filter(|idx| idx.indexes_bodies(conjs));
    let swept = sweep_images(pre, delta, fresh, &specs, threads, settled);
    let mut from_matcher: Vec<Result<Vec<Vec<u64>>>> = Vec::new();
    if !generic.is_empty() {
        let sharded =
            ShardedFactStore::build_with_delta(Arc::clone(schema), tp.clone(), true, |rel| {
                (
                    pre[rel.0 as usize].as_slice(),
                    delta[rel.0 as usize].as_slice(),
                )
            });
        // Partitions worth scanning: all of them on a full pass, else the
        // ones some fresh fact overlaps (an image with a fresh member is
        // visible wherever its common intersection lands — inside the
        // fresh fact's span).
        let dirty: Vec<usize> = match fresh {
            None => (0..tp.len()).collect(),
            Some(flags) => {
                let mut mark = vec![false; tp.len()];
                for (r, rel_flags) in flags.iter().enumerate() {
                    for (i, is_fresh) in rel_flags.iter().enumerate() {
                        if *is_fresh {
                            let iv = &delta[r][i].interval;
                            let (lo, hi) = tp.parts_overlapping(iv);
                            for d in mark.iter_mut().take(hi + 1).skip(lo) {
                                *d = true;
                            }
                        }
                    }
                }
                (0..tp.len()).filter(|&p| mark[p]).collect()
            }
        };
        let ntasks = dirty.len() * generic.len();
        from_matcher = run_tasks(threads, ntasks, |t| -> Result<Vec<Vec<u64>>> {
            let view = sharded.part(dirty[t / generic.len()]);
            let atoms = generic[t % generic.len()];
            let mut seen: FxHashSet<Vec<u64>> = Default::default();
            let mut out = Vec::new();
            let mut key: Vec<u64> = Vec::with_capacity(atoms.len());
            view.find_matches(
                atoms,
                TemporalMode::FreeOverlapping,
                &[],
                None,
                sopts,
                PartScope::OwnerTouch,
                &mut |m| {
                    key.clear();
                    key.extend(
                        m.atom_rows()
                            .iter()
                            .map(|&(rel, local)| pack((rel, view.global_row(rel, local)))),
                    );
                    key.sort_unstable();
                    key.dedup();
                    if key.len() >= 2 && seen.insert(key.clone()) {
                        out.push(key.clone());
                    }
                    true
                },
            )?;
            Ok(out)
        });
    }
    let mut seen: FxHashSet<Vec<u64>> = Default::default();
    let mut out: Vec<Vec<FactRef>> = Vec::new();
    for image in swept.into_iter().map(|(a, b)| vec![a, b]).chain(
        from_matcher
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .flatten(),
    ) {
        if seen.insert(image.clone()) {
            out.push(image.iter().map(|&k| unpack(k)).collect());
        }
    }
    Ok(out)
}

/// Adds the shared-null-base alignment cuts. Definition 16 places the fresh
/// nulls of one tgd step in all of that step's head facts; when
/// normalization fragments those sibling facts differently, one annotated
/// null splits into unaligned occurrences, and the `(base, interval)`-keyed
/// egd rewrite would update one sibling but not another. So the facts
/// connected through shared bases are cut at their common endpoints, which
/// preserves `⟦·⟧`.
///
/// Only a component holding a fresh fact can need a cut. Every other
/// component is unchanged since the pass that last aligned it: the lists
/// enter a fixpoint aligned, a cut fact's fragments are fresh and keep its
/// bases, and a rewrite only removes members (a subset of an aligned set
/// is aligned). So components are gathered outward from the fresh facts:
/// through `settled`'s null-base index over `pre` (`None` only when `pre`
/// is empty) and a map over `delta` — no union-find over the whole block.
pub(crate) fn base_align_cuts(
    pre: &FactLists,
    delta: &FactLists,
    fresh: &[Vec<bool>],
    settled: Option<&SettledIndex>,
    cuts: &mut CutMap,
) {
    debug_assert!(settled.is_some() || pre.iter().all(Vec::is_empty));
    let mut delta_bases: FxHashMap<NullId, Vec<FactRef>> = FxHashMap::default();
    for (r, facts) in delta.iter().enumerate() {
        for (i, fact) in facts.iter().enumerate() {
            let gid = (pre[r].len() + i) as u32;
            for b in null_bases(&fact.data) {
                delta_bases
                    .entry(b)
                    .or_default()
                    .push((RelId(r as u32), gid));
            }
        }
    }
    if delta_bases.is_empty() {
        return; // no fresh fact holds a null
    }
    // The facts holding base `b`, settled ones first.
    let holding = |b: NullId, out: &mut Vec<FactRef>| {
        out.clear();
        if let Some(idx) = settled {
            out.extend(idx.with_base(b).into_iter().filter(|&(rel, p)| {
                pre[rel.0 as usize][p as usize]
                    .data
                    .contains(&Value::Null(b))
            }));
        }
        out.extend(delta_bases.get(&b).into_iter().flatten().copied());
    };
    let mut seen: FxHashSet<u64> = Default::default();
    let mut seen_bases: FxHashSet<NullId> = Default::default();
    let (mut members, mut queue, mut holders) = (Vec::new(), Vec::new(), Vec::new());
    for (r, facts) in delta.iter().enumerate() {
        for (i, fact) in facts.iter().enumerate() {
            let seed = (RelId(r as u32), (pre[r].len() + i) as u32);
            if !fresh[r][i] || !seen.insert(pack_ref(seed)) {
                continue;
            }
            members.clear();
            members.push(seed);
            queue.clear();
            queue.extend(null_bases(&fact.data).filter(|b| seen_bases.insert(*b)));
            while let Some(b) = queue.pop() {
                holding(b, &mut holders);
                for &f in &holders {
                    if seen.insert(pack_ref(f)) {
                        members.push(f);
                        let data = &fact_at(pre, delta, f.0, f.1).data;
                        queue.extend(null_bases(data).filter(|b| seen_bases.insert(*b)));
                    }
                }
            }
            if members.len() < 2 {
                continue;
            }
            let ivs: Vec<Interval> = members
                .iter()
                .map(|&(rel, gid)| fact_at(pre, delta, rel, gid).interval)
                .collect();
            let bps = Breakpoints::from_intervals(ivs.iter());
            for (&(rel, gid), iv) in members.iter().zip(&ivs) {
                let pts: Vec<TimePoint> = bps.interior_of(iv).collect();
                if !pts.is_empty() {
                    cuts.entry((rel, gid)).or_default().extend(pts);
                }
            }
        }
    }
}

/// The per-fact cut points one fixpoint iteration wants applied.
pub(crate) type CutMap = FxHashMap<(RelId, u32), Vec<TimePoint>>;

/// Naive normalization's cut rule: every fact is cut at every interior
/// endpoint of the global breakpoint set.
pub(crate) fn naive_cuts(pre: &FactLists, delta: &FactLists, cuts: &mut CutMap) {
    let bps = Breakpoints::from_intervals(
        pre.iter()
            .chain(delta.iter())
            .flat_map(|facts| facts.iter().map(|f| &f.interval)),
    );
    for (r, (p, d)) in pre.iter().zip(delta.iter()).enumerate() {
        for (gid, fact) in p.iter().chain(d.iter()).enumerate() {
            let pts: Vec<TimePoint> = bps.interior_of(&fact.interval).collect();
            if !pts.is_empty() {
                cuts.insert((RelId(r as u32), gid as u32), pts);
            }
        }
    }
}

/// Algorithm 1's cut rule over discovered overlap images: merge the images
/// into groups ([`merge_image_sets`]), then cut every member at the group's
/// interior breakpoints. Order-insensitive in the image list — the group
/// partition depends only on the image *set* and `Breakpoints` sorts — so
/// coordinator-local and server-side discovery produce identical cuts from
/// identical sets.
pub(crate) fn image_cuts(
    images: &[Vec<FactRef>],
    pre: &FactLists,
    delta: &FactLists,
    cuts: &mut CutMap,
) {
    for group in merge_image_sets(images) {
        let ivs: Vec<Interval> = group
            .iter()
            .map(|&(rel, gid)| fact_at(pre, delta, rel, gid).interval)
            .collect();
        let bps = Breakpoints::from_intervals(ivs.iter());
        for (&(rel, gid), iv) in group.iter().zip(ivs.iter()) {
            let pts: Vec<TimePoint> = bps.interior_of(iv).collect();
            if !pts.is_empty() {
                cuts.entry((rel, gid)).or_default().extend(pts);
            }
        }
    }
}

/// Applies one iteration's cuts: cut facts dissolve into their fragments,
/// fragments join the delta block (they are "changed" for the next round's
/// matching) and become the next iteration's fresh set, and a fragment
/// equal to a fact that stays dissolves into it. Cut settled facts are
/// deleted from `pre` in place — the survivors keep their order and the
/// index follows — so the settled block is never copied. Returns the new
/// `(delta, fresh)`.
pub(crate) fn apply_cuts(
    pre: &mut Settled<'_>,
    cuts: &CutMap,
    mut delta: FactLists,
) -> (FactLists, Vec<Vec<bool>>) {
    let nrels = delta.len();
    let row_hash = |data: &Row| -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tdx_storage::fxhash::FxHasher::default();
        data.hash(&mut h);
        h.finish()
    };
    let mut cut_gids: Vec<Vec<u32>> = vec![Vec::new(); nrels];
    for &(rel, gid) in cuts.keys() {
        cut_gids[rel.0 as usize].push(gid);
    }
    let mut ndelta: FactLists = vec![Vec::new(); nrels];
    let mut nfresh: Vec<Vec<bool>> = vec![Vec::new(); nrels];
    for r in 0..nrels {
        let rel = RelId(r as u32);
        let mut gids = std::mem::take(&mut cut_gids[r]);
        if gids.is_empty() {
            ndelta[r] = std::mem::take(&mut delta[r]);
            nfresh[r] = vec![false; ndelta[r].len()];
            continue;
        }
        gids.sort_unstable();
        let pre_len = pre.lists[r].len() as u32;
        let (pre_cut, delta_cut) = gids.split_at(gids.partition_point(|&g| g < pre_len));
        // Uncut delta facts first, in order. Only those sharing a row with
        // a cut fact can collide with a fragment, so only they are hashed;
        // uncut settled facts are found through the index.
        let cut_rows: FxHashSet<u64> = gids
            .iter()
            .map(|&g| row_hash(&fact_at(pre.lists, &delta, rel, g).data))
            .collect();
        let mut kept: FxHashSet<(Row, Interval)> = Default::default();
        let mut cut_facts: Vec<(TemporalFact, &Vec<TimePoint>)> = pre_cut
            .iter()
            .map(|&g| (pre.lists[r][g as usize].clone(), &cuts[&(rel, g)]))
            .collect();
        let mut next_cut = delta_cut.iter().peekable();
        for (i, fact) in std::mem::take(&mut delta[r]).into_iter().enumerate() {
            let gid = pre_len + i as u32;
            if next_cut.next_if_eq(&&gid).is_some() {
                cut_facts.push((fact, &cuts[&(rel, gid)]));
                continue;
            }
            if cut_rows.contains(&row_hash(&fact.data)) {
                kept.insert((Arc::clone(&fact.data), fact.interval));
            }
            ndelta[r].push(fact);
            nfresh[r].push(false);
        }
        for (fact, pts) in cut_facts {
            let bps = Breakpoints::from_points(pts.iter().copied());
            for iv in fragment_interval(&fact.interval, &bps) {
                let settled_twin = pre
                    .position_of(rel, &fact.data, iv)
                    .is_some_and(|p| pre_cut.binary_search(&p).is_err());
                if !settled_twin && kept.insert((Arc::clone(&fact.data), iv)) {
                    ndelta[r].push(TemporalFact {
                        data: Arc::clone(&fact.data),
                        interval: iv,
                    });
                    nfresh[r].push(true);
                }
            }
        }
        pre.delete(rel, pre_cut);
    }
    (ndelta, nfresh)
}

/// Re-fragments the working fact lists to a fixpoint. Per iteration it
/// collects cuts from (a) egd-body candidate groups (sweep/matcher
/// discovery, restricted to images touching a fresh fact), or every fact at
/// every endpoint (when `naive`), plus (b) shared-base alignment; applies
/// them; and stops once no cut remains. Fragments join the delta block
/// (they are "changed" for the next round's matching) and are the next
/// iteration's fresh set; cut settled facts leave `pre` in place.
/// `renorm_bodies = None` applies the alignment cuts only (paper-faithful
/// rounds). Returns the final delta block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refragment_lists(
    schema: &Arc<Schema>,
    tp: &TimelinePartition,
    threads: usize,
    sopts: SearchOptions,
    renorm_bodies: Option<&[&[Atom]]>,
    naive: bool,
    pre: &mut Settled<'_>,
    mut delta: FactLists,
) -> Result<FactLists> {
    let mut fresh: Vec<Vec<bool>> = delta.iter().map(|d| vec![true; d.len()]).collect();
    loop {
        let mut cuts = CutMap::default();
        let (lists, settled) = pre.parts();
        if naive && renorm_bodies.is_some() {
            naive_cuts(lists, &delta, &mut cuts);
        } else if let Some(conjs) = renorm_bodies {
            if !conjs.is_empty() {
                let images = discover_images(
                    schema,
                    tp,
                    lists,
                    &delta,
                    Some(&fresh),
                    conjs,
                    threads,
                    sopts,
                    settled,
                )?;
                image_cuts(&images, lists, &delta, &mut cuts);
            }
        }
        base_align_cuts(lists, &delta, &fresh, settled, &mut cuts);
        if cuts.is_empty() {
            return Ok(delta);
        }
        (delta, fresh) = apply_cuts(pre, &cuts, delta);
    }
}

/// Rewrites the facts the round's union-find changes, splitting the
/// result: unchanged delta facts settle into `pre` (appended, in order),
/// and every changed fact leaves its place for the returned delta block,
/// in `pre ++ delta` order. A changed fact equal to one that stays, or to
/// an earlier changed one, merges into it. Only a fact holding a merged
/// null at its own interval can change, so settled facts are found
/// through the null-base index rather than by visiting the block.
pub(crate) fn rewrite_values(
    pre: &mut Settled<'_>,
    delta: FactLists,
    uf: &mut AnnotatedUnionFind,
) -> FactLists {
    let nrels = delta.len();
    let resolve = |uf: &mut AnnotatedUnionFind, fact: &TemporalFact| -> Option<Row> {
        if !fact.data.iter().any(Value::is_null) {
            return None;
        }
        let new_data: Row = fact
            .data
            .iter()
            .map(|v| uf.resolve(v, fact.interval))
            .collect();
        (new_data[..] != fact.data[..]).then_some(new_data)
    };
    let mut candidates: Vec<(RelId, u32)> = Vec::new();
    if let (lists, Some(idx)) = pre.parts() {
        for (b, iv) in uf.merged_nulls() {
            candidates.extend(idx.with_base(b).into_iter().filter(|&(rel, p)| {
                let f = &lists[rel.0 as usize][p as usize];
                f.interval == iv && f.data.contains(&Value::Null(b))
            }));
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    let mut changed: FactLists = vec![Vec::new(); nrels];
    let mut gone: Vec<Vec<u32>> = vec![Vec::new(); nrels];
    for (rel, p) in candidates {
        let r = rel.0 as usize;
        let fact = &pre.lists[r][p as usize];
        if let Some(data) = resolve(uf, fact) {
            changed[r].push(TemporalFact {
                data,
                interval: fact.interval,
            });
            gone[r].push(p);
        }
    }
    for (r, facts) in delta.into_iter().enumerate() {
        let rel = RelId(r as u32);
        pre.delete(rel, &std::mem::take(&mut gone[r]));
        for fact in facts {
            match resolve(uf, &fact) {
                Some(data) => changed[r].push(TemporalFact {
                    data,
                    interval: fact.interval,
                }),
                None => pre.push(rel, fact),
            }
        }
    }
    let mut ndelta: FactLists = vec![Vec::new(); nrels];
    for (r, facts) in changed.into_iter().enumerate() {
        let rel = RelId(r as u32);
        let mut kept: FxHashSet<(Row, Interval)> = Default::default();
        for fact in facts {
            if !pre.contains(rel, &fact.data, fact.interval)
                && kept.insert((Arc::clone(&fact.data), fact.interval))
            {
                ndelta[r].push(fact);
            }
        }
    }
    ndelta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::concrete::{c_chase_with, ChaseOptions};
    use crate::error::TdxError;
    use crate::hom::hom_equivalent;
    use crate::semantics::semantics;
    use crate::verify::check_against_abstract_chase;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd, SchemaMapping};
    use tdx_storage::TemporalInstance;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn paper_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap().named("st1"),
                parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)")
                    .unwrap()
                    .named("st2"),
            ],
            vec![parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2")
                .unwrap()
                .named("fd")],
        )
        .unwrap()
    }

    fn figure4(mapping: &SchemaMapping) -> TemporalInstance {
        let mut i = TemporalInstance::new(Arc::new(mapping.source().clone()));
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    /// Figure 9: five target facts, two of them with a null, after 5 tgd
    /// steps on Figure 5's normalized source (3 σ2, then 2 σ1).
    #[test]
    fn paper_example_matches_sequential_engine() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        for threads in [1usize, 2, 4] {
            let par = c_chase_with(
                &source,
                &mapping,
                &ChaseOptions::partitioned_parallel(threads),
            )
            .unwrap();
            check_against_abstract_chase(&source, &mapping, Ok(&par.target))
                .unwrap_or_else(|e| panic!("threads = {threads}: {e}"));
            assert_eq!(par.target.total_len(), 5);
            let null_facts = par
                .target
                .iter_all()
                .filter(|(_, f)| f.data.iter().any(Value::is_null));
            assert_eq!(null_facts.count(), 2);
            assert_eq!(par.stats.tgd_steps, 5);
            assert_eq!(par.stats.nulls_created, 2);
            assert_eq!(par.stats.egd_rounds, 0);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let one = c_chase_with(&source, &mapping, &ChaseOptions::partitioned_parallel(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let many = c_chase_with(
                &source,
                &mapping,
                &ChaseOptions::partitioned_parallel(threads),
            )
            .unwrap();
            assert_eq!(one.target, many.target, "threads = {threads}");
        }
    }

    #[test]
    fn failure_on_conflicting_sources() {
        let mapping = paper_mapping();
        let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "18k"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "20k"], iv(5, 15));
        for threads in [1usize, 4] {
            let err = c_chase_with(&ic, &mapping, &ChaseOptions::partitioned_parallel(threads))
                .unwrap_err();
            assert!(
                matches!(err, TdxError::ChaseFailure { .. }),
                "threads = {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_source() {
        let mapping = paper_mapping();
        let ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        let result = c_chase_with(&ic, &mapping, &ChaseOptions::partitioned_parallel(4)).unwrap();
        assert!(result.target.is_empty());
        assert_eq!(result.stats.tgd_steps, 0);
    }

    #[test]
    fn trace_and_options_are_honored() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let opts = ChaseOptions {
            record_trace: true,
            coalesce_result: true,
            ..ChaseOptions::partitioned_parallel(2)
        };
        let result = c_chase_with(&source, &mapping, &opts).unwrap();
        assert!(result.target.is_coalesced());
        assert!(result
            .trace
            .iter()
            .any(|l| l.contains("timeline partitions")));
        // Paper-faithful and naive-normalization variants stay equivalent.
        let seq = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap();
        for variant in [
            ChaseOptions {
                renormalize_between_egd_rounds: false,
                ..ChaseOptions::partitioned_parallel(2)
            },
            ChaseOptions {
                naive_normalization: true,
                ..ChaseOptions::partitioned_parallel(2)
            },
        ] {
            let par = c_chase_with(&source, &mapping, &variant).unwrap();
            assert!(hom_equivalent(
                &semantics(&seq.target),
                &semantics(&par.target)
            ));
        }
    }
}
