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
//! `delta` block:
//!
//! * **Algorithm-1 discovery** ([`discover_images`]): 2-atom conjunctions
//!   run the [`sweep_lists`] overlap join, one parallel task per
//!   conjunction, restricted to images touching a *fresh* fact after the
//!   first pass; wider conjunctions fall back to the backtracking matcher
//!   over a replicated [`ShardedFactStore`], cut at coarse timeline
//!   breakpoints so every overlap image is visible inside one partition;
//! * **re-fragmentation to a fixpoint** ([`refragment_lists`]): discovered
//!   groups plus shared-null alignment become per-fact cuts
//!   ([`image_cuts`], [`base_align_cuts`]) applied by [`apply_cuts`];
//!   fragments join the delta block, so the next pass visits only what
//!   changed;
//! * **the egd rewrite** ([`rewrite_values`]): facts go through the round's
//!   union-find, unchanged ones to `pre` and changed ones to `delta` — the
//!   delta-restricted (semi-naive) split the next egd round joins against.
//!
//! Work fans out through [`run_tasks`], which merges in task order, so
//! results are byte-identical across thread counts. The equivalence
//! argument is spelled out in `docs/parallelism.md`; `tests/equivalence.rs`
//! checks every engine against the Definition-16 reference.

use crate::chase::concrete::AnnotatedUnionFind;
use crate::error::Result;
use crate::normalize::{merge_image_sets, uf_find, FactRef};
use std::sync::Arc;
use tdx_logic::{Atom, RelId, Schema, Var};
use tdx_storage::fxhash::{FxHashMap, FxHashSet};
use tdx_storage::{
    PartScope, Row, SearchOptions, ShardedFactStore, TemporalFact, TemporalMode, Value,
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

/// A 2-atom conjunction compiled for the sweep join: per-atom constant and
/// intra-atom-equality filters, plus the cross-atom join columns.
pub(crate) struct PairSpec {
    rels: [RelId; 2],
    consts: [Vec<(usize, Value)>; 2],
    intra: [Vec<(usize, usize)>; 2],
    /// `(col in atom 0, col in atom 1)` pairs that must be equal.
    joins: Vec<(usize, usize)>,
}

impl PairSpec {
    /// Compiles a 2-atom conjunction; `None` when a relation is unknown
    /// (the caller falls back to the generic matcher, which reports the
    /// proper error).
    fn compile(atoms: &[Atom], schema: &Schema) -> Option<PairSpec> {
        let mut rels = [RelId(0); 2];
        let mut consts: [Vec<(usize, Value)>; 2] = [Vec::new(), Vec::new()];
        let mut intra: [Vec<(usize, usize)>; 2] = [Vec::new(), Vec::new()];
        let mut joins = Vec::new();
        let mut first_of: Vec<(Var, usize, usize)> = Vec::new(); // var → (atom, col)
        for (ai, atom) in atoms.iter().enumerate() {
            rels[ai] = schema.rel_id(atom.relation)?;
            if schema.relation(rels[ai]).arity() != atom.arity() {
                return None;
            }
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    tdx_logic::Term::Const(c) => consts[ai].push((col, Value::Const(*c))),
                    tdx_logic::Term::Var(v) => match first_of.iter().find(|(w, _, _)| w == v) {
                        None => first_of.push((*v, ai, col)),
                        Some(&(_, fa, fc)) => {
                            if fa == ai {
                                intra[ai].push((fc, col));
                            } else {
                                joins.push((fc, col));
                            }
                        }
                    },
                }
            }
        }
        Some(PairSpec {
            rels,
            consts,
            intra,
            joins,
        })
    }
}

/// Compiles every multi-atom conjunction of `conjs` for the sweep join, or
/// `None` if any needs the generic matcher (more than two atoms, or an
/// unknown relation). Single-atom conjunctions are dropped — their images
/// are singletons and can never cut. This is the gate for **server-side**
/// discovery: a server can run the sweep over its local lists only when
/// every conjunction is sweepable, because the generic fallback needs the
/// global replicated store.
pub(crate) fn sweep_specs(schema: &Schema, conjs: &[&[Atom]]) -> Option<Vec<PairSpec>> {
    let mut specs = Vec::new();
    for &atoms in conjs {
        if atoms.len() < 2 {
            continue;
        }
        if atoms.len() != 2 {
            return None;
        }
        specs.push(PairSpec::compile(atoms, schema)?);
    }
    Some(specs)
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
/// pairs, which this function pins.
pub(crate) fn sweep_images(
    pre: &FactLists,
    delta: &FactLists,
    fresh: Option<&[Vec<bool>]>,
    specs: &[PairSpec],
    threads: usize,
) -> Vec<(u64, u64)> {
    run_tasks(threads, specs.len(), |i| {
        let mut pairs: FxHashSet<(u64, u64)> = Default::default();
        let mut out: Vec<(u64, u64)> = Vec::new();
        sweep_lists(pre, delta, fresh, &specs[i], |a, b| {
            let (ka, kb) = (pack_ref(a), pack_ref(b));
            let key = if ka <= kb { (ka, kb) } else { (kb, ka) };
            if pairs.insert(key) {
                out.push(key);
            }
        });
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
    mut emit: impl FnMut(FactRef, FactRef),
) {
    // Per join key, the candidate (interval, global id, fresh) entries of
    // each atom side. Keys are *hashes* of the joined values — no per-fact
    // allocation; a hash collision only groups unrelated facts into one
    // bucket, and the equality re-check at emit time filters them out.
    type Entry = (Interval, u32, bool);
    let key_hash = |fact: &TemporalFact, ai: usize| -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tdx_storage::fxhash::FxHasher::default();
        for &(c0, c1) in &spec.joins {
            fact.data[if ai == 0 { c0 } else { c1 }].hash(&mut h);
        }
        h.finish()
    };
    let passes = |fact: &TemporalFact, ai: usize| -> bool {
        !spec.consts[ai]
            .iter()
            .any(|&(col, ref v)| fact.data[col] != *v)
            && !spec.intra[ai]
                .iter()
                .any(|&(c1, c2)| fact.data[c1] != fact.data[c2])
    };
    // Restricted (semi-naive) runs: only join keys carried by some fresh
    // fact can contribute a new pair, so collect the fresh keys per side
    // first and skip every settled fact whose key matches neither — the
    // scan over settled facts then costs one cheap hash each instead of
    // bucket insertions.
    let restricted = fresh.is_some();
    let mut fresh_keys: [FxHashSet<u64>; 2] = [Default::default(), Default::default()];
    if let Some(flags) = fresh {
        for (ai, keys) in fresh_keys.iter_mut().enumerate() {
            let r = spec.rels[ai].0 as usize;
            for (i, fact) in delta[r].iter().enumerate() {
                if flags[r][i] && passes(fact, ai) {
                    keys.insert(key_hash(fact, ai));
                }
            }
        }
        if fresh_keys[0].is_empty() && fresh_keys[1].is_empty() {
            return; // nothing fresh joins this conjunction
        }
    }
    let mut buckets: FxHashMap<u64, [Vec<Entry>; 2]> = FxHashMap::default();
    for ai in 0..2 {
        let r = spec.rels[ai].0 as usize;
        let pre_len = pre[r].len();
        for (gid, fact) in pre[r].iter().chain(delta[r].iter()).enumerate() {
            if !passes(fact, ai) {
                continue;
            }
            let is_fresh = match fresh {
                None => true,
                Some(flags) => gid >= pre_len && flags[r][gid - pre_len],
            };
            let key = key_hash(fact, ai);
            if restricted && !is_fresh && !fresh_keys[1 - ai].contains(&key) {
                continue; // cannot pair with any fresh fact
            }
            buckets.entry(key).or_default()[ai].push((fact.interval, gid as u32, is_fresh));
        }
    }
    let (ra, rb) = (spec.rels[0], spec.rels[1]);
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
                if !spec.joins.is_empty() {
                    let fa = fact_at(pre, delta, ra, agid);
                    let fb = fact_at(pre, delta, rb, bgid);
                    if spec
                        .joins
                        .iter()
                        .any(|&(c0, c1)| fa.data[c0] != fb.data[c1])
                    {
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
/// Single-atom conjunctions are skipped outright: their images are
/// singletons, which never add members to a merged group and never cut (a
/// fact is aligned with itself), so they cannot change the output. 2-atom
/// conjunctions — every dependency body in the scenario suite — go through
/// the [`sweep_lists`] overlap join, one parallel task per conjunction, with
/// no store build at all. Wider conjunctions fall back to the generic
/// backtracking matcher over a replicated [`ShardedFactStore`]: each image's
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
) -> Result<Vec<Vec<FactRef>>> {
    // Images are deduplicated as packed `(rel << 32 | gid)` keys — a pair
    // for the ubiquitous 2-atom bodies, a heap key above — so duplicate
    // enumerations (symmetric self-joins) cost a hash probe, not an
    // allocation.
    let pack = pack_ref;
    let unpack = unpack_ref;
    let mut specs: Vec<PairSpec> = Vec::new();
    let mut generic: Vec<&[Atom]> = Vec::new();
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
    let swept = sweep_images(pre, delta, fresh, &specs, threads);
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
/// preserves `⟦·⟧`. Computed globally over the fact lists — a linear pass
/// plus a union-find, no matching, no store.
pub(crate) fn base_align_cuts(
    pre: &FactLists,
    delta: &FactLists,
    cuts: &mut FxHashMap<(RelId, u32), Vec<TimePoint>>,
) {
    // Facts containing nulls, union-found through shared bases.
    let mut facts: Vec<(RelId, u32, Interval)> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut owner: FxHashMap<tdx_storage::NullId, usize> = Default::default();
    for (r, (p, d)) in pre.iter().zip(delta.iter()).enumerate() {
        let rel = RelId(r as u32);
        for (gid, fact) in p.iter().chain(d.iter()).enumerate() {
            let mut entry: Option<usize> = None;
            for v in fact.data.iter() {
                if let Value::Null(b) = v {
                    let i = *entry.get_or_insert_with(|| {
                        facts.push((rel, gid as u32, fact.interval));
                        parent.push(facts.len() - 1);
                        facts.len() - 1
                    });
                    match owner.get(b) {
                        Some(&j) => {
                            let (ri, rj) = (uf_find(&mut parent, i), uf_find(&mut parent, j));
                            if ri != rj {
                                parent[ri] = rj;
                            }
                        }
                        None => {
                            owner.insert(*b, i);
                        }
                    }
                }
            }
        }
    }
    let mut members: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for i in 0..facts.len() {
        let root = uf_find(&mut parent, i);
        members.entry(root).or_default().push(i);
    }
    for ms in members.values() {
        if ms.len() < 2 {
            continue;
        }
        let bps = Breakpoints::from_intervals(ms.iter().map(|&i| &facts[i].2));
        for &i in ms {
            let (rel, gid, iv) = facts[i];
            let pts: Vec<TimePoint> = bps.interior_of(&iv).collect();
            if !pts.is_empty() {
                cuts.entry((rel, gid)).or_default().extend(pts);
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
/// matching) and become the next iteration's fresh set. Returns the new
/// `(pre, delta, fresh)`.
pub(crate) fn apply_cuts(
    nrels: usize,
    cuts: &CutMap,
    mut pre: FactLists,
    mut delta: FactLists,
) -> (FactLists, FactLists, Vec<Vec<bool>>) {
    // Relations without cuts move over wholesale; within a cut relation,
    // only facts sharing a row with some cut fact can ever collide with a
    // fragment, so the dedup set tracks exactly those — the rest of the
    // relation is copied without hashing.
    let row_hash = |data: &Row| -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tdx_storage::fxhash::FxHasher::default();
        data.hash(&mut h);
        h.finish()
    };
    let mut cut_rows: Vec<Option<FxHashSet<u64>>> = vec![None; nrels];
    for &(rel, gid) in cuts.keys() {
        let fact = fact_at(&pre, &delta, rel, gid);
        cut_rows[rel.0 as usize]
            .get_or_insert_with(Default::default)
            .insert(row_hash(&fact.data));
    }
    let mut npre: FactLists = vec![Vec::new(); nrels];
    let mut ndelta: FactLists = vec![Vec::new(); nrels];
    let mut nfresh: Vec<Vec<bool>> = vec![Vec::new(); nrels];
    for r in 0..nrels {
        let rel = RelId(r as u32);
        let pre_len = pre[r].len();
        let Some(rows) = &cut_rows[r] else {
            npre[r] = std::mem::take(&mut pre[r]);
            ndelta[r] = std::mem::take(&mut delta[r]);
            nfresh[r] = vec![false; ndelta[r].len()];
            continue;
        };
        let mut kept: FxHashSet<(Row, Interval)> = Default::default();
        // Uncut facts first, so a fragment colliding with an existing
        // fact dissolves into it.
        for (gid, fact) in pre[r].iter().chain(delta[r].iter()).enumerate() {
            if cuts.contains_key(&(rel, gid as u32)) {
                continue;
            }
            if rows.contains(&row_hash(&fact.data))
                && !kept.insert((Arc::clone(&fact.data), fact.interval))
            {
                continue; // duplicate of an already-kept collision candidate
            }
            if gid < pre_len {
                npre[r].push(fact.clone());
            } else {
                ndelta[r].push(fact.clone());
                nfresh[r].push(false);
            }
        }
        for (gid, fact) in pre[r].iter().chain(delta[r].iter()).enumerate() {
            if let Some(pts) = cuts.get(&(rel, gid as u32)) {
                let bps = Breakpoints::from_points(pts.iter().copied());
                for iv in fragment_interval(&fact.interval, &bps) {
                    if kept.insert((Arc::clone(&fact.data), iv)) {
                        ndelta[r].push(TemporalFact {
                            data: Arc::clone(&fact.data),
                            interval: iv,
                        });
                        nfresh[r].push(true);
                    }
                }
            }
        }
    }
    (npre, ndelta, nfresh)
}

/// Re-fragments the working fact lists to a fixpoint. Per iteration it
/// collects cuts from (a) egd-body candidate groups (sweep/matcher
/// discovery, restricted to images touching a fresh fact), or every fact at
/// every endpoint (when `naive`), plus (b) shared-base alignment; applies
/// them; and stops once no cut remains. Fragments join the delta block
/// (they are "changed" for the next round's matching) and are the next
/// iteration's fresh set. `renorm_bodies = None` applies the alignment cuts
/// only (paper-faithful rounds).
#[allow(clippy::too_many_arguments)]
pub(crate) fn refragment_lists(
    schema: &Arc<Schema>,
    tp: &TimelinePartition,
    threads: usize,
    sopts: SearchOptions,
    renorm_bodies: Option<&[&[Atom]]>,
    naive: bool,
    mut pre: FactLists,
    mut delta: FactLists,
) -> Result<(FactLists, FactLists)> {
    let nrels = schema.len();
    let mut fresh: Vec<Vec<bool>> = delta.iter().map(|d| vec![true; d.len()]).collect();
    loop {
        let mut cuts = CutMap::default();
        if naive && renorm_bodies.is_some() {
            naive_cuts(&pre, &delta, &mut cuts);
        } else if let Some(conjs) = renorm_bodies {
            if !conjs.is_empty() {
                let images = discover_images(
                    schema,
                    tp,
                    &pre,
                    &delta,
                    Some(&fresh),
                    conjs,
                    threads,
                    sopts,
                )?;
                image_cuts(&images, &pre, &delta, &mut cuts);
            }
        }
        base_align_cuts(&pre, &delta, &mut cuts);
        if cuts.is_empty() {
            return Ok((pre, delta));
        }
        (pre, delta, fresh) = apply_cuts(nrels, &cuts, pre, delta);
    }
}

/// Rewrites every fact through the round's union-find, splitting the result
/// into unchanged (`pre`) and changed (`delta`) blocks. Facts that become
/// identical merge (first occurrence wins).
pub(crate) fn rewrite_values(
    schema: &Arc<Schema>,
    pre: &FactLists,
    delta: &FactLists,
    uf: &mut AnnotatedUnionFind,
) -> (FactLists, FactLists) {
    let nrels = schema.len();
    let mut npre: FactLists = vec![Vec::new(); nrels];
    let mut ndelta: FactLists = vec![Vec::new(); nrels];
    for r in 0..nrels {
        let mut kept: FxHashSet<(tdx_storage::Row, Interval)> = Default::default();
        for fact in pre[r].iter().chain(delta[r].iter()) {
            // Only null-bearing facts can change under the union-find —
            // everything else keeps its row without re-resolving.
            let has_null = fact.data.iter().any(|v| matches!(v, Value::Null(_)));
            let (new_data, changed) = if has_null {
                let new_data: tdx_storage::Row = fact
                    .data
                    .iter()
                    .map(|v| uf.resolve(v, fact.interval))
                    .collect();
                let changed = new_data[..] != fact.data[..];
                (new_data, changed)
            } else {
                (Arc::clone(&fact.data), false)
            };
            if kept.insert((Arc::clone(&new_data), fact.interval)) {
                let out = TemporalFact {
                    data: new_data,
                    interval: fact.interval,
                };
                if changed {
                    ndelta[r].push(out);
                } else {
                    npre[r].push(out);
                }
            }
        }
    }
    (npre, ndelta)
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
