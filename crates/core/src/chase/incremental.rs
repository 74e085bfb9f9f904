//! Incremental cross-shard exchange: delta-batch re-chase over a
//! materialized target.
//!
//! [`IncrementalExchange`] is a stateful c-chase session: it keeps the
//! chased target materialized between calls, accepts [`DeltaBatch`]es of
//! source insertions (and interval-refining updates), and brings the target
//! back to a chase fixpoint by re-running tgd/egd work only where the batch
//! actually landed, instead of chasing the whole source from scratch.
//!
//! The session is also the local batch engine: [`c_chase_with`] runs
//! `IndexedSemiNaive` and `PartitionedParallel` as one batch of the whole
//! source on a fresh session ([`chase_as_one_batch`]), where every fact
//! starts out fresh and the steps below reduce to the full c-chase.
//!
//! [`c_chase_with`]: crate::chase::concrete::c_chase_with
//!
//! # How a batch is absorbed
//!
//! 1. **Incremental renormalization.** The batch's facts join the
//!    normalized source's delta block and run through the
//!    [`refragment_lists`] fixpoint the egd rounds use too:
//!    Algorithm-1 cut discovery restricted to images touching a
//!    *fresh* fact, so long-settled source facts are only re-fragmented
//!    when a new fact actually joins them. The settled lists are edited
//!    in place beside their indexes (`chase::settled`), which answer
//!    every "which settled facts does this touch?" by lookup, so an
//!    insert costs the batch and the facts it touches, not the state.
//! 2. **Delta-scoped tgd matching.** A [`TemporalMode::Shared`] match binds
//!    every body atom to one interval, so new matches can only exist at
//!    *dirty intervals* — intervals carrying at least one changed fact.
//!    The session joins per dirty interval (a strictly finer unit than the
//!    dirty timeline partitions of the sharded store) and requires every
//!    emitted match to touch the delta block, which is exactly the
//!    `PartScope::OwnerDelta` pivot decomposition the partition servers
//!    use, evaluated against the working fact lists with no store build
//!    on the fast path.
//! 3. **Restricted checks across batches.** "Has this hom an extension into
//!    the target?" must consult everything previous batches produced. The
//!    session keeps the coordinator kernel's per-tgd memo tables
//!    *persistent*: an entry `(determined values, interval)` records that a
//!    covering head fact was inserted, and neither egd rewriting (values
//!    only get more specific) nor re-fragmentation (fragments cover their
//!    original) can ever invalidate that coverage — so an entry whose
//!    interval covers a step's stays a sound reason to suppress the step
//!    in every later batch.
//! 4. **Egd fixpoint over the boundary-reconciliation set.** New target
//!    facts plus every settled fact they forced to fragment form the delta
//!    block; egd matching is again dirty-interval scoped and
//!    delta-restricted, rounds rewrite through the same annotated
//!    union-find and re-fragment via [`refragment_lists`]. A match among
//!    settled facts needs no revisit: the previous batch left them at an
//!    egd fixpoint, so re-enumerating it would find both sides already
//!    equal — the semi-naive argument within one chase, carried across
//!    batches.
//! 5. **Breakpoint maintenance.** The timeline partition is re-coarsened
//!    when the endpoint histogram shifts (endpoint count doubled, or the
//!    per-partition endpoint distribution became badly imbalanced —
//!    [`TimelinePartition::imbalance`]); nothing in the session state is
//!    keyed on the partition, so re-cutting is free.
//!
//! A narrowing refine retracts knowledge, which the monotone steps above
//! cannot express. The session re-chases only the refined rows' *linked
//! component* (`chase/component.rs`): it deletes the component's settled
//! facts and memo keys in place, swaps the refined rows in the raw
//! source, and absorbs the component's raw facts again through the
//! steps above. A mapping without value links, or a component that is
//! the whole state, falls back to one full re-chase.
//!
//! Failure handling: an egd equating two distinct constants means the
//! *accumulated* source admits no solution. The session rolls the batch
//! back and returns the failure, staying usable: an insert batch by
//! rebuilding the target from the pre-batch source (which was
//! consistent), a component re-chase by undoing its journaled edits, so
//! the session is byte-identical to its pre-batch self.
//!
//! The correctness oracle is the paper's abstract chase of the accumulated
//! source after every batch: the target must be hom-equivalent to it, or
//! both must fail (Corollary 20, Theorem 19(2); `tests/incremental.rs`).
//! The session is never checked against itself, and the argument is
//! spelled out in `docs/incremental.md`.

use crate::chase::cluster::{
    classify_check, fire_order, fold_merge_ops, for_each_memo_key, is_transport_error,
    memo_probe_key, resolve_transport, spawner_for, Check, DistributedCluster, Hom, MemoTable,
    MergeOp, TrafficStats, TransportSpawner,
};
use crate::chase::component::{linked_component, Links, SOURCE, TARGET};
use crate::chase::concrete::{
    instantiate, narrate_tgd_step, AnnotatedUnionFind, CChaseResult, ChaseEngine, ChaseOptions,
    ChaseStats, UfKey,
};
use crate::chase::partitioned::{fact_at, refragment_lists, rewrite_values, FactLists};
use crate::chase::settled::{insert_positions, remove_positions, Edit, LazyIndex, Settled};
use crate::error::{Result, TdxError};
use crate::query::cache::{DirtySet, QueryService};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use tdx_logic::{Atom, RelId, Schema, SchemaMapping, Term, Var};
use tdx_storage::codec::encode;
use tdx_storage::fxhash::{FxHashMap, FxHashSet};
use tdx_storage::{
    ByteReader, ByteWriter, CodecError, NullGen, Row, SearchOptions, TemporalFact,
    TemporalInstance, TemporalMode, Value, Wire,
};
use tdx_temporal::{Breakpoints, Interval, TimePoint, TimelinePartition};

/// A batch of source changes for [`IncrementalExchange::apply`].
///
/// Insertions are the monotone unit of the stream. An *interval-refining
/// update* replaces every previously asserted interval of one data row with
/// a new interval: when the new interval contains the old ones (the fact
/// turned out to hold *longer* — e.g. an open-ended employment gets its
/// real extent), the refinement is monotone and rides the incremental path
/// as an insertion; when it narrows the row's timeline, knowledge was
/// retracted and the session re-chases the part of its state linked to the
/// batch's refined rows — one person's facts under the employment mapping
/// — or, for a mapping without value links, everything once.
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    inserts: Vec<(RelId, Row, Interval)>,
    refines: Vec<(RelId, Row, Interval)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Queues a source fact insertion.
    pub fn insert(&mut self, rel: RelId, data: Row, interval: Interval) -> &mut Self {
        self.inserts.push((rel, data, interval));
        self
    }

    /// Queues an interval-refining update: after this batch, `data` is
    /// asserted exactly over `interval`, superseding every interval the row
    /// was previously asserted over.
    pub fn refine(&mut self, rel: RelId, data: Row, interval: Interval) -> &mut Self {
        self.refines.push((rel, data, interval));
        self
    }

    /// Queues every fact of `inst` as an insertion.
    pub fn extend_from_instance(&mut self, inst: &TemporalInstance) -> &mut Self {
        for (rel, fact) in inst.iter_all() {
            self.inserts
                .push((rel, Arc::clone(&fact.data), fact.interval));
        }
        self
    }

    /// A batch inserting every fact of `inst`.
    pub fn from_instance(inst: &TemporalInstance) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.extend_from_instance(inst);
        b
    }

    /// Number of queued changes.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.refines.len()
    }

    /// Whether the batch queues no changes.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.refines.is_empty()
    }
}

/// `DeltaBatch` rides the durable session's write-ahead log: insertions
/// and refinements serialize in queue order, so a replayed batch is
/// applied exactly as the original was.
impl Wire for DeltaBatch {
    fn write(&self, w: &mut ByteWriter) {
        self.inserts.write(w);
        self.refines.write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> std::result::Result<DeltaBatch, CodecError> {
        Ok(DeltaBatch {
            inserts: Wire::read(r)?,
            refines: Wire::read(r)?,
        })
    }
}

/// What one [`IncrementalExchange::apply`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch facts that were actually new (not already asserted).
    pub batch_facts: usize,
    /// Normalized-source facts changed by the batch (fragments included).
    pub source_delta: usize,
    /// Normalized-source facts after the batch.
    pub normalized_source_facts: usize,
    /// Tgd homomorphisms enumerated at dirty intervals.
    pub tgd_matches: usize,
    /// Tgd steps fired (restricted-check survivors).
    pub tgd_steps: usize,
    /// New target facts the tgd phase inserted.
    pub target_new_facts: usize,
    /// Target facts right after the tgd phase: the settled target plus the
    /// batch's new facts, before egd-body normalization.
    pub target_facts_after_tgd: usize,
    /// Target facts after the egd-body normalization, before the first egd
    /// round.
    pub target_facts_normalized: usize,
    /// Egd merge rounds run.
    pub egd_rounds: usize,
    /// Egd rounds whose matching skipped a settled block: all but a fresh
    /// session's first round, which joins the whole target.
    pub egd_delta_rounds: usize,
    /// Value identifications performed.
    pub egd_merges: usize,
    /// Timeline partitions the batch touched (dirtied).
    pub dirty_partitions: usize,
    /// The touched partition indices themselves (sorted; in terms of the
    /// post-batch partition) — the query service's fragment-invalidation
    /// input.
    pub dirty_parts: Vec<usize>,
    /// Timeline partitions in total.
    pub partitions: usize,
    /// Whether the timeline partition was re-coarsened for this batch.
    pub recoarsened: bool,
    /// Whether the batch fell back to a full re-chase: a narrowing refine
    /// under a mapping without value links, or one whose linked component
    /// is the whole state.
    pub full_rechase: bool,
    /// Materialized target size after the batch.
    pub target_facts: usize,
    /// Step narration, recorded only when
    /// [`ChaseOptions::record_trace`] is set.
    pub trace: Vec<String>,
}

/// Session-level counters. `batches` and `full_rechases` are cumulative
/// over the session's lifetime; the work counters (`tgd_steps`,
/// `egd_merges`, `nulls_created`) count the work since the last full
/// re-chase rebuilt the state, component re-chases included.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Successfully applied batches (failed, rolled-back batches do not
    /// count; a narrowing refine counts as one).
    pub batches: usize,
    /// Tgd steps fired since the last full re-chase.
    pub tgd_steps: usize,
    /// Egd identifications performed since the last full re-chase.
    pub egd_merges: usize,
    /// Full re-chases taken: narrowing refines that fell back (a mapping
    /// without value links, or a component that is the whole state) and
    /// rollbacks of failed insert batches. A component re-chase is not
    /// one.
    pub full_rechases: usize,
    /// Fresh nulls minted since the last full re-chase.
    pub nulls_created: u64,
}

/// One body atom compiled for the shared-interval join: relation plus a
/// slot per column (a constant to filter on, or a variable slot index).
#[derive(Clone)]
struct AtomPlan {
    rel: RelId,
    slots: Vec<SlotPlan>,
}

#[derive(Clone)]
enum SlotPlan {
    Const(Value),
    Var(usize),
}

/// A conjunction compiled for dirty-interval shared joins.
#[derive(Clone)]
struct JoinPlan {
    atoms: Vec<AtomPlan>,
    /// Slot index → variable, in first-occurrence order.
    vars: Vec<Var>,
}

impl JoinPlan {
    fn compile(atoms: &[Atom], schema: &Schema) -> Result<JoinPlan> {
        let mut vars: Vec<Var> = Vec::new();
        let mut plans = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let rel = schema
                .rel_id(atom.relation)
                .ok_or_else(|| TdxError::Invalid(format!("unknown relation {}", atom.relation)))?;
            if schema.relation(rel).arity() != atom.arity() {
                return Err(TdxError::Invalid(format!(
                    "atom {} does not match relation arity",
                    atom.relation
                )));
            }
            let slots = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => SlotPlan::Const(Value::Const(*c)),
                    Term::Var(v) => match vars.iter().position(|w| w == v) {
                        Some(i) => SlotPlan::Var(i),
                        None => {
                            vars.push(*v);
                            SlotPlan::Var(vars.len() - 1)
                        }
                    },
                })
                .collect();
            plans.push(AtomPlan { rel, slots });
        }
        Ok(JoinPlan { atoms: plans, vars })
    }

    fn slot_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|w| *w == v)
    }
}

/// A per-phase candidate index for dirty-interval shared joins: for every
/// relation, the facts living at a *dirty interval* (an interval some delta
/// fact carries, in any relation), bucketed by interval in global-id order
/// and tagged fresh when drawn from the delta block. Settled candidates
/// come from the block's interval index, delta ones from one scan of the
/// (small) delta; built once per phase and shared by every join of it.
struct DirtyIndex {
    /// Sorted dirty intervals (deterministic enumeration order).
    intervals: Vec<Interval>,
    /// Per relation: interval → candidate facts `(global id, fresh)`.
    buckets: Vec<FxHashMap<Interval, Vec<(u32, bool)>>>,
}

impl DirtyIndex {
    fn build(pre: &mut Settled<'_>, delta: &FactLists) -> DirtyIndex {
        let mut dirty: FxHashSet<Interval> = Default::default();
        for facts in delta {
            for fact in facts {
                dirty.insert(fact.interval);
            }
        }
        let mut intervals: Vec<Interval> = dirty.into_iter().collect();
        intervals.sort_unstable();
        let (pre, settled) = pre.parts();
        let mut buckets: Vec<FxHashMap<Interval, Vec<(u32, bool)>>> = Vec::with_capacity(pre.len());
        for (r, (p, d)) in pre.iter().zip(delta.iter()).enumerate() {
            let mut by_iv: FxHashMap<Interval, Vec<(u32, bool)>> = Default::default();
            if let Some(idx) = settled {
                for &iv in &intervals {
                    for pos in idx.at_interval(RelId(r as u32), iv) {
                        if p[pos as usize].interval == iv {
                            by_iv.entry(iv).or_default().push((pos, false));
                        }
                    }
                }
            }
            for (i, fact) in d.iter().enumerate() {
                by_iv
                    .entry(fact.interval)
                    .or_default()
                    .push(((p.len() + i) as u32, true));
            }
            buckets.push(by_iv);
        }
        DirtyIndex { intervals, buckets }
    }
}

/// Enumerates every [`TemporalMode::Shared`] match of `plan` over
/// `pre ++ delta` whose image touches at least one delta fact, exactly
/// once. Shared matches bind all atoms to one interval, so only the
/// index's dirty intervals can host one; within an interval the join
/// backtracks over the per-atom candidate buckets, and settled-only
/// combinations are dropped at the leaf — they were enumerated in the
/// round or batch that last changed one of their facts. `emit` receives
/// the variable bindings (slot order) and the shared interval.
fn shared_join_delta(
    plan: &JoinPlan,
    pre: &FactLists,
    delta: &FactLists,
    idx: &DirtyIndex,
    mut emit: impl FnMut(&[Value], Interval),
) {
    let mut bindings: Vec<Option<Value>> = vec![None; plan.vars.len()];
    let mut out: Vec<Value> = Vec::with_capacity(plan.vars.len());
    let mut newly: Vec<usize> = Vec::new();
    for &iv in &idx.intervals {
        let cands: Vec<&[(u32, bool)]> = match plan
            .atoms
            .iter()
            .map(|ap| {
                idx.buckets[ap.rel.0 as usize]
                    .get(&iv)
                    .map(|b| b.as_slice())
            })
            .collect::<Option<Vec<_>>>()
        {
            Some(c) => c,
            None => continue, // some atom has no candidate at this interval
        };
        descend(
            plan,
            pre,
            delta,
            &cands,
            0,
            0,
            &mut bindings,
            &mut newly,
            &mut out,
            iv,
            &mut emit,
        );
    }
}

/// Backtracking over atoms within one interval's candidate buckets.
#[allow(clippy::too_many_arguments)]
fn descend(
    plan: &JoinPlan,
    pre: &FactLists,
    delta: &FactLists,
    cands: &[&[(u32, bool)]],
    ai: usize,
    fresh: usize,
    bindings: &mut Vec<Option<Value>>,
    newly: &mut Vec<usize>,
    out: &mut Vec<Value>,
    iv: Interval,
    emit: &mut impl FnMut(&[Value], Interval),
) {
    if ai == plan.atoms.len() {
        if fresh > 0 {
            out.clear();
            out.extend(bindings.iter().map(|b| b.expect("all slots bound")));
            emit(out, iv);
        }
        return;
    }
    let rel = plan.atoms[ai].rel;
    'facts: for &(gid, is_fresh) in cands[ai].iter() {
        let fact = fact_at(pre, delta, rel, gid);
        let newly_from = newly.len();
        for (col, s) in plan.atoms[ai].slots.iter().enumerate() {
            match s {
                SlotPlan::Const(v) => {
                    if fact.data[col] != *v {
                        for &u in &newly[newly_from..] {
                            bindings[u] = None;
                        }
                        newly.truncate(newly_from);
                        continue 'facts;
                    }
                }
                SlotPlan::Var(slot) => match bindings[*slot] {
                    Some(b) => {
                        if fact.data[col] != b {
                            for &u in &newly[newly_from..] {
                                bindings[u] = None;
                            }
                            newly.truncate(newly_from);
                            continue 'facts;
                        }
                    }
                    None => {
                        bindings[*slot] = Some(fact.data[col]);
                        newly.push(*slot);
                    }
                },
            }
        }
        descend(
            plan,
            pre,
            delta,
            cands,
            ai + 1,
            fresh + usize::from(is_fresh),
            bindings,
            newly,
            out,
            iv,
            emit,
        );
        for &u in &newly[newly_from..] {
            bindings[u] = None;
        }
        newly.truncate(newly_from);
    }
}

// The restricted-chase check ([`Check`]) is the shared coordinator kernel
// of `chase/cluster/coordinator.rs` — the same three tiers the partitioned
// and distributed batch engines classify with, except that here the memo
// tier is *persistent* across batches (see the module docs for why
// coverage survives rewriting and re-fragmentation).

#[derive(Clone)]
struct TgdPlan {
    body: JoinPlan,
    check: Check,
    existentials: Vec<Var>,
    /// Head atoms with their target relation ids.
    head: Vec<(RelId, Atom)>,
}

#[derive(Clone)]
struct EgdPlan {
    body: JoinPlan,
    lhs: usize,
    rhs: usize,
    name: String,
}

/// A stateful incremental data-exchange session (see the module docs).
///
/// Created via [`IncrementalExchange::new`] or
/// [`DataExchange::incremental`](crate::exchange::DataExchange::incremental);
/// feed it [`DeltaBatch`]es and read the materialized solution with
/// [`IncrementalExchange::target`].
#[derive(Clone)]
pub struct IncrementalExchange {
    mapping: Arc<SchemaMapping>,
    opts: ChaseOptions,
    threads: usize,
    src_schema: Arc<Schema>,
    tgt_schema: Arc<Schema>,

    /// Accumulated raw source facts (insertion order) + dedup set.
    source: FactLists,
    source_set: FxHashSet<(u32, Row, Interval)>,
    /// Source endpoints, counted (for partition maintenance).
    endpoints: Endpoints,
    /// Timeline partition + endpoint count when it was last cut.
    tp: TimelinePartition,
    endpoints_at_cut: usize,

    /// Normalized source at fixpoint (settled between batches).
    nsrc: FactLists,
    /// Materialized target at egd fixpoint (settled between batches).
    tgt: FactLists,
    /// Lookup indexes beside `nsrc` and `tgt` (see `chase::settled`):
    /// built on the first absorb against a non-empty block, maintained
    /// by every in-place edit, dropped whenever the lists are replaced,
    /// and never cloned.
    nsrc_index: LazyIndex,
    tgt_index: LazyIndex,
    /// The mapping's value links, whose keys the indexes map too.
    links: Arc<Links>,

    plans: Vec<TgdPlan>,
    egd_plans: Vec<EgdPlan>,
    /// Per-tgd persistent restricted-check memos (Memo tier).
    memos: Vec<MemoTable>,
    /// Whether any tgd needs the Probe tier (materialize-and-probe).
    probe_needed: bool,
    /// Partition servers (`ChaseEngine::Distributed`); `0` = evaluate
    /// locally. When set, tgd/egd match enumeration goes through a
    /// [`DistributedCluster`] speaking the serialized partition-server
    /// protocol, while this session remains the coordinator loop.
    servers: usize,
    /// The running cluster, lazily (re)spawned whenever the timeline
    /// partition it was built over diverges from the session's (shared
    /// between clones — every round re-ships its fact lists first, so
    /// clones cannot observe each other's state).
    cluster: Option<Arc<Mutex<DistributedCluster>>>,
    /// Spawner every cluster (re)spawn goes through when set — the durable
    /// session's hook for reconnect-capable listen-mode servers.
    spawner_override: Option<Arc<dyn TransportSpawner>>,
    nulls: NullGen,
    stats: SessionStats,
    poisoned: Option<String>,
    /// The attached MVCC query front-end, if any: every committed batch
    /// (and every rebuild) publishes the new target version plus its dirty
    /// partitions here, so concurrent readers see watermark-consistent
    /// answers and the fragment cache invalidates precisely. Shared by
    /// session clones; not part of the durable state (reattach after
    /// recovery).
    query_service: Option<Arc<QueryService>>,
}

const PARTS_HINT: usize = 16;

/// The endpoints of the accumulated source, each with the number of
/// source facts carrying it: a narrowing refine removes facts, and an
/// endpoint leaves the histogram only with its last fact.
#[derive(Clone, Default)]
struct Endpoints(FxHashMap<TimePoint, u32>);

impl Endpoints {
    fn points(iv: Interval) -> impl Iterator<Item = TimePoint> {
        std::iter::once(iv.start()).chain(iv.end().finite())
    }

    fn add(&mut self, iv: Interval) {
        for p in Self::points(iv) {
            *self.0.entry(p).or_default() += 1;
        }
    }

    fn remove(&mut self, iv: Interval) {
        for p in Self::points(iv) {
            if let Some(n) = self.0.get_mut(&p) {
                *n -= 1;
                if *n == 0 {
                    self.0.remove(&p);
                }
            }
        }
    }

    /// Distinct endpoints.
    fn len(&self) -> usize {
        self.0.len()
    }

    fn breakpoints(&self) -> Breakpoints {
        Breakpoints::from_points(self.0.keys().copied())
    }
}

/// What a component re-chase needs to put the session back exactly as it
/// was: the edits of both settled blocks, the memo entries it dropped and
/// added, the raw source facts it removed, and the scalars it may move.
struct Journal {
    nsrc: Vec<Edit>,
    tgt: Vec<Edit>,
    /// `(tgd, key, interval)` entries the re-chase added.
    memos_added: Vec<(usize, Vec<Value>, Interval)>,
    /// `(tgd, key, intervals)` entries the component's facts carried.
    memos_dropped: Vec<(usize, Vec<Value>, Vec<Interval>)>,
    /// Raw source facts removed, with their positions, per relation.
    source_removed: Vec<(RelId, Vec<u32>, Vec<TemporalFact>)>,
    /// Raw source lengths before the batch's facts were appended.
    source_lens: Vec<usize>,
    nulls: u64,
    tp: TimelinePartition,
    endpoints_at_cut: usize,
    stats: SessionStats,
}

impl IncrementalExchange {
    /// A fresh session over `mapping` with default chase options.
    pub fn new(mapping: SchemaMapping) -> Result<IncrementalExchange> {
        Self::with_options(mapping, ChaseOptions::default())
    }

    /// A fresh session with explicit options. The engine choice
    /// contributes its worker-thread count, and
    /// [`ChaseEngine::Distributed`] additionally routes tgd/egd match
    /// enumeration through a partition-server cluster (the session stays
    /// the coordinator loop: union-find, restricted checks and
    /// re-fragmentation remain here); `naive_normalization` and
    /// `renormalize_between_egd_rounds` are honored as in the batch
    /// engines.
    pub fn with_options(mapping: SchemaMapping, opts: ChaseOptions) -> Result<IncrementalExchange> {
        let threads = crate::chase::worker_threads(match opts.engine {
            ChaseEngine::PartitionedParallel { threads } => threads,
            _ => 0,
        });
        let servers = match opts.engine {
            ChaseEngine::Distributed { servers } => crate::chase::server_count(servers),
            _ => 0,
        };
        let src_schema = Arc::new(mapping.source().clone());
        let tgt_schema = Arc::new(mapping.target().clone());
        let mut plans = Vec::new();
        for tgd in mapping.st_tgds() {
            let body = JoinPlan::compile(&tgd.body, &src_schema)?;
            let existentials = tgd.existential_vars();
            let check = classify_check(&tgd.head, &existentials, &tgt_schema)?;
            let head = tgd
                .head
                .iter()
                .map(|a| {
                    tgt_schema
                        .rel_id(a.relation)
                        .map(|rel| (rel, a.clone()))
                        .ok_or_else(|| {
                            TdxError::Invalid(format!("unknown head relation {}", a.relation))
                        })
                })
                .collect::<Result<Vec<_>>>()?;
            plans.push(TgdPlan {
                body,
                check,
                existentials,
                head,
            });
        }
        let mut egd_plans = Vec::new();
        for egd in mapping.egds() {
            let body = JoinPlan::compile(&egd.body, &tgt_schema)?;
            let lhs = body
                .slot_of(egd.lhs)
                .ok_or_else(|| TdxError::Invalid("egd lhs not in body".into()))?;
            let rhs = body
                .slot_of(egd.rhs)
                .ok_or_else(|| TdxError::Invalid("egd rhs not in body".into()))?;
            egd_plans.push(EgdPlan {
                body,
                lhs,
                rhs,
                name: egd.name.clone().unwrap_or_else(|| egd.to_string()),
            });
        }
        let probe_needed = plans.iter().any(|p| matches!(p.check, Check::Probe));
        let links = Arc::new(Links::compile(&mapping));
        let memos = plans.iter().map(|_| Default::default()).collect();
        let nsrcs = src_schema.len();
        let ntgts = tgt_schema.len();
        Ok(IncrementalExchange {
            mapping: Arc::new(mapping),
            opts,
            threads,
            src_schema,
            tgt_schema,
            source: vec![Vec::new(); nsrcs],
            source_set: Default::default(),
            endpoints: Default::default(),
            tp: TimelinePartition::whole(),
            endpoints_at_cut: 0,
            nsrc: vec![Vec::new(); nsrcs],
            tgt: vec![Vec::new(); ntgts],
            nsrc_index: LazyIndex::default(),
            tgt_index: LazyIndex::default(),
            links,
            plans,
            egd_plans,
            memos,
            probe_needed,
            servers,
            cluster: None,
            spawner_override: None,
            nulls: NullGen::new(),
            stats: SessionStats::default(),
            poisoned: None,
            query_service: None,
        })
    }

    /// The schema mapping the session exchanges over.
    pub fn mapping(&self) -> &SchemaMapping {
        &self.mapping
    }

    /// Cumulative session counters.
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats.clone();
        s.nulls_created = self.nulls.peek();
        s
    }

    /// Durable-state format version; [`restore_state`](Self::restore_state)
    /// rejects any other.
    pub(crate) const STATE_VERSION: u32 = 1;

    /// Fingerprint over everything a replayed state depends on: both
    /// schemas and every dependency. A state recorded under a different
    /// mapping must not silently restore.
    pub(crate) fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = tdx_storage::fxhash::FxHasher::default();
        h.write(&encode(self.src_schema.as_ref()));
        h.write(&encode(self.tgt_schema.as_ref()));
        for tgd in self.mapping.st_tgds() {
            h.write(&encode(&tgd.body));
            h.write(&encode(&tgd.head));
        }
        for egd in self.mapping.egds() {
            h.write(&encode(&egd.body));
            h.write(&encode(&egd.lhs));
            h.write(&encode(&egd.rhs));
        }
        h.finish_unrotated()
    }

    /// Serializes the session's full chase state — accumulated source,
    /// timeline partition, normalized source, materialized target, memo
    /// tables, null counter and session counters — in **canonical** form:
    /// hash-set state is emitted sorted, so two sessions holding equal
    /// state encode byte-identically regardless of how they got there
    /// (the recovery property tests compare these bytes directly). The
    /// derived indexes — source dedup set, endpoint set, compiled match
    /// plans — are rebuilt by [`restore_state`](Self::restore_state).
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_state_into(&mut w);
        w.into_bytes()
    }

    /// [`encode_state`](Self::encode_state) appended to `w`, for a caller
    /// that frames the state inside a larger buffer.
    pub(crate) fn encode_state_into(&self, w: &mut ByteWriter) {
        w.u32(Self::STATE_VERSION);
        w.u64(self.config_fingerprint());
        self.source.write(w);
        w.u64(self.endpoints_at_cut as u64);
        self.tp.write(w);
        self.nsrc.write(w);
        self.tgt.write(w);
        w.u64(self.memos.len() as u64);
        for memo in &self.memos {
            // Sorted by their `(key, interval)` tuple encoding: the bytes
            // a memo set of such tuples was always written as. Each entry
            // is encoded once into one scratch buffer and the spans are
            // sorted by their bytes; the entries are distinct, so no two
            // spans tie and the unstable sort's order is fixed.
            let mut scratch = ByteWriter::new();
            let mut spans: Vec<(usize, usize)> = memo
                .entries()
                .map(|(key, iv)| {
                    let start = scratch.len();
                    key.write(&mut scratch);
                    iv.write(&mut scratch);
                    (start, scratch.len())
                })
                .collect();
            let bytes = scratch.into_bytes();
            spans.sort_unstable_by_key(|&(start, end)| &bytes[start..end]);
            w.u64(spans.len() as u64);
            for (start, end) in spans {
                w.raw(&bytes[start..end]);
            }
        }
        w.u64(self.nulls.peek());
        w.u64(self.stats.batches as u64);
        w.u64(self.stats.tgd_steps as u64);
        w.u64(self.stats.egd_merges as u64);
        w.u64(self.stats.full_rechases as u64);
    }

    /// Restores a snapshot produced by [`encode_state`](Self::encode_state)
    /// into this session, which must have been constructed over the same
    /// mapping (the fingerprint is checked). Nothing is committed until
    /// the whole snapshot parses and its shape matches, so a corrupt
    /// snapshot errors cleanly and leaves the session untouched. Any
    /// running cluster is discarded — recovery re-attaches separately.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let bad = |e: CodecError| TdxError::Invalid(format!("durable state: {e}"));
        let mut r = ByteReader::new(bytes);
        let version = r.u32().map_err(bad)?;
        if version != Self::STATE_VERSION {
            return Err(TdxError::Invalid(format!(
                "durable state: unsupported state version {version} (this build speaks {})",
                Self::STATE_VERSION
            )));
        }
        if r.u64().map_err(bad)? != self.config_fingerprint() {
            return Err(TdxError::Invalid(
                "durable state: snapshot was recorded under a different schema mapping".into(),
            ));
        }
        let source: FactLists = Wire::read(&mut r).map_err(bad)?;
        let endpoints_at_cut = r.u64().map_err(bad)? as usize;
        let tp: TimelinePartition = Wire::read(&mut r).map_err(bad)?;
        let nsrc: FactLists = Wire::read(&mut r).map_err(bad)?;
        let tgt: FactLists = Wire::read(&mut r).map_err(bad)?;
        let nmemos = r.u64().map_err(bad)? as usize;
        if nmemos != self.memos.len() {
            return Err(TdxError::Invalid(
                "durable state: memo table count mismatch".into(),
            ));
        }
        let mut memos: Vec<MemoTable> = Vec::with_capacity(nmemos);
        for _ in 0..nmemos {
            let len = r.u64().map_err(bad)? as usize;
            let mut table = MemoTable::default();
            for _ in 0..len {
                let (key, iv): (Vec<Value>, Interval) = Wire::read(&mut r).map_err(bad)?;
                table.insert(key, iv);
            }
            memos.push(table);
        }
        let nulls_next = r.u64().map_err(bad)?;
        let stats = SessionStats {
            batches: r.u64().map_err(bad)? as usize,
            tgd_steps: r.u64().map_err(bad)? as usize,
            egd_merges: r.u64().map_err(bad)? as usize,
            full_rechases: r.u64().map_err(bad)? as usize,
            nulls_created: 0,
        };
        if !r.is_exhausted() {
            return Err(TdxError::Invalid(
                "durable state: trailing bytes after snapshot".into(),
            ));
        }
        if source.len() != self.src_schema.len()
            || nsrc.len() != self.src_schema.len()
            || tgt.len() != self.tgt_schema.len()
        {
            return Err(TdxError::Invalid(
                "durable state: relation count mismatch".into(),
            ));
        }
        // Commit, rebuilding the derived indexes from the restored lists.
        self.source_set = source
            .iter()
            .enumerate()
            .flat_map(|(rel, facts)| {
                facts
                    .iter()
                    .map(move |f| (rel as u32, Arc::clone(&f.data), f.interval))
            })
            .collect();
        self.source = source;
        self.count_endpoints();
        self.endpoints_at_cut = endpoints_at_cut;
        self.tp = tp;
        self.nsrc = nsrc;
        self.tgt = tgt;
        self.nsrc_index.clear();
        self.tgt_index.clear();
        self.memos = memos;
        self.nulls = NullGen::starting_at(nulls_next);
        self.stats = stats;
        self.cluster = None;
        self.poisoned = None;
        Ok(())
    }

    /// Number of facts in the materialized target.
    pub fn target_len(&self) -> usize {
        self.tgt.iter().map(|l| l.len()).sum()
    }

    /// Number of facts in the accumulated source.
    pub fn source_len(&self) -> usize {
        self.source.iter().map(|l| l.len()).sum()
    }

    /// The accumulated source as an instance.
    pub fn source(&self) -> TemporalInstance {
        lists_to_instance(&self.src_schema, &self.source)
    }

    /// The materialized solution for the accumulated source (coalesced when
    /// the session options ask for it).
    pub fn target(&self) -> TemporalInstance {
        let out = lists_to_instance(&self.tgt_schema, &self.tgt);
        if self.opts.coalesce_result {
            out.coalesced()
        } else {
            out
        }
    }

    /// Whether an internal rollback failed, leaving the session unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Attaches (and returns) an MVCC query service seeded with the
    /// current materialized target. From now on every committed batch
    /// publishes the new target version with its dirty partitions, so
    /// readers holding the service evaluate concurrently with — and never
    /// block — `apply` calls. Idempotent: an already attached service is
    /// returned as-is.
    pub fn enable_query_service(&mut self) -> Arc<QueryService> {
        if let Some(svc) = &self.query_service {
            return Arc::clone(svc);
        }
        let svc = Arc::new(QueryService::new(self.target(), self.tp.clone()));
        self.query_service = Some(Arc::clone(&svc));
        svc
    }

    /// The attached query service, if any.
    pub fn query_service(&self) -> Option<Arc<QueryService>> {
        self.query_service.as_ref().map(Arc::clone)
    }

    /// Publishes the current target to the attached service (no-op when
    /// none is attached, or when a failed rollback poisoned the session —
    /// readers then keep the last consistent version).
    fn publish_target(&self, dirty: DirtySet<'_>) {
        if self.poisoned.is_some() {
            return;
        }
        if let Some(svc) = &self.query_service {
            svc.publish(self.target(), &self.tp, dirty);
        }
    }

    /// Applies one batch and brings the target back to a chase fixpoint.
    ///
    /// On chase failure the accumulated source admits no solution with the
    /// batch applied; the batch is rolled back (the session stays at its
    /// pre-batch fixpoint, at the cost of one re-chase) and the failure is
    /// returned.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<BatchStats> {
        if let Some(msg) = &self.poisoned {
            return Err(TdxError::Invalid(format!(
                "incremental session is poisoned by a failed rollback: {msg}"
            )));
        }
        // Classify refines: pure widenings ride the incremental path. A
        // narrowing batch takes the positions of every refined row's raw
        // facts along, per relation.
        let mut inserts: Vec<(RelId, Row, Interval)> = Vec::new();
        let mut refined: Vec<Vec<u32>> = vec![Vec::new(); self.source.len()];
        let mut narrowing = false;
        for (rel, data, iv) in &batch.inserts {
            self.validate_row(*rel, data)?;
            inserts.push((*rel, Arc::clone(data), *iv));
        }
        for (rel, data, new_iv) in &batch.refines {
            self.validate_row(*rel, data)?;
            let r = rel.0 as usize;
            let mut widens = true;
            for (p, f) in self.source[r].iter().enumerate() {
                if f.data == *data {
                    refined[r].push(p as u32);
                    widens &= new_iv.covers(&f.interval);
                }
            }
            if widens {
                inserts.push((*rel, Arc::clone(data), *new_iv));
            } else {
                narrowing = true;
            }
        }
        if narrowing {
            for positions in &mut refined {
                positions.sort_unstable();
                positions.dedup();
            }
            return self.narrow(batch, refined);
        }
        // Record genuinely new facts into the accumulated source.
        let pre_lens: Vec<usize> = self.source.iter().map(|l| l.len()).collect();
        let mut fresh: FactLists = vec![Vec::new(); self.src_schema.len()];
        let mut batch_facts = 0usize;
        for (rel, data, iv) in inserts {
            let key = (rel.0, Arc::clone(&data), iv);
            if self.source_set.insert(key) {
                self.source[rel.0 as usize].push(TemporalFact {
                    data: Arc::clone(&data),
                    interval: iv,
                });
                self.endpoints.add(iv);
                fresh[rel.0 as usize].push(TemporalFact { data, interval: iv });
                batch_facts += 1;
            }
        }
        if batch_facts == 0 {
            self.stats.batches += 1;
            let target_facts = self.target_len();
            return Ok(BatchStats {
                normalized_source_facts: self.nsrc.iter().map(Vec::len).sum(),
                target_facts_after_tgd: target_facts,
                target_facts_normalized: target_facts,
                partitions: self.tp.len(),
                target_facts,
                ..BatchStats::default()
            });
        }
        match self.absorb(fresh, batch_facts, None) {
            Ok(stats) => {
                self.stats.batches += 1;
                // Fingerprint-diff publish: `stats.dirty_parts` tracks where
                // chase *work* happened, but a batch can also change answers
                // in partitions a spanning fact merely overlaps, and egd
                // rewrites can touch settled facts outside the delta. The
                // service's per-partition diff catches all of it exactly.
                self.publish_target(DirtySet::Diff);
                Ok(stats)
            }
            Err(e) => {
                // Roll the batch's source facts back and rebuild the
                // session at the (consistent) pre-batch fixpoint.
                for (r, len) in pre_lens.iter().enumerate() {
                    for fact in self.source[r].drain(*len..).collect::<Vec<_>>() {
                        self.source_set
                            .remove(&(r as u32, fact.data, fact.interval));
                    }
                }
                if let Err(inner) = self.rebuild_from_source() {
                    self.poisoned = Some(format!("{inner}"));
                }
                // The rebuild re-derived everything (fresh nulls included).
                self.publish_target(DirtySet::All);
                Err(e)
            }
        }
    }

    /// Runs `f` against the partition-server cluster, (re)spawning it when
    /// absent or when the session's timeline partition has moved past the
    /// one the cluster was built over (re-coarsening, full re-chase). A
    /// transport failure — a cluster that died while the session idled, or
    /// one whose respawn budget ran out mid-round — is retried exactly
    /// once against a freshly spawned cluster (a full re-ship, since every
    /// round re-syncs its own fact lists) before failing the batch; chase
    /// failures propagate unchanged. This replaces the per-batch heartbeat
    /// the v1 protocol paid a full round trip for: liveness is now probed
    /// by the round itself. The lock spans the whole ship-and-match
    /// exchange, so session clones sharing one cluster interleave at round
    /// granularity — and since every round re-syncs its own fact lists
    /// first (a watermark diff against whatever the servers actually
    /// hold), they never observe each other's state.
    fn with_cluster<R>(&mut self, f: impl Fn(&mut DistributedCluster) -> Result<R>) -> Result<R> {
        let mut retried = false;
        loop {
            let stale = match &self.cluster {
                None => true,
                Some(c) => {
                    let guard = c.lock().unwrap_or_else(|e| e.into_inner());
                    guard.partition() != &self.tp
                }
            };
            if stale {
                // Drop the old cluster *before* spawning its replacement:
                // with reconnect-capable (listen-mode) servers, a server
                // still serving the old connection would never accept the
                // new spawner's probe — the drop's protocol Shutdown (or
                // carrier EOF) frees it first.
                self.cluster = None;
                let spawner = match &self.spawner_override {
                    Some(sp) => Arc::clone(sp),
                    None => spawner_for(resolve_transport(self.opts.transport)),
                };
                self.cluster = Some(Arc::new(Mutex::new(
                    DistributedCluster::spawn_with_deadline(
                        &self.mapping,
                        &self.tp,
                        self.servers,
                        SearchOptions::default(),
                        spawner,
                        self.opts.frame_deadline,
                    )?,
                )));
            }
            let cluster = self.cluster.as_ref().expect("cluster just ensured");
            let mut guard = cluster.lock().unwrap_or_else(|e| e.into_inner());
            match f(&mut guard) {
                Err(e) if !retried && is_transport_error(&e) => {
                    drop(guard);
                    self.cluster = None;
                    retried = true;
                }
                out => return out,
            }
        }
    }

    /// Partition-server count (`0` = local evaluation).
    pub(crate) fn server_count(&self) -> usize {
        self.servers
    }

    /// The transport backend the session's cluster (if any) runs on.
    pub(crate) fn transport_kind(&self) -> crate::chase::cluster::TransportKind {
        resolve_transport(self.opts.transport)
    }

    /// Re-attaches to surviving partition servers (see
    /// [`DistributedCluster::resume_with`]): a server whose `Resume`
    /// watermark digests match the recovered settled lists is adopted with
    /// its retained images intact; a blank or mismatched one gets the
    /// ordinary `Hello` handshake and a full re-ship on its first round.
    /// `spawner` also becomes the session's override for later respawns.
    /// Returns how many servers were adopted; no-op for local sessions.
    pub(crate) fn resume_cluster(&mut self, spawner: Arc<dyn TransportSpawner>) -> Result<usize> {
        if self.servers == 0 {
            return Ok(0);
        }
        self.spawner_override = Some(Arc::clone(&spawner));
        self.cluster = None;
        let (cluster, resumed) = DistributedCluster::resume_with(
            &self.mapping,
            &self.tp,
            self.servers,
            SearchOptions::default(),
            spawner,
            self.opts.frame_deadline,
            [&self.nsrc, &self.tgt],
        )?;
        self.cluster = Some(Arc::new(Mutex::new(cluster)));
        Ok(resumed)
    }

    /// Abandons the cluster as a coordinator crash would: carriers
    /// severed, no protocol shutdown, listen-mode servers keep their
    /// retained state. A cluster shared with session clones cannot be
    /// severed and is released normally instead.
    pub(crate) fn sever_cluster(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            if let Ok(m) = Arc::try_unwrap(cluster) {
                m.into_inner().unwrap_or_else(|e| e.into_inner()).sever();
            }
        }
    }

    /// Cumulative wire-traffic counters of the session's partition-server
    /// cluster, when one is running (`None` for local sessions and before
    /// the first distributed round). The observable behind the
    /// shipping-discipline tests: steady-state `ApplyDelta` traffic must be
    /// proportional to the batch, not the store.
    pub fn cluster_traffic(&self) -> Option<TrafficStats> {
        self.cluster
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).traffic())
    }

    /// One distributed tgd round: a single fused frame per server that
    /// ships the normalized-source sync program and collects the
    /// delta-touching homomorphisms per tgd in the same round trip, in
    /// ascending partition order. The session keeps normalization
    /// coordinator-local (its batches are small — latency, not throughput,
    /// bounds a round), so the frame carries `discover: false`.
    fn distributed_tgd_round(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<Vec<Vec<Hom>>> {
        let tgd_count = self.plans.len();
        self.with_cluster(|c| Ok(c.run_tgd_round_fused(pre, delta, None, false, tgd_count)?.0))
    }

    /// One distributed egd round: a single fused frame per server shipping
    /// the target sync program and collecting the merge operations.
    fn distributed_egd_round(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<Vec<MergeOp>> {
        self.with_cluster(|c| Ok(c.run_egd_round_fused(pre, delta, None, false)?.0))
    }

    fn validate_row(&self, rel: RelId, data: &Row) -> Result<()> {
        let schema = &self.src_schema;
        if rel.0 as usize >= schema.len() {
            return Err(TdxError::Invalid(format!("unknown relation id {}", rel.0)));
        }
        if schema.relation(rel).arity() != data.len() {
            return Err(TdxError::Invalid(format!(
                "row arity {} does not match relation {}",
                data.len(),
                schema.relation(rel).name()
            )));
        }
        if data.iter().any(|v| matches!(v, Value::Null(_))) {
            return Err(TdxError::Invalid(
                "source batches must be complete; found a null".into(),
            ));
        }
        Ok(())
    }

    /// The incremental core: absorbs `fresh` (already recorded in the
    /// accumulated source) and restores the chase fixpoint. The settled
    /// blocks are edited in place, beside their indexes; on failure they
    /// are left half-edited, and the caller either rebuilds the session or
    /// undoes what `journal` recorded.
    fn absorb(
        &mut self,
        fresh: FactLists,
        batch_facts: usize,
        journal: Option<&mut Journal>,
    ) -> Result<BatchStats> {
        let mut nsrc = std::mem::take(&mut self.nsrc);
        let mut nsrc_index = std::mem::take(&mut self.nsrc_index);
        let mut tgt = std::mem::take(&mut self.tgt);
        let mut tgt_index = std::mem::take(&mut self.tgt_index);
        let (mapping, links) = (Arc::clone(&self.mapping), Arc::clone(&self.links));
        let (src_schema, tgt_schema) = (Arc::clone(&self.src_schema), Arc::clone(&self.tgt_schema));
        let (tgd_bodies, egd_bodies) = (mapping.tgd_bodies(), mapping.egd_bodies());
        let (nsrc_edits, tgt_edits, memo_log) = match journal {
            Some(j) => (
                Some(&mut j.nsrc),
                Some(&mut j.tgt),
                Some(&mut j.memos_added),
            ),
            None => (None, None, None),
        };
        let out = self.absorb_into(
            Settled::new(
                &mut nsrc,
                &mut nsrc_index,
                &src_schema,
                &tgd_bodies,
                &links.keys[SOURCE],
            )
            .journaled(nsrc_edits),
            Settled::new(
                &mut tgt,
                &mut tgt_index,
                &tgt_schema,
                &egd_bodies,
                &links.keys[TARGET],
            )
            .journaled(tgt_edits),
            fresh,
            batch_facts,
            memo_log,
        );
        self.nsrc = nsrc;
        self.nsrc_index = nsrc_index;
        self.tgt = tgt;
        self.tgt_index = tgt_index;
        out
    }

    fn absorb_into(
        &mut self,
        mut nsrc: Settled<'_>,
        mut tgt: Settled<'_>,
        fresh: FactLists,
        batch_facts: usize,
        mut memo_log: Option<&mut Vec<(usize, Vec<Value>, Interval)>>,
    ) -> Result<BatchStats> {
        let mut stats = BatchStats {
            batch_facts,
            ..BatchStats::default()
        };
        // Breakpoint maintenance: endpoints are drawn from the source (the
        // chase never invents new ones, and the source edits keep
        // `endpoints` current); re-coarsen when the histogram shifted
        // enough that the old cut no longer balances.
        if self.endpoints.len() >= (2 * self.endpoints_at_cut).max(2)
            || (self.stats.batches % 16 == 15
                && self.tp.imbalance(&self.endpoints.breakpoints()) > 3.0)
        {
            let bps = self.endpoints.breakpoints();
            self.tp = TimelinePartition::new(&bps.coarsen(PARTS_HINT));
            self.endpoints_at_cut = self.endpoints.len();
            stats.recoarsened = true;
        }
        stats.partitions = self.tp.len();
        let tracing = self.opts.record_trace;
        if tracing {
            stats.trace.push(format!(
                "{} timeline partitions, {} threads",
                stats.partitions, self.threads
            ));
        }
        let lens = |lists: &FactLists| lists.iter().map(Vec::len).sum::<usize>();

        // Drop batch facts already present verbatim in the normalized
        // source — re-asserting an existing fragment discovers no cut, so
        // without this the duplicate would settle into the lists and
        // accumulate across batches (the raw-source dedup above cannot see
        // fragments; correctness is unaffected, size is).
        let mut fresh = fresh;
        for (r, facts) in fresh.iter_mut().enumerate() {
            facts.retain(|f| !nsrc.contains(RelId(r as u32), &f.data, f.interval));
        }

        // Step 1: incremental source renormalization — the batch facts are
        // the fresh seed; settled facts re-fragment only when a new image
        // touches them.
        let tgd_bodies = self.mapping.tgd_bodies();
        let source_before = lens(nsrc.lists) + lens(&fresh);
        let ndelta = refragment_lists(
            &self.src_schema,
            &self.tp,
            self.threads,
            SearchOptions::default(),
            Some(&tgd_bodies),
            self.opts.naive_normalization,
            &mut nsrc,
            fresh,
        )?;
        stats.source_delta = lens(&ndelta);
        stats.normalized_source_facts = lens(nsrc.lists) + stats.source_delta;
        if tracing {
            stats.trace.push(format!(
                "normalized source w.r.t. Σst: {source_before} → {} facts",
                stats.normalized_source_facts
            ));
        }
        let mut dirty_parts: BTreeSet<usize> = BTreeSet::new();
        for facts in &ndelta {
            for fact in facts {
                dirty_parts.insert(self.tp.part_of(fact.interval.start()));
            }
        }

        // Step 2: delta-scoped tgd steps at dirty intervals. A head fact is
        // new unless the settled target or this batch already holds it.
        let mut new_facts: FactLists = vec![Vec::new(); self.tgt_schema.len()];
        let mut inserted: FxHashSet<(u32, Row, Interval)> = Default::default();
        let mut is_new = |tgt: &mut Settled<'_>, rel: RelId, row: &Row, iv: Interval| {
            !tgt.contains(rel, row, iv) && inserted.insert((rel.0, Arc::clone(row), iv))
        };
        let mut probe_inst: Option<TemporalInstance> = if self.probe_needed {
            Some(lists_to_instance(&self.tgt_schema, tgt.lists))
        } else {
            None
        };
        // Distributed sessions ship the lists and enumerate on the
        // partition servers; local sessions join over the dirty-interval
        // index. Either way the homomorphisms arrive per tgd, delta-scoped
        // and deterministically ordered.
        let mut cluster_homs: Option<Vec<Vec<Hom>>> = if self.servers > 0 {
            Some(self.distributed_tgd_round(nsrc.lists, &ndelta)?)
        } else {
            None
        };
        let src_idx = if cluster_homs.is_none() {
            Some(DirtyIndex::build(&mut nsrc, &ndelta))
        } else {
            None
        };
        for ti in fire_order(self.plans.iter().map(|p| &p.check)) {
            let homs: Vec<Hom> = match cluster_homs.as_mut() {
                Some(all) => std::mem::take(&mut all[ti]),
                None => {
                    let idx = src_idx.as_ref().expect("local dirty index built");
                    let plan = &self.plans[ti];
                    let mut homs = Vec::new();
                    shared_join_delta(&plan.body, nsrc.lists, &ndelta, idx, |vals, iv| {
                        homs.push((
                            plan.body
                                .vars
                                .iter()
                                .copied()
                                .zip(vals.iter().copied())
                                .collect(),
                            iv,
                        ));
                    });
                    homs
                }
            };
            stats.tgd_matches += homs.len();
            for (h, iv) in homs {
                let plan = &self.plans[ti];
                match &plan.check {
                    Check::Direct => {
                        let mut fired = false;
                        for (rel, atom) in &plan.head {
                            let row: Row = instantiate(atom, &h).into();
                            if is_new(&mut tgt, *rel, &row, iv) {
                                register_memo(
                                    &mut self.memos,
                                    &self.plans,
                                    *rel,
                                    &row,
                                    iv,
                                    memo_log.as_deref_mut(),
                                );
                                if let Some(pi) = probe_inst.as_mut() {
                                    pi.insert(*rel, Arc::clone(&row), iv);
                                }
                                new_facts[rel.0 as usize].push(TemporalFact {
                                    data: row,
                                    interval: iv,
                                });
                                fired = true;
                            }
                        }
                        if fired {
                            stats.tgd_steps += 1;
                            if tracing {
                                let tgd = &self.mapping.st_tgds()[ti];
                                stats.trace.push(narrate_tgd_step(tgd, &h, iv));
                            }
                        }
                        continue;
                    }
                    Check::Memo { rel: _, cols } => {
                        let key = memo_probe_key(cols, &plan.head[0].1, &h)?;
                        if self.memos[ti].covers(&key, iv) {
                            continue;
                        }
                    }
                    Check::Probe => {
                        let head_atoms: Vec<Atom> =
                            plan.head.iter().map(|(_, a)| a.clone()).collect();
                        let pi = probe_inst.as_ref().expect("probe instance materialized");
                        if pi.exists_match_with(
                            &head_atoms,
                            TemporalMode::Shared,
                            &h,
                            Some(iv),
                            SearchOptions::default(),
                        )? {
                            continue;
                        }
                    }
                }
                let mut env = h;
                for v in &self.plans[ti].existentials {
                    env.push((*v, Value::Null(self.nulls.fresh())));
                }
                for (rel, atom) in &self.plans[ti].head {
                    let row: Row = instantiate(atom, &env).into();
                    if is_new(&mut tgt, *rel, &row, iv) {
                        register_memo(
                            &mut self.memos,
                            &self.plans,
                            *rel,
                            &row,
                            iv,
                            memo_log.as_deref_mut(),
                        );
                        if let Some(pi) = probe_inst.as_mut() {
                            pi.insert(*rel, Arc::clone(&row), iv);
                        }
                        new_facts[rel.0 as usize].push(TemporalFact {
                            data: row,
                            interval: iv,
                        });
                    }
                }
                stats.tgd_steps += 1;
                if tracing {
                    let tgd = &self.mapping.st_tgds()[ti];
                    stats.trace.push(narrate_tgd_step(tgd, &env, iv));
                }
            }
        }
        // Source fixpoint settles: delta drains into the settled block.
        settle(&mut nsrc, ndelta);
        stats.target_new_facts = lens(&new_facts);
        stats.target_facts_after_tgd = lens(tgt.lists) + stats.target_new_facts;
        // Without new target facts nothing is normalized: the settled
        // target is the normalized one.
        stats.target_facts_normalized = lens(tgt.lists);

        // Step 3+4: boundary reconciliation and the egd fixpoint, only if
        // the batch produced target work.
        if stats.target_new_facts > 0 {
            for facts in &new_facts {
                for fact in facts {
                    dirty_parts.insert(self.tp.part_of(fact.interval.start()));
                }
            }
            let mapping = Arc::clone(&self.mapping);
            let egd_bodies = mapping.egd_bodies();
            // Initial normalization always runs w.r.t. the egd bodies (the
            // paper's step 3); per-round renormalization honors the option.
            let mut delta = refragment_lists(
                &self.tgt_schema,
                &self.tp,
                self.threads,
                SearchOptions::default(),
                Some(&egd_bodies),
                self.opts.naive_normalization,
                &mut tgt,
                new_facts,
            )?;
            stats.target_facts_normalized = lens(tgt.lists) + lens(&delta);
            if tracing {
                stats.trace.push(format!(
                    "normalized target w.r.t. Σeg: {} → {} facts",
                    stats.target_facts_after_tgd, stats.target_facts_normalized
                ));
            }
            loop {
                // Every round but a fresh session's first has a settled
                // block its delta-restricted joins skip.
                let restricted = tgt.lists.iter().any(|l| !l.is_empty());
                let mut uf = AnnotatedUnionFind::new();
                let mut merges = 0usize;
                let mut conflict: Option<(String, UfKey, UfKey, Interval)> = None;
                if self.servers > 0 {
                    // Ship the target lists, run local egd rounds on the
                    // servers, fold the merge ops into the global
                    // union-find through the shared kernel (its
                    // ChaseFailure propagates like a local conflict would).
                    let ops = self.distributed_egd_round(tgt.lists, &delta)?;
                    merges += fold_merge_ops(
                        ops.into_iter()
                            .map(|(ei, a, b, iv)| (ei as usize, a, b, iv)),
                        &mut uf,
                        |ei| self.egd_plans[ei].name.clone(),
                    )?;
                } else {
                    let tgt_idx = DirtyIndex::build(&mut tgt, &delta);
                    for ep in &self.egd_plans {
                        if conflict.is_some() {
                            break;
                        }
                        shared_join_delta(&ep.body, tgt.lists, &delta, &tgt_idx, |vals, iv| {
                            if conflict.is_some() {
                                return;
                            }
                            let (a, b) = (vals[ep.lhs], vals[ep.rhs]);
                            if a == b {
                                return;
                            }
                            let key = |v: Value| match v {
                                Value::Const(c) => UfKey::Const(c),
                                Value::Null(n) => UfKey::Null(n, iv),
                            };
                            match uf.union(key(a), key(b)) {
                                Ok(()) => merges += 1,
                                Err((c1, c2)) => conflict = Some((ep.name.clone(), c1, c2, iv)),
                            }
                        });
                    }
                }
                if let Some((name, c1, c2, iv)) = conflict {
                    let render = |k: UfKey| match k {
                        UfKey::Const(c) => c.to_string(),
                        UfKey::Null(n, _) => n.to_string(),
                    };
                    return Err(TdxError::ChaseFailure {
                        dependency: name,
                        left: render(c1),
                        right: render(c2),
                        interval: Some(iv),
                    });
                }
                if merges == 0 {
                    break;
                }
                stats.egd_rounds += 1;
                stats.egd_merges += merges;
                if restricted {
                    stats.egd_delta_rounds += 1;
                }
                if tracing {
                    stats.trace.push(format!(
                        "egd round {}: {merges} identifications",
                        stats.egd_rounds
                    ));
                }
                let rewritten = rewrite_values(&mut tgt, delta, &mut uf);
                let renorm = if self.opts.renormalize_between_egd_rounds {
                    Some(egd_bodies.as_slice())
                } else {
                    None // paper-faithful: alignment cuts only
                };
                delta = refragment_lists(
                    &self.tgt_schema,
                    &self.tp,
                    self.threads,
                    SearchOptions::default(),
                    renorm,
                    self.opts.naive_normalization,
                    &mut tgt,
                    rewritten,
                )?;
                for facts in &delta {
                    for fact in facts {
                        dirty_parts.insert(self.tp.part_of(fact.interval.start()));
                    }
                }
            }
            settle(&mut tgt, delta);
        }

        stats.dirty_partitions = dirty_parts.len();
        stats.dirty_parts = dirty_parts.into_iter().collect();
        stats.target_facts = lens(tgt.lists);
        self.stats.tgd_steps += stats.tgd_steps;
        self.stats.egd_merges += stats.egd_merges;
        Ok(stats)
    }

    /// Runs `f` on the two settled blocks beside their indexes, recording
    /// their edits into `journal` when given.
    fn with_blocks<R>(
        &mut self,
        journal: Option<&mut Journal>,
        f: impl FnOnce(Settled<'_>, Settled<'_>) -> R,
    ) -> R {
        let (mapping, links) = (Arc::clone(&self.mapping), Arc::clone(&self.links));
        let (src_schema, tgt_schema) = (Arc::clone(&self.src_schema), Arc::clone(&self.tgt_schema));
        let (tgd_bodies, egd_bodies) = (mapping.tgd_bodies(), mapping.egd_bodies());
        let (nsrc_edits, tgt_edits) = match journal {
            Some(j) => (Some(&mut j.nsrc), Some(&mut j.tgt)),
            None => (None, None),
        };
        f(
            Settled::new(
                &mut self.nsrc,
                &mut self.nsrc_index,
                &src_schema,
                &tgd_bodies,
                &links.keys[SOURCE],
            )
            .journaled(nsrc_edits),
            Settled::new(
                &mut self.tgt,
                &mut self.tgt_index,
                &tgt_schema,
                &egd_bodies,
                &links.keys[TARGET],
            )
            .journaled(tgt_edits),
        )
    }

    /// The narrowing path: re-chases the linked component of the batch's
    /// refined rows (see the module docs). The component's settled facts
    /// and the memo keys its target facts carry are deleted in place, the
    /// refined rows are swapped in the raw source, and the component's raw
    /// facts — in source order, followed by the batch's new facts — are
    /// absorbed against the rest of the state. Every edit is journaled, so
    /// a failed re-chase leaves the session byte-identical to its
    /// pre-batch self. A mapping without value links, or a component that
    /// is the whole state, takes [`full_rechase`](Self::full_rechase).
    /// `refined` holds the positions of the refined rows' raw facts, per
    /// relation, ascending.
    fn narrow(&mut self, batch: &DeltaBatch, refined: Vec<Vec<u32>>) -> Result<BatchStats> {
        let links = Arc::clone(&self.links);
        if !links.connected {
            return self.full_rechase(batch);
        }
        let seeds: Vec<(RelId, TemporalFact)> = refined
            .iter()
            .enumerate()
            .flat_map(|(r, positions)| {
                let list = &self.source[r];
                positions
                    .iter()
                    .map(move |&p| (RelId(r as u32), list[p as usize].clone()))
            })
            .collect();
        let component = self.with_blocks(None, |mut nsrc, mut tgt| {
            linked_component(&links, [nsrc.parts(), tgt.parts()], &seeds)
        });
        let size: usize = component.iter().flatten().map(Vec::len).sum();
        if size
            == self
                .nsrc
                .iter()
                .chain(&self.tgt)
                .map(Vec::len)
                .sum::<usize>()
        {
            return self.full_rechase(batch);
        }
        let mut journal = Journal {
            nsrc: Vec::new(),
            tgt: Vec::new(),
            memos_added: Vec::new(),
            memos_dropped: Vec::new(),
            source_removed: Vec::new(),
            source_lens: Vec::new(),
            nulls: self.nulls.peek(),
            tp: self.tp.clone(),
            endpoints_at_cut: self.endpoints_at_cut,
            stats: self.stats.clone(),
        };
        // The component's source rows; then its memo keys and facts go.
        let rows: Vec<FxHashSet<Row>> = component[SOURCE]
            .iter()
            .zip(&self.nsrc)
            .map(|(ps, list)| {
                ps.iter()
                    .map(|&p| Arc::clone(&list[p as usize].data))
                    .collect()
            })
            .collect();
        for (r, ps) in component[TARGET].iter().enumerate() {
            for &p in ps {
                let data = &self.tgt[r][p as usize].data;
                let checks = self.plans.iter().map(|p| &p.check);
                for_each_memo_key(checks, RelId(r as u32), data, |ti, key| {
                    if let Some(ivs) = self.memos[ti].take(&key) {
                        journal.memos_dropped.push((ti, key, ivs));
                    }
                });
            }
        }
        self.with_blocks(Some(&mut journal), |mut nsrc, mut tgt| {
            let [src_gone, tgt_gone] = &component;
            for (r, ps) in src_gone.iter().enumerate() {
                nsrc.delete(RelId(r as u32), ps);
            }
            for (r, ps) in tgt_gone.iter().enumerate() {
                tgt.delete(RelId(r as u32), ps);
            }
        });
        let (fresh, batch_facts) = self.swap_refined_rows(batch, refined, &rows, &mut journal);
        match self.absorb(fresh, batch_facts, Some(&mut journal)) {
            Ok(stats) => {
                self.stats.batches += 1;
                self.publish_target(DirtySet::Diff);
                Ok(stats)
            }
            Err(e) => {
                self.undo(journal);
                Err(e)
            }
        }
    }

    /// Swaps the batch's refined rows in the raw source — each loses every
    /// interval it held, the facts at `refined` (per relation, ascending)
    /// — and appends the batch's new facts, journaling both. Returns the
    /// facts to absorb: the raw facts of the component's source `rows`
    /// (per relation) in source order, then the appended ones, with the
    /// count of the latter.
    fn swap_refined_rows(
        &mut self,
        batch: &DeltaBatch,
        refined: Vec<Vec<u32>>,
        rows: &[FxHashSet<Row>],
        journal: &mut Journal,
    ) -> (FactLists, usize) {
        for (r, at) in refined.into_iter().enumerate() {
            if at.is_empty() {
                continue;
            }
            let list = &mut self.source[r];
            let gone: Vec<TemporalFact> = at.iter().map(|&p| list[p as usize].clone()).collect();
            remove_positions(list, &at);
            for f in &gone {
                self.source_set
                    .remove(&(r as u32, Arc::clone(&f.data), f.interval));
                self.endpoints.remove(f.interval);
            }
            journal.source_removed.push((RelId(r as u32), at, gone));
        }
        journal.source_lens = self.source.iter().map(Vec::len).collect();
        let mut added = 0usize;
        for (rel, data, iv) in batch.refines.iter().chain(&batch.inserts) {
            if self.source_set.insert((rel.0, Arc::clone(data), *iv)) {
                self.source[rel.0 as usize].push(TemporalFact {
                    data: Arc::clone(data),
                    interval: *iv,
                });
                self.endpoints.add(*iv);
                added += 1;
            }
        }
        let fresh = self
            .source
            .iter()
            .zip(&journal.source_lens)
            .zip(rows)
            .map(|((list, &len), rows)| {
                let (kept, appended) = list.split_at(len);
                kept.iter()
                    .filter(|f| !rows.is_empty() && rows.contains(&f.data[..]))
                    .chain(appended)
                    .cloned()
                    .collect()
            })
            .collect();
        (fresh, added)
    }

    /// Puts the session back as it was before the component re-chase that
    /// recorded `journal`.
    fn undo(&mut self, journal: Journal) {
        let (nsrc_edits, tgt_edits) = (journal.nsrc, journal.tgt);
        self.with_blocks(None, |mut nsrc, mut tgt| {
            nsrc.undo(nsrc_edits);
            tgt.undo(tgt_edits);
        });
        for (ti, key, iv) in journal.memos_added.iter().rev() {
            self.memos[*ti].remove(key, *iv);
        }
        for (ti, key, ivs) in journal.memos_dropped {
            for iv in ivs {
                self.memos[ti].insert(key.clone(), iv);
            }
        }
        for (r, (list, &len)) in self.source.iter_mut().zip(&journal.source_lens).enumerate() {
            for f in list.drain(len..) {
                self.endpoints.remove(f.interval);
                self.source_set.remove(&(r as u32, f.data, f.interval));
            }
        }
        for (rel, at, gone) in journal.source_removed.into_iter().rev() {
            for f in &gone {
                self.endpoints.add(f.interval);
                self.source_set
                    .insert((rel.0, Arc::clone(&f.data), f.interval));
            }
            insert_positions(&mut self.source[rel.0 as usize], &at, gone);
        }
        self.nulls = NullGen::starting_at(journal.nulls);
        self.tp = journal.tp;
        self.endpoints_at_cut = journal.endpoints_at_cut;
        self.stats = journal.stats;
    }

    /// The fallback non-monotone path: rebuild the accumulated source with
    /// the batch's refines applied, then re-chase everything as one batch.
    fn full_rechase(&mut self, batch: &DeltaBatch) -> Result<BatchStats> {
        let old_source = self.source.clone();
        let old_set = self.source_set.clone();
        // Refined rows lose every previously asserted interval.
        for (rel, data, _) in &batch.refines {
            let r = rel.0 as usize;
            let source = &mut self.source;
            let set = &mut self.source_set;
            source[r].retain(|f| {
                if f.data == *data {
                    set.remove(&(rel.0, Arc::clone(&f.data), f.interval));
                    false
                } else {
                    true
                }
            });
        }
        for (rel, data, iv) in batch.refines.iter().chain(batch.inserts.iter()) {
            if self.source_set.insert((rel.0, Arc::clone(data), *iv)) {
                self.source[rel.0 as usize].push(TemporalFact {
                    data: Arc::clone(data),
                    interval: *iv,
                });
            }
        }
        match self.rebuild_from_source() {
            Ok(mut stats) => {
                stats.full_rechase = true;
                stats.batch_facts = batch.len();
                self.stats.batches += 1;
                self.publish_target(DirtySet::All);
                Ok(stats)
            }
            Err(e) => {
                // The refined source admits no solution; keep the pre-batch
                // state usable.
                self.source = old_source;
                self.source_set = old_set;
                if let Err(inner) = self.rebuild_from_source() {
                    self.poisoned = Some(format!("{inner}"));
                }
                // The rollback rebuilt the pre-batch state with fresh
                // derived facts; stale fragments must not survive it.
                self.publish_target(DirtySet::All);
                Err(e)
            }
        }
    }

    /// Resets the derived state and re-chases the accumulated source as one
    /// batch — correctness anchor for fallbacks and rollbacks. The
    /// work-behind-the-current-state counters restart with the rebuild
    /// (see [`SessionStats`]); `batches` is the caller's concern — a
    /// rollback must not count the failed batch as applied.
    fn rebuild_from_source(&mut self) -> Result<BatchStats> {
        self.reset_derived_state();
        self.count_endpoints();
        let fresh = self.source.clone();
        let n = fresh.iter().map(|l| l.len()).sum();
        self.stats.full_rechases += 1;
        self.stats.tgd_steps = 0;
        self.stats.egd_merges = 0;
        self.absorb(fresh, n, None)
    }

    /// Recounts the endpoint histogram from the accumulated source.
    fn count_endpoints(&mut self) {
        self.endpoints = Endpoints::default();
        for fact in self.source.iter().flatten() {
            self.endpoints.add(fact.interval);
        }
    }

    /// Drops **every** piece of state derived from the pre-rebuild source,
    /// in one place so a rebuild can never leak stale derived state:
    /// normalized-source and target lists with their settled indexes
    /// (rebuilt lazily by the first absorb that needs them), the
    /// persistent restricted-check memos (a memo entry records coverage by
    /// a target fact that a narrowing refine may have removed — a stale
    /// entry would wrongly suppress tgd steps in later batches), the null
    /// generator, the endpoint histogram, the timeline partition, and the
    /// partition-server cluster (the fresh partition forces a respawn).
    /// The per-phase `DirtyIndex` is never persisted on the session, so no
    /// other derived structure can survive a rebuild.
    fn reset_derived_state(&mut self) {
        self.nsrc = vec![Vec::new(); self.src_schema.len()];
        self.tgt = vec![Vec::new(); self.tgt_schema.len()];
        self.nsrc_index.clear();
        self.tgt_index.clear();
        for m in &mut self.memos {
            m.clear();
        }
        self.nulls = NullGen::new();
        self.endpoints = Endpoints::default();
        self.endpoints_at_cut = 0;
        self.tp = TimelinePartition::whole();
        self.cluster = None;
    }
}

/// Registers an inserted target fact with every persistent memo watching
/// its relation (the kernel's memo registration over the session's
/// plans), logging each new entry when given a log.
fn register_memo(
    memos: &mut [MemoTable],
    plans: &[TgdPlan],
    rel: RelId,
    data: &[Value],
    iv: Interval,
    log: Option<&mut Vec<(usize, Vec<Value>, Interval)>>,
) {
    let checks = plans.iter().map(|p| &p.check);
    match log {
        None => crate::chase::cluster::register_memo(memos, checks, rel, data, iv),
        Some(log) => for_each_memo_key(checks, rel, data, |ti, key| {
            if memos[ti].insert(key.clone(), iv) {
                log.push((ti, key, iv));
            }
        }),
    }
}

/// Drains `delta` into the settled block, preserving order: the settled
/// representation between batches.
fn settle(pre: &mut Settled<'_>, delta: FactLists) {
    for (r, facts) in delta.into_iter().enumerate() {
        for fact in facts {
            pre.push(RelId(r as u32), fact);
        }
    }
}

/// The c-chase of `ic` as one batch on a fresh session built from `opts` —
/// what [`c_chase_with`](crate::chase::concrete::c_chase_with) runs for the
/// local engines. Every [`ChaseStats`] field except the input size comes
/// from the session's own counters for that batch.
pub(crate) fn chase_as_one_batch(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
) -> Result<CChaseResult> {
    if ic.schema() != mapping.source() {
        return Err(TdxError::Invalid(
            "the source instance is not over the mapping's source schema".into(),
        ));
    }
    let mut session = IncrementalExchange::with_options(mapping.clone(), opts.clone())?;
    let batch = session.apply(&DeltaBatch::from_instance(ic))?;
    let target = session.target();
    let stats = ChaseStats {
        source_facts_in: ic.total_len(),
        source_facts_normalized: batch.normalized_source_facts,
        tgd_steps: batch.tgd_steps,
        target_facts_after_tgd: batch.target_facts_after_tgd,
        target_facts_normalized: batch.target_facts_normalized,
        egd_rounds: batch.egd_rounds,
        egd_delta_rounds: batch.egd_delta_rounds,
        egd_merges: batch.egd_merges,
        target_facts_out: target.total_len(),
        nulls_created: session.stats().nulls_created,
    };
    Ok(CChaseResult {
        target,
        normalized_source: lists_to_instance(&session.src_schema, &session.nsrc),
        stats,
        trace: batch.trace,
    })
}

fn lists_to_instance(schema: &Arc<Schema>, lists: &FactLists) -> TemporalInstance {
    let mut out = TemporalInstance::new(Arc::clone(schema));
    for (r, facts) in lists.iter().enumerate() {
        out.extend(RelId(r as u32), facts);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hom::hom_equivalent;
    use crate::semantics::semantics;
    use crate::verify::check_against_abstract_chase;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};
    use tdx_storage::row;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    pub(crate) fn paper_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> exists s . Emp(n,c,s)")
                    .unwrap()
                    .named("st1"),
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

    /// Same schemas as [`paper_mapping`], different dependencies — for the
    /// durable-session fingerprint test.
    pub(crate) fn other_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![parse_tgd("E(n,c) -> exists s . Emp(n,c,s)")
                .unwrap()
                .named("st1")],
            vec![],
        )
        .unwrap()
    }

    pub(crate) fn batch(
        mapping: &SchemaMapping,
        facts: &[(&str, &[&str], Interval)],
    ) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for (rel, vals, interval) in facts {
            let rid = mapping
                .source()
                .rel_id(tdx_logic::Symbol::intern(rel))
                .unwrap();
            let data: Row = vals.iter().map(|v| Value::str(v)).collect();
            b.insert(rid, data, *interval);
        }
        b
    }

    /// Checks the session against the abstract chase of its accumulated
    /// source — never against the default engine, which is itself a
    /// one-batch session.
    fn assert_matches_from_scratch(session: &IncrementalExchange) {
        let (source, inc) = (session.source(), session.target());
        if let Err(e) = check_against_abstract_chase(&source, session.mapping(), Ok(&inc)) {
            panic!("incremental target diverged from the abstract chase: {e}");
        }
    }

    #[test]
    fn figure4_in_batches_matches_from_scratch() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let batches = [
            batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(2012, 2014))]),
            batch(
                &mapping,
                &[
                    ("E", &["Ada", "Google"][..], Interval::from(2014)),
                    ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ],
            ),
            batch(
                &mapping,
                &[
                    ("E", &["Bob", "IBM"][..], iv(2013, 2018)),
                    ("S", &["Bob", "13k"][..], Interval::from(2015)),
                ],
            ),
        ];
        for b in &batches {
            s.apply(b).unwrap();
            assert_matches_from_scratch(&s);
        }
        // Figure 9: five facts, Ada's salary unknown on [2012, 2013).
        let target = s.target();
        assert_eq!(target.total_len(), 5);
        assert!(target.contains(
            RelId(0),
            &row([Value::str("Ada"), Value::str("IBM"), Value::str("18k")]),
            iv(2013, 2014)
        ));
    }

    #[test]
    fn single_batch_equals_full_chase() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let b = batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2014)),
                ("E", &["Ada", "Google"][..], Interval::from(2014)),
                ("E", &["Bob", "IBM"][..], iv(2013, 2018)),
                ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ("S", &["Bob", "13k"][..], Interval::from(2015)),
            ],
        );
        let stats = s.apply(&b).unwrap();
        assert_eq!(stats.batch_facts, 5);
        // 3 σ2 steps, then σ1 only where no salary witnesses it.
        assert_eq!(stats.tgd_steps, 5);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn duplicate_and_empty_batches_are_cheap_noops() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let b = batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(2012, 2014))]);
        s.apply(&b).unwrap();
        let len = s.target_len();
        let stats = s.apply(&b).unwrap();
        assert_eq!(stats.batch_facts, 0);
        assert_eq!(stats.tgd_steps, 0);
        assert_eq!(s.target_len(), len);
        let stats = s.apply(&DeltaBatch::new()).unwrap();
        assert_eq!(stats.batch_facts, 0);
    }

    #[test]
    fn reasserting_an_existing_fragment_adds_no_work() {
        // E fragments at 2014 (S joins there); a later batch re-asserting
        // the fragment verbatim is new to the raw source but must not
        // duplicate inside the normalized lists or trigger chase work.
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2016)),
                ("S", &["Ada", "18k"][..], iv(2014, 2016)),
            ],
        ))
        .unwrap();
        let target_before = s.target();
        let stats = s
            .apply(&batch(
                &mapping,
                &[("E", &["Ada", "IBM"][..], iv(2014, 2016))],
            ))
            .unwrap();
        assert_eq!(stats.batch_facts, 1, "new to the raw source");
        assert_eq!(stats.source_delta, 0, "but already normalized away");
        assert_eq!(stats.tgd_steps, 0);
        assert_eq!(s.target(), target_before);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn failed_batches_do_not_count_as_applied() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(0, 10)),
                ("S", &["Ada", "18k"][..], iv(0, 10)),
            ],
        ))
        .unwrap();
        assert_eq!(s.stats().batches, 1);
        s.apply(&batch(&mapping, &[("S", &["Ada", "20k"][..], iv(5, 15))]))
            .unwrap_err();
        assert_eq!(s.stats().batches, 1, "rolled-back batch must not count");
        assert_eq!(s.stats().full_rechases, 1, "rollback rebuilds once");
        s.apply(&batch(&mapping, &[("E", &["Bob", "IBM"][..], iv(2, 8))]))
            .unwrap();
        assert_eq!(s.stats().batches, 2);
    }

    #[test]
    fn widening_refine_rides_the_incremental_path() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2014)),
                ("S", &["Ada", "18k"][..], iv(2013, 2014)),
            ],
        ))
        .unwrap();
        let e = mapping
            .source()
            .rel_id(tdx_logic::Symbol::intern("E"))
            .unwrap();
        let mut b = DeltaBatch::new();
        b.refine(
            e,
            row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2016),
        );
        let stats = s.apply(&b).unwrap();
        assert!(!stats.full_rechase);
        assert_matches_from_scratch(&s);
        // The widened extent is reflected in the solution.
        let target = s.target();
        let sem = semantics(&target);
        assert!(!sem.snapshot_at(2015).is_empty());
    }

    #[test]
    fn narrowing_refine_rechases_its_component() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2018)),
                ("S", &["Ada", "18k"][..], iv(2013, 2016)),
                ("E", &["Bob", "IBM"][..], iv(2012, 2018)),
            ],
        ))
        .unwrap();
        let bob = |s: &IncrementalExchange| {
            s.tgt[0]
                .iter()
                .filter(|f| f.data[0] == Value::str("Bob"))
                .cloned()
                .collect::<Vec<_>>()
        };
        let bob_before = bob(&s);
        let e = mapping
            .source()
            .rel_id(tdx_logic::Symbol::intern("E"))
            .unwrap();
        let mut b = DeltaBatch::new();
        b.refine(
            e,
            row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2014),
        );
        let stats = s.apply(&b).unwrap();
        assert!(!stats.full_rechase, "only Ada's component is re-chased");
        assert_eq!(s.stats().full_rechases, 0);
        assert_eq!(s.source_len(), 3);
        let sem = semantics(&s.target());
        assert_eq!(
            sem.snapshot_at(2015).total_len(),
            1,
            "only Bob works in 2015"
        );
        assert_eq!(bob(&s), bob_before, "Bob's facts, nulls included, stay");
        assert_matches_from_scratch(&s);
        // Alone in a session, Ada's component is the whole state.
        let mut alone = IncrementalExchange::new(mapping.clone()).unwrap();
        alone
            .apply(&batch(
                &mapping,
                &[("E", &["Ada", "IBM"][..], iv(2012, 2018))],
            ))
            .unwrap();
        assert!(alone.apply(&b).unwrap().full_rechase, "fallback");
        assert_matches_from_scratch(&alone);
    }

    /// A row no dependency reads has no link key: its normalized facts
    /// are its raw ones, found verbatim, and a refine swaps them alone.
    #[test]
    fn refining_an_unread_row_swaps_its_facts_alone() {
        let paper = paper_mapping();
        let mapping = SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary). Q(note).").unwrap(),
            paper.target().clone(),
            paper.st_tgds().to_vec(),
            paper.egds().to_vec(),
        )
        .unwrap();
        let q = RelId(2);
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let mut b = batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(0, 10))]);
        b.insert(q, row([Value::str("x")]), iv(0, 10));
        b.insert(q, row([Value::str("x")]), iv(20, 30));
        b.insert(q, row([Value::str("y")]), iv(0, 10));
        s.apply(&b).unwrap();
        let target = s.target();
        let mut b = DeltaBatch::new();
        b.refine(q, row([Value::str("x")]), iv(2, 4));
        assert!(!s.apply(&b).unwrap().full_rechase);
        let notes: Vec<(Value, Interval)> =
            s.nsrc[2].iter().map(|f| (f.data[0], f.interval)).collect();
        assert_eq!(
            notes,
            vec![(Value::str("y"), iv(0, 10)), (Value::str("x"), iv(2, 4))]
        );
        assert_eq!(s.target(), target);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn conflicting_batch_fails_and_rolls_back() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(0, 10)),
                ("S", &["Ada", "18k"][..], iv(0, 10)),
            ],
        ))
        .unwrap();
        let before = s.target();
        let err = s
            .apply(&batch(&mapping, &[("S", &["Ada", "20k"][..], iv(5, 15))]))
            .unwrap_err();
        assert!(matches!(err, TdxError::ChaseFailure { .. }), "{err:?}");
        // Rolled back: the conflicting fact is gone and the session still
        // answers from the pre-batch fixpoint.
        assert!(!s.is_poisoned());
        assert_eq!(s.source_len(), 2);
        assert!(hom_equivalent(&semantics(&before), &semantics(&s.target())));
        // And it keeps accepting consistent batches.
        s.apply(&batch(&mapping, &[("E", &["Bob", "IBM"][..], iv(2, 8))]))
            .unwrap();
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn recoarsens_when_the_timeline_grows() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let mut recoarsened = 0;
        for k in 0..40u64 {
            let name = format!("p{k}");
            let b = batch(
                &mapping,
                &[("E", &[name.as_str(), "c"][..], iv(10 * k, 10 * k + 5))],
            );
            let stats = s.apply(&b).unwrap();
            recoarsened += usize::from(stats.recoarsened);
            assert!(stats.partitions >= 1);
        }
        assert!(recoarsened >= 2, "timeline growth must re-coarsen the cut");
        assert!(s.tp.len() > 1);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn narrowing_then_insert_does_not_reuse_stale_memos() {
        // Regression: the component re-chase of a narrowing refine must
        // drop the memo keys its target facts carry. A stale memo entry
        // `(Ada, IBM) @ [2012, 2018)` would claim the st1 head is already
        // covered and suppress the tgd step for the re-inserted interval —
        // the session would silently lose Ada's row.
        let mapping = paper_mapping();
        let e = mapping
            .source()
            .rel_id(tdx_logic::Symbol::intern("E"))
            .unwrap();
        for opts in [ChaseOptions::default(), ChaseOptions::distributed(2)] {
            let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
            s.apply(&batch(
                &mapping,
                &[
                    ("E", &["Ada", "IBM"][..], iv(2012, 2018)),
                    ("E", &["Bob", "IBM"][..], iv(2012, 2018)),
                ],
            ))
            .unwrap();
            // Narrow Ada's employment: her component's memo keys go.
            let mut b = DeltaBatch::new();
            b.refine(
                e,
                row([Value::str("Ada"), Value::str("IBM")]),
                iv(2012, 2014),
            );
            let stats = s.apply(&b).unwrap();
            assert!(!stats.full_rechase);
            let key = [Value::str("Ada"), Value::str("IBM")];
            assert!(!s.memos[0].covers(&key, iv(2015, 2018)), "key purged");
            assert!(
                s.memos[0].covers(&key, iv(2012, 2014)),
                "re-chase re-registered"
            );
            assert_matches_from_scratch(&s);
            // Re-insert over an interval the pre-narrowing memo covered:
            // the tgd step must fire again.
            s.apply(&batch(
                &mapping,
                &[("E", &["Ada", "IBM"][..], iv(2015, 2018))],
            ))
            .unwrap();
            let sem = semantics(&s.target());
            assert!(
                !sem.snapshot_at(2016).is_empty(),
                "stale memo suppressed the re-inserted fact"
            );
            assert_matches_from_scratch(&s);
        }
    }

    #[test]
    fn unbounded_boundary_facts_survive_recoarsening() {
        // Unbounded intervals cross every partition boundary after their
        // start; re-coarsening moves those boundaries. The session must
        // stay hom-equivalent to a from-scratch chase throughout, in both
        // local and distributed evaluation.
        let mapping = paper_mapping();
        for opts in [ChaseOptions::default(), ChaseOptions::distributed(3)] {
            let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
            let mut recoarsened = 0usize;
            for k in 0..24u64 {
                let name = format!("p{k}");
                let mut b = batch(
                    &mapping,
                    &[("E", &[name.as_str(), "c"][..], iv(10 * k, 10 * k + 5))],
                );
                if k % 3 == 0 {
                    // Every third person keeps an open-ended employment.
                    let rid = mapping
                        .source()
                        .rel_id(tdx_logic::Symbol::intern("E"))
                        .unwrap();
                    let open = Interval::from(10 * k + 5);
                    assert!(open.is_unbounded());
                    b.insert(rid, row([Value::str(&name), Value::str("c2")]), open);
                }
                let stats = s.apply(&b).unwrap();
                recoarsened += usize::from(stats.recoarsened);
            }
            assert!(recoarsened >= 1, "growth must re-coarsen at least once");
            assert!(s.tp.len() > 1);
            assert_matches_from_scratch(&s);
        }
    }

    #[test]
    fn distributed_session_matches_from_scratch_across_server_counts() {
        let mapping = paper_mapping();
        let batches = [
            batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(2012, 2014))]),
            batch(
                &mapping,
                &[
                    ("E", &["Ada", "Google"][..], Interval::from(2014)),
                    ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ],
            ),
            batch(
                &mapping,
                &[
                    ("E", &["Bob", "IBM"][..], iv(2013, 2018)),
                    ("S", &["Bob", "13k"][..], Interval::from(2015)),
                ],
            ),
        ];
        let mut targets = Vec::new();
        for servers in [1usize, 3] {
            let mut s = IncrementalExchange::with_options(
                mapping.clone(),
                ChaseOptions::distributed(servers),
            )
            .unwrap();
            for b in &batches {
                s.apply(b).unwrap();
                assert_matches_from_scratch(&s);
            }
            targets.push(s.target());
        }
        // Determinism across server counts carries over to the session.
        assert_eq!(targets[0], targets[1]);
    }

    #[test]
    fn distributed_session_rolls_back_conflicts() {
        let mapping = paper_mapping();
        let mut s =
            IncrementalExchange::with_options(mapping.clone(), ChaseOptions::distributed(2))
                .unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(0, 10)),
                ("S", &["Ada", "18k"][..], iv(0, 10)),
            ],
        ))
        .unwrap();
        let before = s.target();
        let err = s
            .apply(&batch(&mapping, &[("S", &["Ada", "20k"][..], iv(5, 15))]))
            .unwrap_err();
        assert!(matches!(err, TdxError::ChaseFailure { .. }), "{err:?}");
        assert!(!s.is_poisoned());
        assert!(hom_equivalent(&semantics(&before), &semantics(&s.target())));
        s.apply(&batch(&mapping, &[("E", &["Bob", "IBM"][..], iv(2, 8))]))
            .unwrap();
        assert_matches_from_scratch(&s);
    }

    /// Index maintenance matches a rebuilt index. The live session keeps
    /// its settled indexes up to date edit by edit; copies restored from
    /// `encode_state` and a clone, taken mid-stream, rebuild theirs
    /// lazily on their first absorb — the copy restored right before the
    /// narrowing refine runs its component search on a freshly built
    /// index. Through tail-local inserts, a widening refine, a narrowing
    /// refine (a component re-chase), a conflicting insert batch (a
    /// rebuild) and a conflicting narrowing refine (an undo), all copies
    /// must encode byte-identically after every batch, and the live one
    /// must agree with the abstract chase.
    #[test]
    fn maintained_indexes_match_rebuilt_ones() {
        use crate::chase::cluster::TransportKind;
        use tdx_workload::{employment_stream, BatchOrder, EmploymentConfig, StreamConfig};
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 12,
                horizon: 30,
                salary_coverage: 0.6,
                seed: 5,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 7,
                batch_fraction: 0.04,
                order: BatchOrder::TailLocal,
                seed: 5,
            },
        );
        let mapping = &stream.mapping;
        let rel = |name: &str| {
            mapping
                .source()
                .rel_id(tdx_logic::Symbol::intern(name))
                .unwrap()
        };
        let refine = |name: &str, vals: [&str; 2], interval: Interval| {
            let mut b = DeltaBatch::new();
            b.refine(rel(name), row(vals.map(Value::str)), interval);
            b
        };
        let inserts = |i: usize| DeltaBatch::from_instance(&stream.batches[i]);
        let steps = [
            inserts(0),
            batch(
                mapping,
                &[
                    ("E", &["zed", "acme"][..], iv(0, 10)),
                    ("S", &["zed", "1k"][..], iv(0, 10)),
                    ("E", &["amy", "acme"][..], iv(3, 6)),
                ],
            ),
            inserts(1),
            inserts(2),
            refine("E", ["amy", "acme"], iv(2, 12)),
            inserts(3),
            refine("E", ["zed", "acme"], iv(0, 6)),
            inserts(4),
            batch(mapping, &[("S", &["zed", "2k"][..], iv(2, 5))]),
            {
                let mut b = refine("S", ["zed", "1k"], iv(0, 4));
                b.insert(rel("S"), row(["zed", "3k"].map(Value::str)), iv(3, 5));
                b
            },
            inserts(5),
            inserts(6),
        ];
        // A restored copy and a clone mid-stream, and a restored copy
        // right before the narrowing refine.
        const SPLITS: [usize; 2] = [3, 6];
        for opts in [
            ChaseOptions::default(),
            ChaseOptions::distributed(1).on_transport(TransportKind::Channel),
        ] {
            let mut live =
                IncrementalExchange::with_options(mapping.clone(), opts.clone()).unwrap();
            live.apply(&DeltaBatch::from_instance(&stream.base))
                .unwrap();
            let mut copies: Vec<IncrementalExchange> = Vec::new();
            let mut outcomes = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                if SPLITS.contains(&i) {
                    let mut restored =
                        IncrementalExchange::with_options(mapping.clone(), opts.clone()).unwrap();
                    restored.restore_state(&live.encode_state()).unwrap();
                    copies.push(restored);
                    if i == SPLITS[0] {
                        copies.push(live.clone());
                    }
                }
                let applied = live.apply(step);
                outcomes.push((
                    applied.is_ok(),
                    applied.map(|b| b.full_rechase).unwrap_or(false),
                ));
                for copy in &mut copies {
                    assert_eq!(copy.apply(step).is_ok(), outcomes[i].0, "step {i}");
                    assert_eq!(copy.encode_state(), live.encode_state(), "step {i}");
                }
                assert_matches_from_scratch(&live);
            }
            // The stream really took every path: the narrowing refine
            // re-chased its component, both conflicting batches failed,
            // the rest applied, and nothing re-chased the whole state.
            assert_eq!(outcomes[6], (true, false));
            assert!(!outcomes[8].0 && !outcomes[9].0);
            assert_eq!(outcomes.iter().filter(|o| o.0).count(), steps.len() - 2);
            assert!(!outcomes[4].1, "the widening refine stays incremental");
            assert_eq!(live.stats().full_rechases, 1, "the insert rollback only");
        }
    }

    #[test]
    fn options_variants_stay_equivalent() {
        let mapping = paper_mapping();
        for opts in [
            ChaseOptions::paper_faithful(),
            ChaseOptions {
                naive_normalization: true,
                ..ChaseOptions::default()
            },
            ChaseOptions::partitioned_parallel(2),
        ] {
            let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
            s.apply(&batch(
                &mapping,
                &[
                    ("E", &["Ada", "IBM"][..], iv(2012, 2014)),
                    ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ],
            ))
            .unwrap();
            s.apply(&batch(
                &mapping,
                &[("E", &["Bob", "IBM"][..], iv(2013, 2018))],
            ))
            .unwrap();
            assert_matches_from_scratch(&s);
        }
    }
}
