//! The coordinator: the one place global chase state lives, for every
//! engine that farms match enumeration out.
//!
//! Two things live here:
//!
//! 1. **The coordinator kernel** — the restricted-chase check machinery
//!    ([`Check`], [`classify_check`], [`fire_order`], [`TgdFolder`]) and
//!    the union-find merge fold ([`fold_merge_ops`]).
//!    [`ChaseEngine::Distributed`] and the
//!    [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
//!    session (which also runs the local engines) fold their enumerated
//!    matches through these same routines; only *where the enumeration
//!    ran* differs.
//! 2. **[`DistributedCluster`]** — the coordinator-side handle to a set of
//!    partition servers behind any [`Transport`] backend: delta-only
//!    `ApplyDelta` shipping against per-server retained-prefix watermarks,
//!    a heartbeat, and a bounded retry path that respawns a dead server
//!    and replays its watermarked images. [`c_chase_distributed`] is the
//!    batch engine loop on top of it.
//!
//! # Delta-only shipping
//!
//! For each server and store the cluster caches the routed image it last
//! shipped (the concatenated pre + delta lists, per relation). The
//! invariant is **cache = the server's retained image**: an `ApplyDelta`
//! ships, per relation, a [`SyncOp`] program — runs of retained facts
//! kept in order, plus inserts of only the genuinely new facts — and the
//! server reconstructs exactly the full lists the PR 4 protocol used to
//! re-ship wholesale. The program is the greedy in-order diff
//! ([`diff_ops`]), which is *exact* for how the chase evolves its lists:
//! settling appends (one retained run + a suffix — the retained-prefix
//! watermark of the steady state), union-find rewrites and
//! re-fragmentation delete in place and append replacements (retained
//! runs around the deletions). Traffic is therefore proportional to what
//! changed; only re-coarsening or a rebuild (a fresh cluster) re-ships
//! everything.
//!
//! # Failure handling
//!
//! Any transport error (or undecodable response) marks the server dead —
//! including a **deadline miss**: every coordinator-side `send`/`recv`
//! runs under the per-frame deadline of
//! [`frame_deadline`](crate::chase::frame_deadline), so a hung fail-slow
//! server surfaces as a `TimedOut` transport fault exactly like a crashed
//! one. The retry path backs off exponentially (with deterministic
//! jitter), respawns the server through the cluster's
//! [`TransportSpawner`], replays the `Hello` handshake and both stores'
//! cached images as full re-ships — restoring the server to exactly its
//! pre-failure state — and re-sends the failed frame. Each slot tracks a
//! [`ServerHealth`] state machine: a failure demotes it to `Suspect`, and
//! [`CLEAN_ROUNDS_TO_FORGIVE`] consecutive clean rounds decay one respawn
//! off its budget again (so a long-lived session is not killed by
//! transient faults accumulated over hours). A server that exhausts
//! [`MAX_RESPAWNS`] *without* recovering is **quarantined**: its slot is
//! permanently replaced by an in-coordinator [`LocalTransport`] running
//! the identical deterministic [`ServerState`] kernel, so the chase
//! completes byte-identical — slower, but never failed — instead of
//! erroring out. [`DistributedCluster::heartbeat`] pings every server and
//! runs the same recovery, for callers that held a cluster idle (an
//! incremental session between batches). See `docs/robustness.md`.
//!
//! # Determinism
//!
//! Responses are tagged with their partition index and folded in ascending
//! partition order; a partition's enumeration depends on neither the
//! server hosting it nor the transport carrying the frames. The result is
//! byte-identical across `{channel, tcp} × any server count`
//! (`tests/equivalence.rs`).

use super::protocol::{
    config_digest, image_digest, FactLists, Hom, ImagePair, MergeOp, Message, RelationSync,
    Response, ServerConfig, StoreKind, SyncOp,
};
use super::server::ServerState;
use super::transport::{
    resolve_transport, spawner_for, Transport, TransportKind, TransportSpawner,
};
use crate::chase::concrete::{
    instantiate, AnnotatedUnionFind, CChaseResult, ChaseOptions, ChaseStats, UfKey,
};
use crate::chase::partitioned::{
    apply_cuts, base_align_cuts, image_cuts, pack_ref, refragment_lists, rewrite_values,
    sweep_specs, unpack_ref, CutMap,
};
use crate::chase::settled::{LazyIndex, Settled};
use crate::error::{Result, TdxError};
use crate::normalize::FactRef;
use std::sync::Arc;
use std::time::Duration;
use tdx_logic::{Atom, RelId, Schema, SchemaMapping, Term, Var};
use tdx_storage::codec::{decode, encode};
use tdx_storage::fxhash::{FxHashMap, FxHashSet};
use tdx_storage::{
    NullGen, Row, SearchOptions, TemporalFact, TemporalInstance, TemporalMode, Value,
};
use tdx_temporal::{Interval, TimelinePartition};

// ---------------------------------------------------------------------------
// The coordinator kernel

/// A restricted-check memo ([`Check::Memo`]): determined head values →
/// the intervals a head fact carrying them was inserted at. A
/// homomorphism at `iv` is witnessed when a recorded interval for its key
/// *covers* `iv`: the covering fact holds at every point of `iv`, and
/// neither normalization (fragments cover their original) nor egd
/// rewriting (nulls only become more specific; determined values are
/// source constants) ever takes that coverage away.
#[derive(Clone, Default)]
pub(crate) struct MemoTable {
    entries: FxHashMap<Vec<Value>, Vec<Interval>>,
}

impl MemoTable {
    /// Records that a head fact with determined values `key` holds over
    /// `iv`; whether the entry is new.
    pub(crate) fn insert(&mut self, key: Vec<Value>, iv: Interval) -> bool {
        let ivs = self.entries.entry(key).or_default();
        let new = !ivs.contains(&iv);
        if new {
            ivs.push(iv);
        }
        new
    }

    /// Forgets the entry `(key, iv)`.
    pub(crate) fn remove(&mut self, key: &[Value], iv: Interval) {
        if let Some(ivs) = self.entries.get_mut(key) {
            ivs.retain(|m| *m != iv);
            if ivs.is_empty() {
                self.entries.remove(key);
            }
        }
    }

    /// Forgets every entry under `key`, returning their intervals.
    pub(crate) fn take(&mut self, key: &[Value]) -> Option<Vec<Interval>> {
        self.entries.remove(key)
    }

    /// Whether a recorded interval for `key` covers `iv`.
    pub(crate) fn covers(&self, key: &[Value], iv: Interval) -> bool {
        self.entries
            .get(key)
            .is_some_and(|ivs| ivs.iter().any(|m| m.covers(&iv)))
    }

    /// Every `(key, interval)` entry, in hash order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Vec<Value>, Interval)> {
        self.entries
            .iter()
            .flat_map(|(k, ivs)| ivs.iter().map(move |iv| (k, *iv)))
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The restricted-chase check for one tgd, cheapest applicable tier first:
/// without existentials, "no extension into the target" is just "some head
/// fact is missing" — the insert's own dedup answers it (`Direct`). A
/// single-atom head with non-repeated existentials reduces to a hash memo
/// over the determined head positions, updated on every insert (`Memo`).
/// Anything else falls back to the matcher probe (`Probe`).
#[derive(Clone)]
pub(crate) enum Check {
    /// Insert-dedup answers the check.
    Direct,
    /// Hash memo over the determined columns of the single head atom.
    Memo {
        /// Head relation the memo watches.
        rel: RelId,
        /// Determined column positions (constants + universal variables).
        cols: Vec<usize>,
    },
    /// Full matcher probe against the target.
    Probe,
}

/// Classifies the restricted-chase check tier for a tgd head (see
/// [`Check`]). Shared by the distributed batch engine and the incremental
/// session — one classification, two call sites.
pub(crate) fn classify_check(head: &[Atom], existentials: &[Var], tgt: &Schema) -> Result<Check> {
    if existentials.is_empty() {
        return Ok(Check::Direct);
    }
    if head.len() == 1 {
        let atom = &head[0];
        let repeated = existentials.iter().any(|e| {
            atom.terms
                .iter()
                .filter(|t| matches!(t, Term::Var(v) if v == e))
                .count()
                > 1
        });
        if !repeated {
            return Ok(Check::Memo {
                rel: tgt.rel_id(atom.relation).ok_or_else(|| {
                    TdxError::Invalid(format!("unknown head relation {}", atom.relation))
                })?,
                cols: atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => !existentials.contains(v),
                    })
                    .map(|(i, _)| i)
                    .collect(),
            });
        }
    }
    Ok(Check::Probe)
}

/// The order a tgd round fires its tgds in: existential-free
/// ([`Check::Direct`]) tgds first, then the rest, each group in
/// declaration order. A `Direct` tgd inserts the same facts whenever it
/// fires, so running those first only adds witnesses for the later
/// restricted checks: the schedule never fires more steps or mints more
/// nulls than declaration order does. Any order is a valid restricted
/// chase, so Corollary 20 and Theorem 19(2) hold either way; the
/// indices stay declaration-order positions, so plans, memos and wire
/// rows keep their layout. Shared by the session and the distributed
/// batch engine, so every engine fires one schedule.
pub(crate) fn fire_order<'a>(checks: impl IntoIterator<Item = &'a Check>) -> Vec<usize> {
    let checks: Vec<&Check> = checks.into_iter().collect();
    let mut order: Vec<usize> = (0..checks.len()).collect();
    // A stable sort: `false` (Direct) before `true`, ties in index order.
    order.sort_by_key(|&i| !matches!(checks[i], Check::Direct));
    order
}

/// Calls `f` with the index of each memo watching `rel` and the key it
/// gives a fact holding `data` (its determined columns).
pub(crate) fn for_each_memo_key<'a>(
    checks: impl Iterator<Item = &'a Check>,
    rel: RelId,
    data: &[Value],
    mut f: impl FnMut(usize, Vec<Value>),
) {
    for (mi, check) in checks.enumerate() {
        if let Check::Memo { rel: mrel, cols } = check {
            if *mrel == rel {
                f(mi, cols.iter().map(|&c| data[c]).collect());
            }
        }
    }
}

/// Registers an inserted target fact with every memo watching its relation.
pub(crate) fn register_memo<'a>(
    memos: &mut [MemoTable],
    checks: impl Iterator<Item = &'a Check>,
    rel: RelId,
    data: &[Value],
    iv: Interval,
) {
    for_each_memo_key(checks, rel, data, |mi, key| {
        memos[mi].insert(key, iv);
    });
}

/// The memo probe key of one enumerated homomorphism: the determined head
/// values at `cols`, in column order. Homomorphisms arrive off the wire
/// from partition servers, so a missing binding is a malformed response —
/// a typed error through the transport-fault lane, never a panic.
pub(crate) fn memo_probe_key(
    cols: &[usize],
    atom: &Atom,
    h: &[(Var, Value)],
) -> Result<Vec<Value>> {
    cols.iter()
        .map(|&c| match &atom.terms[c] {
            Term::Const(cst) => Ok(Value::Const(*cst)),
            Term::Var(v) => h
                .iter()
                .find(|(w, _)| w == v)
                .map(|(_, val)| *val)
                .ok_or_else(|| {
                    TdxError::Invalid(format!(
                        "enumerated homomorphism leaves universal head variable {v:?} unbound"
                    ))
                }),
        })
        .collect()
}

/// Resolves a validated tgd head atom's target relation. Mapping
/// validation guarantees the lookup succeeds; if it ever does not (a
/// coordinator bug or a mapping mutated mid-chase), the chase fails with
/// a typed error rather than panicking mid-fold.
fn target_rel(mapping: &SchemaMapping, atom: &Atom) -> Result<RelId> {
    mapping.target().rel_id(atom.relation).ok_or_else(|| {
        TdxError::Invalid(format!(
            "tgd head relation {:?} is missing from the target schema",
            atom.relation
        ))
    })
}

/// Folds enumerated egd merge operations into a round's union-find. A
/// constant/constant clash fails the chase with the owning egd's name —
/// identical failure rendering for every engine. Returns the number of
/// effective identifications.
pub(crate) fn fold_merge_ops(
    ops: impl IntoIterator<Item = (usize, Value, Value, Interval)>,
    uf: &mut AnnotatedUnionFind,
    egd_name: impl Fn(usize) -> String,
) -> Result<usize> {
    let mut merges = 0usize;
    for (ei, a, b, iv) in ops {
        let key = |v: Value| match v {
            Value::Const(c) => UfKey::Const(c),
            Value::Null(n) => UfKey::Null(n, iv),
        };
        match uf.union(key(a), key(b)) {
            Ok(()) => merges += 1,
            Err((c1, c2)) => {
                let render = |k: UfKey| match k {
                    UfKey::Const(c) => c.to_string(),
                    UfKey::Null(n, _) => n.to_string(),
                };
                return Err(TdxError::ChaseFailure {
                    dependency: egd_name(ei),
                    left: render(c1),
                    right: render(c2),
                    interval: Some(iv),
                });
            }
        }
    }
    Ok(merges)
}

/// The coordinator-side tgd step folder: takes enumerated homomorphisms
/// (from worker tasks or partition servers — anywhere), applies the
/// restricted-chase check and inserts head facts with fresh annotated
/// nulls. One instance per chase of the distributed batch engine.
pub(crate) struct TgdFolder<'a> {
    mapping: &'a SchemaMapping,
    checks: Vec<(Check, Vec<Var>)>,
    memos: Vec<MemoTable>,
    pub(crate) nulls: NullGen,
}

impl<'a> TgdFolder<'a> {
    /// A folder for `mapping`'s s-t tgds (one check + memo per tgd).
    pub(crate) fn new(mapping: &'a SchemaMapping) -> Result<TgdFolder<'a>> {
        let checks = mapping
            .st_tgds()
            .iter()
            .map(|tgd| {
                let ex = tgd.existential_vars();
                classify_check(&tgd.head, &ex, mapping.target()).map(|c| (c, ex))
            })
            .collect::<Result<Vec<_>>>()?;
        let memos = checks.iter().map(|_| Default::default()).collect();
        Ok(TgdFolder {
            mapping,
            checks,
            memos,
            nulls: NullGen::new(),
        })
    }

    /// Folds tgd `ti`'s homomorphisms into `target`; returns the number of
    /// steps fired.
    pub(crate) fn fold(
        &mut self,
        ti: usize,
        homs: impl IntoIterator<Item = Hom>,
        target: &mut TemporalInstance,
        sopts: SearchOptions,
    ) -> Result<usize> {
        let tgd = &self.mapping.st_tgds()[ti];
        let mut fired_total = 0usize;
        for (h, iv) in homs {
            let (check, existentials) = &self.checks[ti];
            match check {
                Check::Direct => {
                    let mut fired = false;
                    for atom in &tgd.head {
                        let rel = target_rel(self.mapping, atom)?;
                        let row: Row = instantiate(atom, &h).into();
                        if target.insert(rel, Arc::clone(&row), iv) {
                            register_memo(
                                &mut self.memos,
                                self.checks.iter().map(|(c, _)| c),
                                rel,
                                &row,
                                iv,
                            );
                            fired = true;
                        }
                    }
                    if fired {
                        fired_total += 1;
                    }
                    continue;
                }
                Check::Memo { rel: _, cols } => {
                    let key = memo_probe_key(cols, &tgd.head[0], &h)?;
                    if self.memos[ti].covers(&key, iv) {
                        continue;
                    }
                }
                Check::Probe => {
                    if target.exists_match_with(
                        &tgd.head,
                        TemporalMode::Shared,
                        &h,
                        Some(iv),
                        sopts,
                    )? {
                        continue;
                    }
                }
            }
            let mut env = h;
            for v in existentials {
                env.push((*v, Value::Null(self.nulls.fresh())));
            }
            for atom in &tgd.head {
                let rel = target_rel(self.mapping, atom)?;
                let row: Row = instantiate(atom, &env).into();
                if target.insert(rel, Arc::clone(&row), iv) {
                    register_memo(
                        &mut self.memos,
                        self.checks.iter().map(|(c, _)| c),
                        rel,
                        &row,
                        iv,
                    );
                }
            }
            fired_total += 1;
        }
        Ok(fired_total)
    }
}

// ---------------------------------------------------------------------------
// The cluster

/// Respawn budget per server. Three strikes covers a flaky-but-recovering
/// carrier; a server that burns through the whole budget without a clean
/// round in between is quarantined into coordinator-local execution
/// (see [`ServerHealth::Quarantined`]). Unlike the pre-PR 8 budget this
/// is no longer a lifetime count: [`CLEAN_ROUNDS_TO_FORGIVE`] clean
/// rounds decay one respawn back off, so only *concentrated* failures
/// exhaust it.
pub(crate) const MAX_RESPAWNS: u32 = 3;

/// Consecutive fully-clean broadcast rounds after which one respawn is
/// forgiven (decayed off a slot's budget). Long enough that a genuinely
/// flapping server still hits quarantine, short enough that a long-lived
/// durable session shrugs off transient faults spread over hours.
pub(crate) const CLEAN_ROUNDS_TO_FORGIVE: u32 = 8;

/// The health state machine of one server slot.
///
/// `Healthy → Suspect` on any transport fault; `Suspect → Healthy` when
/// clean rounds have decayed the respawn budget back to zero;
/// `Suspect → Quarantined` (terminal for the cluster's lifetime) when the
/// budget is exhausted — the slot's owned blocks then run
/// coordinator-locally on the shared [`ServerState`] kernel, preserving
/// byte-identical results at reduced parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerHealth {
    /// No outstanding strikes.
    Healthy,
    /// Failed recently; strikes outstanding, still served remotely.
    Suspect,
    /// Budget exhausted; degraded to coordinator-local execution.
    Quarantined,
}

/// Cumulative wire-traffic counters of one [`DistributedCluster`] — the
/// observable for shipping-discipline tests and the bench notes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Protocol frames sent coordinator → servers.
    pub frames_sent: u64,
    /// Total bytes of those frames.
    pub bytes_sent: u64,
    /// Bytes of sync-carrying frames (`ApplyDelta` and the fused rounds —
    /// the traffic the delta-only watermark scheme bounds).
    pub apply_delta_bytes: u64,
    /// Facts actually shipped inside sync programs (appends + delta
    /// blocks; retained-prefix facts count 0).
    pub apply_delta_facts: u64,
    /// Full-barrier round trips: broadcasts where every server was sent a
    /// frame and awaited. The latency currency of the protocol — the
    /// fused v2 rounds exist to shrink this number.
    pub round_trips: u64,
    /// Dead-server respawns performed by the retry path.
    pub respawns: u64,
    /// Servers degraded to coordinator-local execution after exhausting
    /// their respawn budget (see [`ServerHealth::Quarantined`]).
    pub quarantines: u64,
}

/// Per server, per relation: the global gid of each routed fact — the
/// route maps that translate server-local image pairs back.
type RouteMaps = Vec<Vec<Vec<u32>>>;

/// Discovered overlap-image pair groups, in global fact refs.
type PairImages = Vec<Vec<FactRef>>;

/// One routed image set (see [`DistributedCluster::route_lists`]).
struct Routed {
    /// Per server: the concatenated pre + delta lists per relation.
    images: Vec<FactLists>,
    /// Per server: the pre/delta boundary per relation.
    splits: Vec<Vec<u64>>,
    /// The route maps for this routing.
    gids: RouteMaps,
    /// Per server, per relation: fresh flags of the routed delta facts
    /// (empty unless requested).
    fresh: Vec<Vec<Vec<bool>>>,
}

/// Accumulates server-local image pairs, translated through the route maps
/// to global gids and deduplicated across servers — every boundary pair is
/// reported by each server holding both replicas, but an overlapping pair's
/// intersection always lands in a partition both facts are shipped to, so
/// the deduplicated union over the servers is exactly the global pair set
/// of coordinator-local [`discover_images`]
/// (crate::chase::partitioned::discover_images).
struct ImageUnion {
    nrels: usize,
    seen: FxHashSet<(u64, u64)>,
    pairs: Vec<Vec<FactRef>>,
}

impl ImageUnion {
    fn new(nrels: usize) -> Self {
        ImageUnion {
            nrels,
            seen: Default::default(),
            pairs: Vec::new(),
        }
    }

    /// Folds one server's pairs in; `gids` is that server's route map.
    fn absorb(&mut self, s: usize, pairs: Vec<ImagePair>, gids: &[Vec<u32>]) -> Result<()> {
        let translate = |r: u32, local: u32| -> Result<FactRef> {
            let map = gids.get(r as usize).ok_or_else(|| {
                transport_err(s, format!("image pair names unknown relation {r}"))
            })?;
            let gid = map
                .get(local as usize)
                .ok_or_else(|| transport_err(s, format!("image pair gid {local} out of range")))?;
            Ok((RelId(r), *gid))
        };
        debug_assert!(gids.len() == self.nrels);
        for (ra, la, rb, lb) in pairs {
            let (ka, kb) = (pack_ref(translate(ra, la)?), pack_ref(translate(rb, lb)?));
            let key = if ka <= kb { (ka, kb) } else { (kb, ka) };
            if self.seen.insert(key) {
                self.pairs.push(vec![unpack_ref(key.0), unpack_ref(key.1)]);
            }
        }
        Ok(())
    }
}

/// Sorts per-partition wire homs into ascending partition order and
/// re-interns them per tgd — shared by the unfused and fused tgd rounds so
/// both fold byte-identically.
fn fold_wire_homs(
    mut grouped: Vec<super::protocol::PartitionHoms>,
    tgd_count: usize,
) -> Result<Vec<Vec<Hom>>> {
    grouped.sort_by_key(|(p, _)| *p);
    let mut out: Vec<Vec<Hom>> = vec![Vec::new(); tgd_count];
    for (_, per_tgd) in grouped {
        for (ti, homs) in per_tgd.into_iter().enumerate() {
            if ti >= tgd_count {
                return Err(TdxError::Invalid("server returned extra tgd rows".into()));
            }
            out[ti].extend(homs.into_iter().map(|(bind, iv)| {
                (
                    bind.into_iter()
                        .map(|(name, val)| (Var::new(&name), val))
                        .collect::<Vec<_>>(),
                    iv,
                )
            }));
        }
    }
    Ok(out)
}

struct ServerSlot {
    transport: Box<dyn Transport>,
    /// The encoded `Hello` handshake, replayed on respawn.
    hello: Vec<u8>,
    /// Per store: the routed image last acknowledged (concatenated
    /// pre + delta lists and the per-relation split) — the coordinator's
    /// copy of the server's retained image, and the base of the next
    /// watermark diff.
    shipped: [Option<(FactLists, Vec<u64>)>; 2],
    /// Outstanding strikes: decayed by clean rounds, never past zero.
    respawns: u32,
    health: ServerHealth,
    /// Consecutive clean broadcast rounds since the last fault.
    clean_rounds: u32,
}

impl ServerSlot {
    fn new(transport: Box<dyn Transport>, hello: Vec<u8>) -> ServerSlot {
        ServerSlot {
            transport,
            hello,
            shipped: [None, None],
            respawns: 0,
            health: ServerHealth::Healthy,
            clean_rounds: 0,
        }
    }
}

/// Placeholder carrier for a server whose spawn failed outright. Every
/// operation reports the spawn failure, so cluster construction succeeds
/// and the slot enters the ordinary retry path — respawn with backoff,
/// then quarantine — at its first frame, instead of failing the whole
/// chase before the healthy servers even start.
struct DownTransport;

fn down_err() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "partition server never spawned",
    )
}

impl Transport for DownTransport {
    fn send(&mut self, _frame: &[u8]) -> std::io::Result<()> {
        Err(down_err())
    }

    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        Err(down_err())
    }

    fn shutdown(&mut self) {}
}

/// The graceful-degradation carrier of a quarantined slot: the same
/// request/response protocol, executed coordinator-locally against the
/// identical deterministic [`ServerState`] kernel a remote server runs.
/// `send` decodes and handles the frame immediately, `recv` yields the
/// buffered response. Infallible for well-formed protocol traffic — so a
/// quarantined slot never re-enters the retry path — and byte-identical
/// to a remote server because the kernel is the same code either way.
struct LocalTransport {
    state: ServerState,
    pending: Option<Vec<u8>>,
}

impl LocalTransport {
    fn new() -> LocalTransport {
        LocalTransport {
            state: ServerState::new(),
            pending: None,
        }
    }
}

impl Transport for LocalTransport {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let msg = decode::<Message>(frame).map_err(|e| invalid(e.to_string()))?;
        let resp = self.state.handle(msg).map_err(invalid)?;
        self.pending = Some(encode(&resp));
        Ok(())
    }

    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        self.pending.take().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "local slot has no response pending",
            )
        })
    }

    fn shutdown(&mut self) {}
}

/// A coordinator-side handle to a set of partition servers behind a
/// [`Transport`] backend. Owns the server peers; dropping the cluster
/// sends `Shutdown` and joins/reaps them.
pub struct DistributedCluster {
    slots: Vec<ServerSlot>,
    tp: TimelinePartition,
    src_rels: usize,
    tgt_rels: usize,
    servers: usize,
    spawner: Arc<dyn TransportSpawner>,
    traffic: TrafficStats,
    /// Resolved per-frame deadline, applied to every transport at spawn
    /// and respawn (`None` = unbounded).
    deadline: Option<Duration>,
}

fn transport_err(s: usize, e: impl std::fmt::Display) -> TdxError {
    TdxError::Invalid(format!("partition server {s}: {e}"))
}

/// Spawns server `s`'s transport and applies the cluster deadline; either
/// failure yields a [`DownTransport`] placeholder instead of an error, so
/// cluster construction never fails on one bad slot — the retry path
/// picks the placeholder up at its first frame.
fn spawn_transport(
    spawner: &dyn TransportSpawner,
    s: usize,
    deadline: Option<Duration>,
) -> Box<dyn Transport> {
    match spawner.spawn(s) {
        Ok(mut t) => {
            if t.set_deadline(deadline).is_ok() {
                t
            } else {
                t.shutdown();
                Box::new(DownTransport)
            }
        }
        Err(_) => Box::new(DownTransport),
    }
}

/// Deterministic backoff before respawn attempt `attempt` (1-based) of
/// server `s`: exponential in the attempt, capped, plus a jitter derived
/// from `(s, attempt)` by a splitmix64 step — reproducible across runs
/// (no wall-clock or RNG state), yet de-synchronized across servers so a
/// correlated fault does not hammer the spawner in lockstep.
fn respawn_backoff(s: usize, attempt: u32) -> Duration {
    let base = (5u64 << (attempt.saturating_sub(1)).min(6)).min(200);
    let mut z = (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Duration::from_millis(base + (z >> 59)) // jitter in 0..32 ms
}

/// Whether `e` came out of the cluster's transport/retry path (a dead or
/// unreachable partition server, or an exhausted respawn budget) rather
/// than a chase failure. The incremental session uses this to replace a
/// cluster that died while it idled with a fresh spawn — one full re-ship
/// — instead of failing the batch.
pub(crate) fn is_transport_error(e: &TdxError) -> bool {
    matches!(e, TdxError::Invalid(msg) if msg.starts_with("partition server"))
}

impl DistributedCluster {
    /// Spawns `servers` partition servers over `tp` on the transport
    /// resolved from the environment (`TDX_CHASE_TRANSPORT`, default
    /// channel), distributing its ranges as contiguous balanced blocks
    /// ([`TimelinePartition::server_of`]). Dependency bodies and schemas
    /// ship as the `Hello` handshake.
    pub fn spawn(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        sopts: SearchOptions,
    ) -> Result<DistributedCluster> {
        Self::spawn_with(
            mapping,
            tp,
            servers,
            sopts,
            spawner_for(resolve_transport(None)),
        )
    }

    /// [`DistributedCluster::spawn`] on an explicit transport backend.
    pub fn spawn_on(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        sopts: SearchOptions,
        transport: TransportKind,
    ) -> Result<DistributedCluster> {
        Self::spawn_with(mapping, tp, servers, sopts, spawner_for(transport))
    }

    /// [`DistributedCluster::spawn`] through an arbitrary spawner — the
    /// injection point for fault-injection tests and custom carriers.
    pub fn spawn_with(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        sopts: SearchOptions,
        spawner: Arc<dyn TransportSpawner>,
    ) -> Result<DistributedCluster> {
        Self::spawn_with_deadline(mapping, tp, servers, sopts, spawner, None)
    }

    /// [`DistributedCluster::spawn_with`] with an explicit per-frame
    /// deadline request (resolved through
    /// [`frame_deadline`](crate::chase::frame_deadline) — `None` consults
    /// `TDX_CHASE_DEADLINE_MS`, `Some(ZERO)` disables deadlines). A spawn
    /// failure no longer fails the cluster: the slot starts on a
    /// [`DownTransport`] placeholder and goes through the retry path — and
    /// eventually quarantine — at the `Hello` handshake.
    pub fn spawn_with_deadline(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        sopts: SearchOptions,
        spawner: Arc<dyn TransportSpawner>,
        deadline: Option<Duration>,
    ) -> Result<DistributedCluster> {
        let deadline = crate::chase::frame_deadline(deadline);
        let servers = servers.max(1);
        let mut slots = Vec::with_capacity(servers);
        for s in 0..servers {
            let cfg = ServerConfig::for_server(mapping, tp, s, servers, sopts);
            let transport = spawn_transport(&*spawner, s, deadline);
            slots.push(ServerSlot::new(transport, encode(&Message::Hello(cfg))));
        }
        let mut cluster = DistributedCluster {
            slots,
            tp: tp.clone(),
            src_rels: mapping.source().len(),
            tgt_rels: mapping.target().len(),
            servers,
            spawner,
            traffic: TrafficStats::default(),
            deadline,
        };
        // Handshake every server (pipelined like any broadcast round).
        let hellos: Vec<Vec<u8>> = cluster.slots.iter().map(|s| s.hello.clone()).collect();
        for (s, resp) in cluster.broadcast(hellos)?.into_iter().enumerate() {
            if resp != Response::Ready {
                return Err(transport_err(
                    s,
                    format!("unexpected Hello response {resp:?}"),
                ));
            }
        }
        Ok(cluster)
    }

    /// [`DistributedCluster::spawn_with`] for a *recovering* coordinator:
    /// instead of handshaking blank servers, probe each one with the v3
    /// `Resume` frame and **adopt** it — configuration, retained images
    /// and all — when its watermark digests match what this coordinator
    /// expects it to hold: the recovered settled lists (`expected`, source
    /// then target store) routed to that server. An adopted server skips
    /// both the `Hello` and the full image re-ship; any mismatch (blank
    /// server, mid-batch crash leaving mid-round lists, different
    /// configuration) falls back to the ordinary `Hello` handshake, which
    /// resets the server. Returns the cluster and how many servers were
    /// adopted.
    ///
    /// Digests cover *facts*, not pre/delta splits: a surviving server's
    /// split still marks the last round's delta boundary while the
    /// recovered coordinator treats everything as settled. Routing is
    /// per-fact and order-preserving, so `routed(pre ++ delta) =
    /// routed(pre) ++ routed(delta)` per relation — the fact lists agree
    /// even though the boundaries do not, and the next `ApplyDelta` ships
    /// fresh boundaries anyway.
    pub fn resume_with(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        sopts: SearchOptions,
        spawner: Arc<dyn TransportSpawner>,
        deadline: Option<Duration>,
        expected: [&FactLists; 2],
    ) -> Result<(DistributedCluster, usize)> {
        let deadline = crate::chase::frame_deadline(deadline);
        let servers = servers.max(1);
        let mut slots = Vec::with_capacity(servers);
        let mut cfg_digests = Vec::with_capacity(servers);
        for s in 0..servers {
            let cfg = ServerConfig::for_server(mapping, tp, s, servers, sopts);
            let transport = spawn_transport(&*spawner, s, deadline);
            cfg_digests.push(config_digest(&cfg));
            slots.push(ServerSlot::new(transport, encode(&Message::Hello(cfg))));
        }
        let mut cluster = DistributedCluster {
            slots,
            tp: tp.clone(),
            src_rels: mapping.source().len(),
            tgt_rels: mapping.target().len(),
            servers,
            spawner,
            traffic: TrafficStats::default(),
            deadline,
        };
        // What each surviving server *should* retain: the settled lists
        // routed as all-pre (the delta boundary difference is immaterial —
        // see above).
        let routed = [
            cluster.route_lists(
                cluster.src_rels,
                expected[0],
                &vec![Vec::new(); cluster.src_rels],
                None,
            ),
            cluster.route_lists(
                cluster.tgt_rels,
                expected[1],
                &vec![Vec::new(); cluster.tgt_rels],
                None,
            ),
        ];
        // A server that dies during this probe goes through the ordinary
        // retry path: its respawn replays `Hello` (shipped caches are still
        // empty), the re-sent `Resume` reports unconfigured, and the
        // fallback below re-`Hello`s — harmlessly redundant.
        let mut resumed = 0;
        for (s, resp) in cluster
            .broadcast_same(&Message::Resume)?
            .into_iter()
            .enumerate()
        {
            let adopt = match resp {
                Response::ResumeState {
                    configured,
                    config,
                    images,
                } => {
                    configured
                        && config == cfg_digests[s]
                        && images[0] == image_digest(&routed[0].images[s])
                        && images[1] == image_digest(&routed[1].images[s])
                }
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected Resume response {other:?}"),
                    ))
                }
            };
            if adopt {
                resumed += 1;
                for (k, r) in routed.iter().enumerate() {
                    cluster.slots[s].shipped[k] = Some((r.images[s].clone(), r.splits[s].clone()));
                }
            } else {
                // The reset rides the full retry path: a server that dies
                // on its fallback `Hello` is respawned and re-reset, not
                // surfaced as a failed recovery.
                let hello = cluster.slots[s].hello.clone();
                match cluster.request_retried(s, &hello)? {
                    Response::Ready => {}
                    other => {
                        return Err(transport_err(
                            s,
                            format!("unexpected Hello response {other:?}"),
                        ))
                    }
                }
            }
        }
        Ok((cluster, resumed))
    }

    /// Abandons the cluster the way a coordinator crash would: every
    /// carrier is severed — closed with **no** protocol `Shutdown`, no
    /// child reaping, no thread joins — so listen-mode servers keep their
    /// retained images for a successor's [`Resume`](Message::Resume)
    /// handshake. Crash-simulation support for durable sessions.
    pub fn sever(mut self) {
        let mut slots = std::mem::take(&mut self.slots);
        for slot in &mut slots {
            slot.transport.sever();
        }
        // `self` drops with no slots, so its Drop sends nothing; dropping
        // the severed slots is carrier cleanup only (peers already
        // detached).
    }

    /// The timeline partition the cluster was spawned over.
    pub fn partition(&self) -> &TimelinePartition {
        &self.tp
    }

    /// Number of partition servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The transport backend the cluster runs on.
    pub fn transport(&self) -> TransportKind {
        self.spawner.kind()
    }

    /// Cumulative wire-traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// The health state of server slot `s` (see [`ServerHealth`]).
    pub fn health(&self, s: usize) -> ServerHealth {
        self.slots[s].health
    }

    /// How many slots are currently quarantined (degraded to
    /// coordinator-local execution).
    pub fn quarantined(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.health == ServerHealth::Quarantined)
            .count()
    }

    fn send_counted(&mut self, s: usize, frame: &[u8]) -> std::io::Result<()> {
        self.slots[s].transport.send(frame)?;
        self.traffic.frames_sent += 1;
        self.traffic.bytes_sent += frame.len() as u64;
        Ok(())
    }

    fn recv_decoded(&mut self, s: usize) -> std::io::Result<Response> {
        let bytes = self.slots[s].transport.recv()?;
        decode::<Response>(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One request/response exchange with no recovery — the building block
    /// `respawn` itself uses.
    fn request_direct(&mut self, s: usize, frame: &[u8]) -> Result<Response> {
        self.send_counted(s, frame)
            .map_err(|e| transport_err(s, e))?;
        self.recv_decoded(s).map_err(|e| transport_err(s, e))
    }

    /// [`request_direct`](Self::request_direct) with the broadcast retry
    /// path behind it: a failed exchange respawns the slot and re-sends
    /// the same frame until it answers, or until quarantine makes the
    /// error terminal.
    fn request_retried(&mut self, s: usize, frame: &[u8]) -> Result<Response> {
        match self.request_direct(s, frame) {
            Ok(resp) => Ok(resp),
            Err(_) => loop {
                self.respawn(s)?;
                match self.request_direct(s, frame) {
                    Ok(resp) => break Ok(resp),
                    Err(e) if self.slots[s].health == ServerHealth::Quarantined => break Err(e),
                    Err(_) => continue,
                }
            },
        }
    }

    /// The retry path: back off, tear the dead server down, spawn a
    /// replacement, replay the `Hello` handshake and both stores' cached
    /// images as full re-ships. On return the server holds exactly the
    /// state it held before it died, so the caller can re-send its
    /// in-flight frame verbatim. A slot that exhausts [`MAX_RESPAWNS`]
    /// consecutive strikes is **quarantined** instead of failing the
    /// chase: its carrier becomes a [`LocalTransport`] running the same
    /// deterministic kernel coordinator-locally, replayed into the same
    /// pre-failure state.
    fn respawn(&mut self, s: usize) -> Result<()> {
        loop {
            self.slots[s].respawns += 1;
            self.traffic.respawns += 1;
            self.slots[s].clean_rounds = 0;
            if self.slots[s].health == ServerHealth::Healthy {
                self.slots[s].health = ServerHealth::Suspect;
            }
            let attempt = self.slots[s].respawns;
            if attempt > MAX_RESPAWNS {
                self.traffic.quarantines += 1;
                self.slots[s].health = ServerHealth::Quarantined;
                self.slots[s].transport.shutdown();
                self.slots[s].transport = Box::new(LocalTransport::new());
                // The local kernel is infallible for the well-formed
                // protocol replay below, so this return is the terminal
                // state of the loop.
                return self.replay_state(s);
            }
            std::thread::sleep(respawn_backoff(s, attempt));
            self.slots[s].transport.shutdown();
            self.slots[s].transport = match self.spawner.spawn(s) {
                Ok(t) => t,
                Err(_) => continue, // another strike, toward quarantine
            };
            if self.slots[s].transport.set_deadline(self.deadline).is_err() {
                continue;
            }
            if self.replay_state(s).is_ok() {
                return Ok(());
            }
        }
    }

    /// Replays slot `s`'s `Hello` handshake and both stores' cached
    /// images as full `Insert` re-ships — the respawn/quarantine tail
    /// that restores a blank peer to its pre-failure state.
    fn replay_state(&mut self, s: usize) -> Result<()> {
        let hello = self.slots[s].hello.clone();
        match self.request_direct(s, &hello)? {
            Response::Ready => {}
            other => {
                return Err(transport_err(
                    s,
                    format!("unexpected Hello response after respawn: {other:?}"),
                ))
            }
        }
        for store in StoreKind::BOTH {
            let Some((image, splits)) = self.slots[s].shipped[store.idx()].clone() else {
                continue;
            };
            let facts: usize = image.iter().map(|l| l.len()).sum();
            let sync: Vec<RelationSync> = image
                .into_iter()
                .zip(&splits)
                .map(|(list, &split)| RelationSync {
                    ops: if list.is_empty() {
                        Vec::new()
                    } else {
                        vec![SyncOp::Insert(list)]
                    },
                    split,
                })
                .collect();
            let frame = encode(&Message::ApplyDelta { store, sync });
            self.traffic.apply_delta_bytes += frame.len() as u64;
            self.traffic.apply_delta_facts += facts as u64;
            match self.request_direct(s, &frame)? {
                Response::Applied => {}
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected replay response: {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Round-level health accounting: a slot that got through a whole
    /// broadcast without a fault earns a clean round, and every
    /// [`CLEAN_ROUNDS_TO_FORGIVE`] of those decays one respawn off its
    /// outstanding budget — back to `Healthy` once the budget is clear.
    /// Quarantine is terminal: a local slot stays quarantined (and its
    /// "rounds" are local calls, not evidence about the dead peer).
    fn note_clean_round(&mut self, s: usize) {
        let slot = &mut self.slots[s];
        if slot.health == ServerHealth::Quarantined || slot.respawns == 0 {
            return;
        }
        slot.clean_rounds += 1;
        if slot.clean_rounds >= CLEAN_ROUNDS_TO_FORGIVE {
            slot.clean_rounds = 0;
            slot.respawns -= 1;
            if slot.respawns == 0 {
                slot.health = ServerHealth::Healthy;
            }
        }
    }

    /// Sends one frame per server (frame `s` to server `s`), collects one
    /// response per server in server order. All frames go out before any
    /// response is awaited, so servers work concurrently; a server that
    /// fails at either step goes through the retry path and answers the
    /// same frame on its replacement.
    fn broadcast(&mut self, frames: Vec<Vec<u8>>) -> Result<Vec<Response>> {
        debug_assert_eq!(frames.len(), self.slots.len());
        let n = self.slots.len();
        self.traffic.round_trips += 1;
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let mut failed = vec![false; n];
        for (s, frame) in frames.iter().enumerate() {
            if self.send_counted(s, frame).is_err() {
                failed[s] = true;
            }
        }
        for (s, slot_out) in out.iter_mut().enumerate() {
            if failed[s] {
                continue;
            }
            match self.recv_decoded(s) {
                Ok(resp) => *slot_out = Some(resp),
                Err(_) => failed[s] = true,
            }
        }
        for s in 0..n {
            if !failed[s] {
                self.note_clean_round(s);
                continue;
            }
            // Keep retrying until the slot answers: each failed attempt
            // burns a strike, so the loop converges — at the latest onto
            // the quarantined local kernel, which fails only on a
            // malformed frame (a coordinator bug worth surfacing, not
            // retrying).
            out[s] = loop {
                self.respawn(s)?;
                match self.request_direct(s, &frames[s]) {
                    Ok(resp) => break Some(resp),
                    Err(e) if self.slots[s].health == ServerHealth::Quarantined => return Err(e),
                    Err(_) => continue,
                }
            };
        }
        // Every slot either answered above or looped through the retry
        // path until it did; an empty slot here is a coordinator bug, and
        // it surfaces as a typed error, not a panic mid-broadcast.
        out.into_iter()
            .enumerate()
            .map(|(s, r)| {
                r.ok_or_else(|| transport_err(s, "server answered no frame after recovery"))
            })
            .collect()
    }

    /// Broadcasts one identical frame to every server.
    fn broadcast_same(&mut self, msg: &Message) -> Result<Vec<Response>> {
        let frame = encode(msg);
        let frames: Vec<Vec<u8>> = (0..self.slots.len()).map(|_| frame.clone()).collect();
        self.broadcast(frames)
    }

    /// Pings every server, recovering dead ones through the retry path.
    /// Callers that held an idle cluster (an incremental session between
    /// batches) run this before trusting it with a round.
    pub fn heartbeat(&mut self) -> Result<()> {
        for (s, resp) in self.broadcast_same(&Message::Ping)?.into_iter().enumerate() {
            if resp != Response::Pong {
                return Err(transport_err(
                    s,
                    format!("unexpected Ping response {resp:?}"),
                ));
            }
        }
        Ok(())
    }

    /// Routes `pre ++ delta` into per-server images: per relation the
    /// concatenated pre + delta facts overlapping each server's owned
    /// ranges (owner + boundary replicas), the boundary between the two
    /// blocks, the *global* gid of every routed fact (its index in the
    /// coordinator's own `pre ++ delta` list — the route map that
    /// translates server-local image pairs back), and, when `fresh` is
    /// given, the routed delta facts' fresh flags.
    fn route_lists(
        &self,
        nrels: usize,
        pre: &FactLists,
        delta: &FactLists,
        fresh: Option<&[Vec<bool>]>,
    ) -> Routed {
        let mut routed = Routed {
            images: vec![vec![Vec::new(); nrels]; self.servers],
            splits: vec![vec![0; nrels]; self.servers],
            gids: vec![vec![Vec::new(); nrels]; self.servers],
            fresh: vec![vec![Vec::new(); nrels]; self.servers],
        };
        for (block, lists) in [pre, delta].into_iter().enumerate() {
            for (r, facts) in lists.iter().enumerate() {
                for (i, fact) in facts.iter().enumerate() {
                    let gid = if block == 0 { i } else { pre[r].len() + i } as u32;
                    let (lo, hi) = self.tp.servers_overlapping(&fact.interval, self.servers);
                    for s in lo..=hi {
                        routed.images[s][r].push(fact.clone());
                        routed.gids[s][r].push(gid);
                        if block == 0 {
                            routed.splits[s][r] += 1;
                        } else if let Some(flags) = fresh {
                            routed.fresh[s][r].push(flags[r][i]);
                        }
                    }
                }
            }
        }
        routed
    }

    /// The sync program for one server against its retained image (see the
    /// module docs), plus the count of facts actually shipped (`Insert`
    /// payloads; retained runs count 0).
    fn sync_program(
        &self,
        store: StoreKind,
        s: usize,
        image: &FactLists,
        splits: &[u64],
    ) -> (Vec<RelationSync>, u64) {
        let empty: FactLists = Vec::new();
        let old = match &self.slots[s].shipped[store.idx()] {
            Some((old_image, _)) => old_image,
            None => &empty,
        };
        let mut shipped_facts = 0u64;
        let sync: Vec<RelationSync> = image
            .iter()
            .enumerate()
            .map(|(r, list)| {
                let ops = diff_ops(old.get(r).map_or(&[][..], |l| l), list);
                shipped_facts += ops
                    .iter()
                    .map(|op| match op {
                        SyncOp::Insert(facts) => facts.len() as u64,
                        SyncOp::Keep { .. } => 0,
                    })
                    .sum::<u64>();
                RelationSync {
                    ops,
                    split: splits[r],
                }
            })
            .collect();
        (sync, shipped_facts)
    }

    /// Syncs the servers' fact lists for `store`: each fact is routed to
    /// every server whose owned ranges its interval overlaps (owner +
    /// boundary replicas), and each server receives only the sync program
    /// against its retained image — runs kept in place, genuinely new
    /// facts inserted (see the module docs).
    pub fn apply_delta(
        &mut self,
        store: StoreKind,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<()> {
        let nrels = match store {
            StoreKind::Source => self.src_rels,
            StoreKind::Target => self.tgt_rels,
        };
        let routed = self.route_lists(nrels, pre, delta, None);
        let mut frames = Vec::with_capacity(self.servers);
        for s in 0..self.servers {
            let (sync, shipped_facts) =
                self.sync_program(store, s, &routed.images[s], &routed.splits[s]);
            let frame = encode(&Message::ApplyDelta { store, sync });
            self.traffic.apply_delta_bytes += frame.len() as u64;
            self.traffic.apply_delta_facts += shipped_facts;
            frames.push(frame);
        }
        for (s, resp) in self.broadcast(frames)?.into_iter().enumerate() {
            if resp != Response::Applied {
                return Err(transport_err(
                    s,
                    format!("unexpected response to ApplyDelta: {resp:?}"),
                ));
            }
        }
        for (s, (image, split)) in routed.images.into_iter().zip(routed.splits).enumerate() {
            self.slots[s].shipped[store.idx()] = Some((image, split));
        }
        Ok(())
    }

    /// Ships one fused frame per server — sync program + fresh flags +
    /// discovery request — and collects the responses. The retained-image
    /// cache is updated only *after* the broadcast succeeds, so a server
    /// that dies mid-fused-round is respawned to its pre-frame image and
    /// re-answers the identical frame. Returns the raw responses plus the
    /// per-server route maps for translating image pairs back to global
    /// gids.
    fn fused_exchange(
        &mut self,
        store: StoreKind,
        pre: &FactLists,
        delta: &FactLists,
        fresh: Option<&[Vec<bool>]>,
        discover: bool,
    ) -> Result<(Vec<Response>, RouteMaps)> {
        let nrels = match store {
            StoreKind::Source => self.src_rels,
            StoreKind::Target => self.tgt_rels,
        };
        let mut routed = self.route_lists(nrels, pre, delta, if discover { fresh } else { None });
        let mut frames = Vec::with_capacity(self.servers);
        for s in 0..self.servers {
            let (sync, shipped_facts) =
                self.sync_program(store, s, &routed.images[s], &routed.splits[s]);
            let fresh_s = if discover {
                std::mem::take(&mut routed.fresh[s])
            } else {
                Vec::new()
            };
            let msg = match store {
                StoreKind::Source => Message::TgdRoundFused {
                    sync,
                    fresh: fresh_s,
                    discover,
                },
                StoreKind::Target => Message::EgdRoundFused {
                    sync,
                    fresh: fresh_s,
                    discover,
                },
            };
            let frame = encode(&msg);
            self.traffic.apply_delta_bytes += frame.len() as u64;
            self.traffic.apply_delta_facts += shipped_facts;
            frames.push(frame);
        }
        let resps = self.broadcast(frames)?;
        for (s, (image, split)) in routed.images.into_iter().zip(routed.splits).enumerate() {
            self.slots[s].shipped[store.idx()] = Some((image, split));
        }
        Ok((resps, routed.gids))
    }

    /// One fused tgd round: sync + (optional) Algorithm-1 discovery + match
    /// enumeration in a single round trip per server. Returns the
    /// homomorphisms per tgd (ascending partition order, as
    /// [`run_tgd_round`](Self::run_tgd_round)) and the discovered pair
    /// images translated to global gids and deduplicated across servers.
    pub fn run_tgd_round_fused(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
        fresh: Option<&[Vec<bool>]>,
        discover: bool,
        tgd_count: usize,
    ) -> Result<(Vec<Vec<Hom>>, PairImages)> {
        let (resps, gids) = self.fused_exchange(StoreKind::Source, pre, delta, fresh, discover)?;
        let mut grouped: Vec<super::protocol::PartitionHoms> = Vec::new();
        let mut images = ImageUnion::new(self.src_rels);
        for (s, resp) in resps.into_iter().enumerate() {
            match resp {
                Response::TgdFused { homs, images: im } => {
                    grouped.extend(homs);
                    images.absorb(s, im, &gids[s])?;
                }
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to TgdRoundFused: {other:?}"),
                    ))
                }
            }
        }
        Ok((fold_wire_homs(grouped, tgd_count)?, images.pairs))
    }

    /// One fused egd round: sync + (optional) renormalization discovery +
    /// local merge enumeration in a single round trip per server. Returns
    /// the merge ops (ascending partition order, as
    /// [`run_egd_round`](Self::run_egd_round)) and the discovered pair
    /// images in global gids.
    pub fn run_egd_round_fused(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
        fresh: Option<&[Vec<bool>]>,
        discover: bool,
    ) -> Result<(Vec<MergeOp>, PairImages)> {
        let (resps, gids) = self.fused_exchange(StoreKind::Target, pre, delta, fresh, discover)?;
        let mut grouped: Vec<super::protocol::PartitionMerges> = Vec::new();
        let mut images = ImageUnion::new(self.tgt_rels);
        for (s, resp) in resps.into_iter().enumerate() {
            match resp {
                Response::EgdFused { merges, images: im } => {
                    grouped.extend(merges);
                    images.absorb(s, im, &gids[s])?;
                }
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to EgdRoundFused: {other:?}"),
                    ))
                }
            }
        }
        grouped.sort_by_key(|(p, _)| *p);
        Ok((
            grouped.into_iter().flat_map(|(_, ops)| ops).collect(),
            images.pairs,
        ))
    }

    /// Runs one tgd round on every server and returns, per tgd, the
    /// enumerated homomorphisms in ascending partition order — the same for
    /// every server count.
    pub fn run_tgd_round(&mut self, tgd_count: usize) -> Result<Vec<Vec<Hom>>> {
        let mut grouped: Vec<(u64, Vec<Vec<super::protocol::WireHom>>)> = Vec::new();
        for (s, resp) in self
            .broadcast_same(&Message::RunTgdRound)?
            .into_iter()
            .enumerate()
        {
            match resp {
                Response::Homs(h) => grouped.extend(h),
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to RunTgdRound: {other:?}"),
                    ))
                }
            }
        }
        fold_wire_homs(grouped, tgd_count)
    }

    /// Runs one local egd round on every server and returns the merge
    /// operations in ascending partition order.
    pub fn run_egd_round(&mut self) -> Result<Vec<MergeOp>> {
        let mut grouped: Vec<super::protocol::PartitionMerges> = Vec::new();
        for (s, resp) in self
            .broadcast_same(&Message::RunLocalEgdRound)?
            .into_iter()
            .enumerate()
        {
            match resp {
                Response::Merges(ops) => grouped.extend(ops),
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to RunLocalEgdRound: {other:?}"),
                    ))
                }
            }
        }
        grouped.sort_by_key(|(p, _)| *p);
        Ok(grouped.into_iter().flat_map(|(_, ops)| ops).collect())
    }

    /// Per server: the owned facts and boundary replicas it currently holds
    /// for `store`.
    pub fn snapshots(&mut self, store: StoreKind) -> Result<Vec<(FactLists, FactLists)>> {
        let mut out = Vec::with_capacity(self.servers);
        for (s, resp) in self
            .broadcast_same(&Message::Snapshot { store })?
            .into_iter()
            .enumerate()
        {
            match resp {
                Response::Facts { owned, replicas } => out.push((owned, replicas)),
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to Snapshot: {other:?}"),
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// The greedy in-order diff behind delta-only shipping: expresses `new` as
/// [`SyncOp`] runs over `old` (facts kept in retained order) plus inserts
/// of the facts not found. Exact — the reconstruction always equals `new`
/// — and *minimal* whenever `new` is an order-preserving subsequence of
/// `old` with fresh facts spliced in, which is precisely how the chase
/// evolves its lists (settling appends; rewriting and re-fragmentation
/// delete in place and append replacements). A hash index over `old`
/// keeps it linear; `Arc` pointer equality short-circuits the common case
/// where a fact object survives rounds untouched.
fn diff_ops(old: &[TemporalFact], new: &[TemporalFact]) -> Vec<SyncOp> {
    use std::collections::VecDeque;
    use std::hash::{Hash, Hasher};
    if old.is_empty() {
        return if new.is_empty() {
            Vec::new()
        } else {
            vec![SyncOp::Insert(new.to_vec())]
        };
    }
    let key = |f: &TemporalFact| -> (u64, Interval) {
        let mut h = tdx_storage::fxhash::FxHasher::default();
        f.data.hash(&mut h);
        (h.finish(), f.interval)
    };
    let mut index: tdx_storage::fxhash::FxHashMap<(u64, Interval), VecDeque<u32>> =
        Default::default();
    for (i, f) in old.iter().enumerate() {
        index.entry(key(f)).or_default().push_back(i as u32);
    }
    let mut ops: Vec<SyncOp> = Vec::new();
    let mut at = 0usize; // next unconsumed position of `old`
    for fact in new {
        let matched = index.get_mut(&key(fact)).and_then(|q| {
            while q.front().is_some_and(|&p| (p as usize) < at) {
                q.pop_front();
            }
            let p = *q.front()? as usize;
            // Verify (hash collisions): equality by content, Arc fast path.
            let o = &old[p];
            (o.interval == fact.interval
                && (Arc::ptr_eq(&o.data, &fact.data) || o.data == fact.data))
                .then(|| {
                    q.pop_front();
                    p
                })
        });
        match matched {
            Some(p) => {
                match ops.last_mut() {
                    Some(SyncOp::Keep { take, .. }) if p == at => *take += 1,
                    _ => ops.push(SyncOp::Keep {
                        skip: (p - at) as u64,
                        take: 1,
                    }),
                }
                at = p + 1;
            }
            None => match ops.last_mut() {
                Some(SyncOp::Insert(facts)) => facts.push(fact.clone()),
                _ => ops.push(SyncOp::Insert(vec![fact.clone()])),
            },
        }
    }
    ops
}

impl Drop for DistributedCluster {
    fn drop(&mut self) {
        let frame = encode(&Message::Shutdown);
        for slot in &mut self.slots {
            let _ = slot.transport.send(&frame);
        }
        for slot in &mut self.slots {
            // Drain the Stopped ack (best effort), then carrier teardown:
            // join the thread / reap the child.
            let _ = slot.transport.recv();
            slot.transport.shutdown();
        }
    }
}

/// Audits that the union of the servers' owner facts equals the
/// coordinator's fact lists (as multisets) — the invariant `ApplyDelta`
/// shipping must maintain. Cheap relative to a chase round; used by the
/// engine after the egd fixpoint (debug builds) and by the protocol tests.
pub fn snapshot_consistent(
    cluster: &mut DistributedCluster,
    store: StoreKind,
    lists: &FactLists,
) -> Result<bool> {
    let mut expected: tdx_storage::fxhash::FxHashMap<(usize, Row, Interval), isize> =
        Default::default();
    for (r, facts) in lists.iter().enumerate() {
        for f in facts {
            *expected
                .entry((r, Arc::clone(&f.data), f.interval))
                .or_default() += 1;
        }
    }
    for (owned, _) in cluster.snapshots(store)? {
        for (r, facts) in owned.iter().enumerate() {
            for f in facts {
                *expected
                    .entry((r, Arc::clone(&f.data), f.interval))
                    .or_default() -= 1;
            }
        }
    }
    Ok(expected.values().all(|&n| n == 0))
}

/// The distributed c-chase. Same contract as
/// [`c_chase_with`](crate::chase::concrete::c_chase_with); dispatched from
/// there for [`ChaseEngine::Distributed`](crate::chase::concrete::ChaseEngine).
pub(crate) fn c_chase_distributed(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
    servers: usize,
) -> Result<CChaseResult> {
    c_chase_distributed_with(
        ic,
        mapping,
        opts,
        servers,
        spawner_for(resolve_transport(opts.transport)),
    )
}

/// [`c_chase_distributed`] through an explicit spawner — the injection
/// point the fault-injection tests use.
pub fn c_chase_distributed_with(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
    servers: usize,
    spawner: Arc<dyn TransportSpawner>,
) -> Result<CChaseResult> {
    let servers = crate::chase::server_count(servers);
    let threads = crate::chase::worker_threads(0);
    let sopts = SearchOptions::default();
    let mut stats = ChaseStats {
        source_facts_in: ic.total_len(),
        ..ChaseStats::default()
    };
    let mut trace: Vec<String> = Vec::new();
    let log = |opts: &ChaseOptions, trace: &mut Vec<String>, msg: String| {
        if opts.record_trace {
            trace.push(msg);
        }
    };

    // A coarse timeline partition of the source endpoints: the count is a
    // locality knob, independent of the server count, which keeps the
    // result byte-identical across cluster sizes.
    let parts_hint = 16;
    let tp = TimelinePartition::new(&ic.endpoints().coarsen(parts_hint));
    let mut cluster = DistributedCluster::spawn_with_deadline(
        mapping,
        &tp,
        servers,
        sopts,
        spawner,
        opts.frame_deadline,
    )?;
    log(
        opts,
        &mut trace,
        format!(
            "distributed chase: {} timeline partitions over {} servers ({:?} transport)",
            tp.len(),
            cluster.servers(),
            cluster.transport()
        ),
    );

    // Steps 1–2, fused: normalize the source w.r.t. the s-t tgd bodies and
    // enumerate the tgd matches. When every body is sweepable the fixpoint
    // runs *optimistically distributed*: each fused frame ships the current
    // lists and asks the servers to both discover Algorithm-1 images over
    // their blocks and enumerate matches. If the folded cuts come back
    // empty the lists were already normal and the piggybacked enumerations
    // are used as-is — the steady state costs one round trip per server.
    // Otherwise the enumerations are discarded, the cuts applied, and the
    // next frame re-ships only the fragments. Generic (>2-atom) bodies and
    // naive mode keep the fixpoint coordinator-local and ship one
    // enumerate-only fused frame.
    let tgd_bodies = mapping.tgd_bodies();
    let nrels_src = mapping.source().len();
    let src_schema = Arc::new(mapping.source().clone());
    let tgds = mapping.st_tgds();
    let mut src_pre: FactLists = vec![Vec::new(); nrels_src];
    let mut src_index = LazyIndex::default();
    let mut src_block = Settled::new(&mut src_pre, &mut src_index, &src_schema, &tgd_bodies, &[]);
    let mut src_delta: FactLists = (0..nrels_src)
        .map(|r| ic.facts(RelId(r as u32)).to_vec())
        .collect();
    let src_sweep = (!opts.naive_normalization)
        .then(|| sweep_specs(&src_schema, &tgd_bodies))
        .flatten();
    let mut homs_per_tgd = match &src_sweep {
        Some(specs) => {
            let discover = !specs.is_empty();
            let mut fresh: Vec<Vec<bool>> = src_delta.iter().map(|d| vec![true; d.len()]).collect();
            loop {
                let (homs, images) = cluster.run_tgd_round_fused(
                    src_block.lists,
                    &src_delta,
                    Some(&fresh),
                    discover,
                    tgds.len(),
                )?;
                let mut cuts = CutMap::default();
                let (lists, settled) = src_block.parts();
                image_cuts(&images, lists, &src_delta, &mut cuts);
                base_align_cuts(lists, &src_delta, &fresh, settled, &mut cuts);
                if cuts.is_empty() {
                    break homs;
                }
                (src_delta, fresh) = apply_cuts(&mut src_block, &cuts, src_delta);
            }
        }
        None => {
            src_delta = refragment_lists(
                &src_schema,
                &tp,
                threads,
                sopts,
                Some(&tgd_bodies),
                opts.naive_normalization,
                &mut src_block,
                src_delta,
            )?;
            cluster
                .run_tgd_round_fused(src_block.lists, &src_delta, None, false, tgds.len())?
                .0
        }
    };
    stats.source_facts_normalized = src_pre
        .iter()
        .chain(src_delta.iter())
        .map(|l| l.len())
        .sum();
    log(
        opts,
        &mut trace,
        format!(
            "normalized source w.r.t. Σst: {} → {} facts",
            stats.source_facts_in, stats.source_facts_normalized
        ),
    );
    let mut target = TemporalInstance::new(Arc::new(mapping.target().clone()));
    let mut folder = TgdFolder::new(mapping)?;
    for ti in fire_order(folder.checks.iter().map(|(c, _)| c)) {
        let homs = std::mem::take(&mut homs_per_tgd[ti]);
        stats.tgd_steps += folder.fold(ti, homs, &mut target, sopts)?;
    }
    stats.nulls_created = folder.nulls.peek();
    stats.target_facts_after_tgd = target.total_len();
    log(
        opts,
        &mut trace,
        format!("tgd round: {} steps fired", stats.tgd_steps),
    );

    // Steps 3–4: initial target normalization on the coordinator, then
    // local egd rounds on the servers with the global union-find (and the
    // rewrite/re-fragmentation it implies) on the coordinator.
    let tgt_schema = target.schema_arc();
    let nrels_tgt = tgt_schema.len();
    let egd_bodies = mapping.egd_bodies();
    if egd_bodies.is_empty() && target.nulls().is_empty() {
        stats.target_facts_normalized = target.total_len();
        if opts.coalesce_result {
            target = target.coalesced();
        }
        stats.target_facts_out = target.total_len();
        return Ok(CChaseResult {
            target,
            normalized_source: lists_to_instance(&src_schema, &src_pre, &src_delta),
            stats,
            trace,
        });
    }
    let mut pre: FactLists = vec![Vec::new(); nrels_tgt];
    let mut tgt_index = LazyIndex::default();
    let mut block = Settled::new(&mut pre, &mut tgt_index, &tgt_schema, &egd_bodies, &[]);
    let mut delta: FactLists = (0..nrels_tgt)
        .map(|r| target.facts(RelId(r as u32)).to_vec())
        .collect();
    let egds = mapping.egds();
    let tgt_sweep = (!opts.naive_normalization)
        .then(|| sweep_specs(&tgt_schema, &egd_bodies))
        .flatten();
    let mut fresh: Vec<Vec<bool>> = delta.iter().map(|d| vec![true; d.len()]).collect();
    // Step 3's initial normalization is always w.r.t. Σeg; after each
    // union-find rewrite, re-discovery is the
    // `renormalize_between_egd_rounds` knob (alignment cuts always run).
    let mut discover_round = true;
    let mut normalized_recorded = false;
    let mut first_round = true;
    loop {
        // Normalize the current lists, then enumerate merges — through the
        // optimistic fused fixpoint when the egd bodies are sweepable, or a
        // coordinator-local fixpoint plus one enumerate-only frame when not.
        let ops = match &tgt_sweep {
            Some(specs) => loop {
                let (ops, images) = cluster.run_egd_round_fused(
                    block.lists,
                    &delta,
                    Some(&fresh),
                    discover_round && !specs.is_empty(),
                )?;
                let mut cuts = CutMap::default();
                let (lists, settled) = block.parts();
                if discover_round {
                    image_cuts(&images, lists, &delta, &mut cuts);
                }
                base_align_cuts(lists, &delta, &fresh, settled, &mut cuts);
                if cuts.is_empty() {
                    break ops;
                }
                (delta, fresh) = apply_cuts(&mut block, &cuts, delta);
            },
            None => {
                let renorm = discover_round.then_some(egd_bodies.as_slice());
                delta = refragment_lists(
                    &tgt_schema,
                    &tp,
                    threads,
                    sopts,
                    renorm,
                    opts.naive_normalization,
                    &mut block,
                    std::mem::take(&mut delta),
                )?;
                cluster
                    .run_egd_round_fused(block.lists, &delta, None, false)?
                    .0
            }
        };
        if !normalized_recorded {
            normalized_recorded = true;
            stats.target_facts_normalized = block
                .lists
                .iter()
                .chain(delta.iter())
                .map(|l| l.len())
                .sum();
        }
        let mut uf = AnnotatedUnionFind::new();
        let merges = fold_merge_ops(
            ops.into_iter()
                .map(|(ei, a, b, iv)| (ei as usize, a, b, iv)),
            &mut uf,
            |ei| {
                let egd = &egds[ei];
                egd.name.clone().unwrap_or_else(|| egd.to_string())
            },
        )?;
        if merges == 0 {
            break;
        }
        stats.egd_rounds += 1;
        stats.egd_merges += merges;
        if !first_round {
            stats.egd_delta_rounds += 1;
        }
        first_round = false;
        log(
            opts,
            &mut trace,
            format!(
                "egd round {}: {merges} identifications from local server rounds",
                stats.egd_rounds
            ),
        );
        delta = rewrite_values(&mut block, delta, &mut uf);
        if tgt_sweep.is_some() {
            fresh = delta.iter().map(|d| vec![true; d.len()]).collect();
        }
        discover_round = opts.renormalize_between_egd_rounds;
    }

    // The servers' owner blocks must tile the coordinator's target exactly —
    // the shipping invariant the protocol relies on. The audit re-serializes
    // the whole target through `Snapshot`, so it runs in debug builds and
    // the protocol tests (`tests/distributed.rs`), not on release chases.
    if cfg!(debug_assertions) {
        let settled: FactLists = pre
            .iter()
            .zip(delta.iter())
            .map(|(p, d)| p.iter().chain(d.iter()).cloned().collect())
            .collect();
        if !snapshot_consistent(&mut cluster, StoreKind::Target, &settled)? {
            return Err(TdxError::Invalid(
                "distributed chase: server snapshots diverged from the coordinator".into(),
            ));
        }
    }

    let mut target = lists_to_instance(&tgt_schema, &pre, &delta);
    if opts.coalesce_result {
        target = target.coalesced();
    }
    stats.target_facts_out = target.total_len();
    Ok(CChaseResult {
        target,
        normalized_source: lists_to_instance(&src_schema, &src_pre, &src_delta),
        stats,
        trace,
    })
}

fn lists_to_instance(schema: &Arc<Schema>, pre: &FactLists, delta: &FactLists) -> TemporalInstance {
    let mut out = TemporalInstance::new(Arc::clone(schema));
    for (r, (p, d)) in pre.iter().zip(delta.iter()).enumerate() {
        let rel = RelId(r as u32);
        for fact in p.iter().chain(d.iter()) {
            out.insert(rel, Arc::clone(&fact.data), fact.interval);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::cluster::transport::{ChannelSpawner, FaultInjector};
    use crate::chase::concrete::c_chase_with;
    use crate::hom::hom_equivalent;
    use crate::semantics::semantics;
    use crate::verify::check_against_abstract_chase;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};

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

    #[test]
    fn fire_order_puts_direct_tgds_first_and_keeps_declaration_order() {
        let memo = || Check::Memo {
            rel: RelId(0),
            cols: vec![0],
        };
        let checks = [memo(), Check::Direct, Check::Probe, Check::Direct, memo()];
        assert_eq!(fire_order(&checks), vec![1, 3, 0, 2, 4]);
        assert_eq!(fire_order(&[Check::Probe, memo()]), vec![0, 1]);
        assert!(fire_order(&[]).is_empty());
    }

    /// Figure 9: five target facts, two of them with a null.
    #[test]
    fn matches_the_sequential_engine_across_server_counts() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        for servers in [1usize, 2, 3, 5] {
            let dist =
                c_chase_with(&source, &mapping, &ChaseOptions::distributed(servers)).unwrap();
            check_against_abstract_chase(&source, &mapping, Ok(&dist.target))
                .unwrap_or_else(|e| panic!("servers = {servers}: {e}"));
            assert_eq!(dist.target.total_len(), 5);
            let null_facts = dist
                .target
                .iter_all()
                .filter(|(_, f)| f.data.iter().any(Value::is_null));
            assert_eq!(null_facts.count(), 2);
            // 3 σ2 steps, then σ1 only where no salary witnesses it.
            assert_eq!(dist.stats.tgd_steps, 5);
            assert_eq!(dist.stats.nulls_created, 2);
            assert_eq!(dist.stats.egd_rounds, 0);
        }
    }

    #[test]
    fn deterministic_across_server_counts() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let one = c_chase_with(&source, &mapping, &ChaseOptions::distributed(1)).unwrap();
        for servers in [2usize, 3, 4, 7] {
            let many =
                c_chase_with(&source, &mapping, &ChaseOptions::distributed(servers)).unwrap();
            assert_eq!(one.target, many.target, "servers = {servers}");
        }
    }

    #[test]
    fn deterministic_across_transports() {
        // The transport is a carrier, not a participant: channel and TCP
        // runs are byte-identical.
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let channel = c_chase_with(
            &source,
            &mapping,
            &ChaseOptions::distributed(2).on_transport(TransportKind::Channel),
        )
        .unwrap();
        let tcp = c_chase_with(
            &source,
            &mapping,
            &ChaseOptions::distributed(2).on_transport(TransportKind::Tcp),
        )
        .unwrap();
        assert_eq!(channel.target, tcp.target);
        assert_eq!(channel.stats, tcp.stats);
    }

    #[test]
    fn failure_on_conflicting_sources() {
        let mapping = paper_mapping();
        let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "18k"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "20k"], iv(5, 15));
        for servers in [1usize, 3] {
            let err = c_chase_with(&ic, &mapping, &ChaseOptions::distributed(servers)).unwrap_err();
            assert!(
                matches!(err, TdxError::ChaseFailure { .. }),
                "servers = {servers}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_source_and_trace() {
        let mapping = paper_mapping();
        let ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        let result = c_chase_with(&ic, &mapping, &ChaseOptions::distributed(2)).unwrap();
        assert!(result.target.is_empty());
        let opts = ChaseOptions {
            record_trace: true,
            coalesce_result: true,
            ..ChaseOptions::distributed(2)
        };
        let source = figure4(&mapping);
        let result = c_chase_with(&source, &mapping, &opts).unwrap();
        assert!(result.target.is_coalesced());
        assert!(result.trace.iter().any(|l| l.contains("servers")));
    }

    #[test]
    fn unbounded_boundary_facts_are_replicated_to_the_server_tail() {
        // An unbounded fact must be shipped to its owner and to every later
        // server (it overlaps all of their ranges) — visible as a replica in
        // their snapshots.
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10, 20, 30]));
        let mut cluster =
            DistributedCluster::spawn(&mapping, &tp, 2, SearchOptions::default()).unwrap();
        use tdx_storage::row;
        let unbounded = TemporalFact {
            data: row([Value::str("Ada"), Value::str("IBM")]),
            interval: Interval::from(15), // owner partition 1 (server 0), crosses into server 1
        };
        let bounded = TemporalFact {
            data: row([Value::str("Bob"), Value::str("IBM")]),
            interval: iv(0, 5), // stays on server 0
        };
        assert!(unbounded.interval.is_unbounded());
        let pre: FactLists = vec![vec![unbounded.clone(), bounded.clone()], vec![]];
        let delta: FactLists = vec![Vec::new(); 2];
        cluster
            .apply_delta(StoreKind::Source, &pre, &delta)
            .unwrap();
        let snaps = cluster.snapshots(StoreKind::Source).unwrap();
        assert_eq!(snaps.len(), 2);
        // Server 0 owns both facts; server 1 holds the unbounded one only,
        // as a replica.
        assert_eq!(snaps[0].0[0].len(), 2);
        assert!(snaps[0].1[0].is_empty());
        assert!(snaps[1].0[0].is_empty());
        assert_eq!(snaps[1].1[0], vec![unbounded]);
        // And the owner multiset matches the coordinator's lists.
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
    }

    #[test]
    fn delta_only_shipping_skips_the_retained_prefix() {
        use tdx_storage::row;
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10, 20]));
        let mut cluster =
            DistributedCluster::spawn(&mapping, &tp, 1, SearchOptions::default()).unwrap();
        let fact = |name: &str, s: u64| TemporalFact {
            data: row([Value::str(name), Value::str("IBM")]),
            interval: iv(s, s + 3),
        };
        // Round 1: full ship of 100 facts.
        let mut pre: FactLists = vec![(0..100).map(|i| fact("Ada", i)).collect(), Vec::new()];
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        let full = cluster.traffic();
        assert_eq!(full.apply_delta_facts, 100);
        // Round 2: same lists + 2 appended facts → only the suffix ships.
        pre[0].push(fact("Bob", 50));
        pre[0].push(fact("Cyd", 60));
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        let after = cluster.traffic();
        assert_eq!(after.apply_delta_facts - full.apply_delta_facts, 2);
        assert!(
            (after.apply_delta_bytes - full.apply_delta_bytes) * 10 < full.apply_delta_bytes,
            "suffix ship must be an order of magnitude under the full ship: {after:?} vs {full:?}"
        );
        // The server's reconstructed image still tiles the coordinator's.
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
        // Round 3: a rewrite in the middle ships only the rewritten fact —
        // the kept runs around it stay on the server.
        pre[0][10] = fact("Eve", 10);
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        let rewritten = cluster.traffic();
        assert_eq!(rewritten.apply_delta_facts - after.apply_delta_facts, 1);
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
    }

    #[test]
    fn diff_ops_reconstructs_and_is_minimal_on_chase_shaped_edits() {
        use tdx_storage::row;
        let f = |name: &str, s: u64| TemporalFact {
            data: row([Value::str(name), Value::int(s as i64)]),
            interval: iv(s, s + 2),
        };
        let reconstruct = |old: &[TemporalFact], ops: &[SyncOp]| -> Vec<TemporalFact> {
            let mut out = Vec::new();
            let mut at = 0usize;
            for op in ops {
                match op {
                    SyncOp::Keep { skip, take } => {
                        at += *skip as usize;
                        out.extend_from_slice(&old[at..at + *take as usize]);
                        at += *take as usize;
                    }
                    SyncOp::Insert(facts) => out.extend(facts.iter().cloned()),
                }
            }
            out
        };
        let inserted = |ops: &[SyncOp]| -> usize {
            ops.iter()
                .map(|op| match op {
                    SyncOp::Insert(facts) => facts.len(),
                    SyncOp::Keep { .. } => 0,
                })
                .sum()
        };
        let old: Vec<TemporalFact> = (0..50).map(|i| f("a", i)).collect();
        // Append-only (settling): one kept run + suffix.
        let mut appended = old.clone();
        appended.push(f("b", 100));
        let ops = diff_ops(&old, &appended);
        assert_eq!(reconstruct(&old, &ops), appended);
        assert_eq!(inserted(&ops), 1);
        // Mid-list deletions + replacements appended (a rewrite round).
        let mut rewritten: Vec<TemporalFact> = old
            .iter()
            .filter(|x| x.interval.start() % 7 != 0)
            .cloned()
            .collect();
        rewritten.push(f("rw", 7));
        rewritten.push(f("rw", 14));
        let ops = diff_ops(&old, &rewritten);
        assert_eq!(reconstruct(&old, &ops), rewritten);
        assert_eq!(inserted(&ops), 2);
        // Duplicates keep multiset semantics.
        let dup = vec![f("d", 1), f("d", 1), f("x", 2)];
        let new = vec![f("d", 1), f("x", 2), f("d", 1)];
        let ops = diff_ops(&dup, &new);
        assert_eq!(reconstruct(&dup, &ops), new);
        // Empty transitions.
        assert!(diff_ops(&[], &[]).is_empty());
        assert_eq!(inserted(&diff_ops(&[], &old)), 50);
        assert_eq!(
            reconstruct(&old, &diff_ops(&old, &[])),
            Vec::<TemporalFact>::new()
        );
    }

    #[test]
    fn retry_path_respawns_a_killed_server_and_restores_the_fixpoint() {
        // Kill server 1 of 3 at every frame offset it ever reaches — the
        // handshake, then each fused round — until the injector stops
        // tripping; the retry path must respawn it, replay its watermarked
        // (pre-frame) images and finish with a result hom-equivalent to
        // (indeed byte-identical to) an unfaulted channel run.
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let clean = c_chase_with(&source, &mapping, &ChaseOptions::distributed(3)).unwrap();
        let mut kill_after = 0usize;
        loop {
            let injector = Arc::new(FaultInjector::new(Arc::new(ChannelSpawner), 1, kill_after));
            let faulted = c_chase_distributed_with(
                &source,
                &mapping,
                &ChaseOptions::distributed(3),
                3,
                Arc::clone(&injector) as Arc<dyn TransportSpawner>,
            )
            .unwrap_or_else(|e| panic!("kill_after {kill_after}: chase failed: {e:?}"));
            assert_eq!(
                clean.target, faulted.target,
                "kill_after {kill_after}: retry path diverged"
            );
            assert!(hom_equivalent(
                &semantics(&clean.target),
                &semantics(&faulted.target)
            ));
            if !injector.tripped() {
                break; // past the last frame the victim ever sees
            }
            kill_after += 1;
            assert!(kill_after < 64, "fault matrix did not converge");
        }
        assert!(
            kill_after >= 2,
            "matrix stopped at offset {kill_after} before reaching a fused round"
        );
    }

    /// A spawner whose every transport dies on its first frame, counting
    /// the spawns it served.
    struct AlwaysDead(std::sync::atomic::AtomicUsize);

    struct DeadTransport;

    impl Transport for DeadTransport {
        fn send(&mut self, _: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "dead"))
        }
        fn recv(&mut self) -> std::io::Result<Vec<u8>> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "dead"))
        }
        fn shutdown(&mut self) {}
    }

    impl TransportSpawner for AlwaysDead {
        fn spawn(&self, _: usize) -> std::io::Result<Box<dyn Transport>> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(Box::new(DeadTransport))
        }
        fn kind(&self) -> TransportKind {
            TransportKind::Channel
        }
    }

    #[test]
    fn respawn_budget_is_bounded_and_ends_in_quarantine() {
        // A server that dies on every frame exhausts MAX_RESPAWNS — the
        // spawner is retried a bounded number of times, never in a loop —
        // and is then quarantined onto the coordinator-local kernel: the
        // cluster construction *succeeds* and the slot answers protocol
        // traffic locally.
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10]));
        let spawner = Arc::new(AlwaysDead(std::sync::atomic::AtomicUsize::new(0)));
        let cluster = DistributedCluster::spawn_with(
            &mapping,
            &tp,
            1,
            SearchOptions::default(),
            Arc::clone(&spawner) as Arc<dyn TransportSpawner>,
        )
        .expect("a permanently dead server degrades to local execution, not failure");
        assert_eq!(cluster.health(0), ServerHealth::Quarantined);
        assert_eq!(cluster.quarantined(), 1);
        assert_eq!(cluster.traffic().quarantines, 1);
        // Initial spawn + MAX_RESPAWNS retries, then quarantine: the
        // budget bounds how often the spawner is hammered.
        assert_eq!(
            spawner.0.load(std::sync::atomic::Ordering::SeqCst),
            1 + MAX_RESPAWNS as usize
        );
    }

    #[test]
    fn quarantined_chase_completes_byte_identical() {
        // The full batch chase with server 1 of 3 permanently dead: its
        // blocks degrade to coordinator-local execution and the result is
        // byte-identical to a healthy run.
        struct DeadOne(Arc<dyn TransportSpawner>);
        impl TransportSpawner for DeadOne {
            fn spawn(&self, s: usize) -> std::io::Result<Box<dyn Transport>> {
                if s == 1 {
                    Ok(Box::new(DeadTransport))
                } else {
                    self.0.spawn(s)
                }
            }
            fn kind(&self) -> TransportKind {
                self.0.kind()
            }
        }
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let clean = c_chase_with(&source, &mapping, &ChaseOptions::distributed(3)).unwrap();
        let degraded = c_chase_distributed_with(
            &source,
            &mapping,
            &ChaseOptions::distributed(3),
            3,
            Arc::new(DeadOne(Arc::new(ChannelSpawner))),
        )
        .expect("quarantine must complete the chase, not fail it");
        assert_eq!(clean.target, degraded.target, "local degradation diverged");
    }

    #[test]
    fn clean_rounds_decay_the_respawn_budget() {
        // One strike, then CLEAN_ROUNDS_TO_FORGIVE clean heartbeats: the
        // budget decays back to zero and the slot returns to Healthy — a
        // long-lived session is not one transient fault closer to
        // quarantine forever.
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10]));
        let injector = Arc::new(FaultInjector::new(Arc::new(ChannelSpawner), 0, 1));
        let mut cluster = DistributedCluster::spawn_with(
            &mapping,
            &tp,
            1,
            SearchOptions::default(),
            injector as Arc<dyn TransportSpawner>,
        )
        .unwrap();
        // The Hello consumed the one pre-fault frame; the first heartbeat
        // trips the fault, and the respawned carrier is clean.
        cluster.heartbeat().unwrap();
        assert_eq!(cluster.health(0), ServerHealth::Suspect);
        assert_eq!(cluster.traffic().respawns, 1);
        for _ in 0..CLEAN_ROUNDS_TO_FORGIVE {
            assert_eq!(cluster.health(0), ServerHealth::Suspect);
            cluster.heartbeat().unwrap();
        }
        assert_eq!(cluster.health(0), ServerHealth::Healthy);
    }
}
