//! The concrete chase — **c-chase** (paper Section 4.3, Definition 16).
//!
//! Pipeline:
//!
//! 1. normalize the source w.r.t. the left-hand sides of `Σ⁺_st`;
//! 2. apply all s-t tgd c-chase steps (restricted: a step fires only if the
//!    homomorphism — including the shared interval `h(t)` — has no extension
//!    into the target); fresh nulls are annotated with `h(t)` (implicitly:
//!    the fact they are placed in carries that interval);
//! 3. normalize the target w.r.t. the left-hand sides of `Σ⁺_eg`;
//! 4. apply egd c-chase steps to a fixpoint. Equating two distinct constants
//!    fails the chase (and then, by Theorem 19(2), no solution exists).
//!    Replacement is keyed on *(null base, interval)*: rewriting `N^[s,e)`
//!    must not touch sibling fragments `N^[e,e′)`, which are different
//!    annotated nulls (Section 4.1).
//!
//! Theorem 19 / Corollary 20: a successful result `J_c` satisfies
//! `⟦J_c⟧ ∼ chase(⟦I_c⟧)`.
//!
//! [`c_chase_with`] runs this pipeline literally, over the whole instance,
//! only for [`ChaseEngine::LegacyScan`]: it is the reference the tests
//! check every other engine against. The local engines chase the source as
//! one batch of an
//! [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
//! session, whose result is hom-equivalent (Corollary 20 asks no more).

use crate::error::{Result, TdxError};
use crate::normalize::{naive_normalize, normalize_with};
use std::sync::Arc;
use tdx_logic::{Atom, SchemaMapping, Term, Tgd, Var};
use tdx_storage::fxhash::FxHashMap;
use tdx_storage::{NullGen, NullId, SearchOptions, TemporalInstance, TemporalMode, Value};
use tdx_temporal::Interval;

/// Which engine the c-chase runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ChaseEngine {
    /// The session kernel: the source is chased as one batch of a fresh
    /// [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
    /// — dirty-interval joins over the working fact lists, incremental
    /// Algorithm-1 re-fragmentation, and **semi-naive** egd rounds that
    /// join only against the facts the previous round changed. Worker
    /// threads resolve as for `PartitionedParallel { threads: 0 }`.
    #[default]
    IndexedSemiNaive,
    /// The Definition-16 reference: the four steps of the c-chase run
    /// literally over the whole instance, with full relation scans, and
    /// every egd round re-enumerates every match and re-normalizes the
    /// whole target. Slow on purpose; the oracle of the equivalence tests
    /// and the ablation baseline of the benches.
    LegacyScan,
    /// The session kernel of [`ChaseEngine::IndexedSemiNaive`] with an
    /// explicit worker-thread count for Algorithm-1 discovery. Its task
    /// decomposition does not depend on the count, so results are
    /// byte-identical across thread counts. See `docs/parallelism.md`.
    PartitionedParallel {
        /// Worker threads; `0` resolves from `TDX_CHASE_THREADS` or the
        /// machine's available parallelism (see
        /// [`worker_threads`](crate::chase::worker_threads)).
        threads: usize,
    },
    /// Distributed evaluation over partition servers: each server owns a
    /// contiguous block of timeline partitions and speaks the serialized
    /// `ApplyDelta` / `RunTgdRound` / `RunLocalEgdRound` / `Snapshot`
    /// protocol of [`crate::chase::cluster`] over a pluggable transport
    /// (in-process channels or TCP child processes — see
    /// [`ChaseOptions::transport`]), while the coordinator keeps the
    /// global union-find and the normalization fixpoints.
    /// Hom-equivalent to the reference and byte-identical across server
    /// counts and transports. See
    /// `docs/distributed.md` and `docs/transport.md`.
    Distributed {
        /// Partition servers; `0` resolves from `TDX_CHASE_SERVERS`, then
        /// defaults to 2 (see [`server_count`](crate::chase::server_count)).
        servers: usize,
    },
}

/// Tuning knobs for the c-chase.
#[derive(Clone, Debug)]
pub struct ChaseOptions {
    /// Re-normalize the target w.r.t. the egd bodies after every egd merge
    /// round (default **true**). The paper normalizes once before the egd
    /// phase; substituting constants for nulls can create new data joins
    /// between facts whose intervals overlap without being aligned, which a
    /// once-normalized instance would miss. Re-normalizing is a
    /// soundness-hardening superset — on instances where the paper's single
    /// normalization suffices (all its examples) it changes nothing.
    pub renormalize_between_egd_rounds: bool,
    /// Use naïve normalization instead of Algorithm 1 (ablation knob).
    pub naive_normalization: bool,
    /// Coalesce the result before returning it (presentation; `⟦·⟧` is
    /// unchanged).
    pub coalesce_result: bool,
    /// Record a human-readable step trace in the result.
    pub record_trace: bool,
    /// The engine (the one-batch session kernel by default; the
    /// Definition-16 reference is kept for equivalence tests and ablation
    /// benches).
    pub engine: ChaseEngine,
    /// Transport backend for [`ChaseEngine::Distributed`]: `None` resolves
    /// from `TDX_CHASE_TRANSPORT` (default: in-process channels). Ignored
    /// by the shared-memory engines. See
    /// [`resolve_transport`](crate::chase::cluster::resolve_transport).
    pub transport: Option<crate::chase::cluster::TransportKind>,
    /// Per-frame transport deadline for [`ChaseEngine::Distributed`]: the
    /// bound on how long one coordinator-side `send`/`recv` may block
    /// before the server is treated as faulty (respawn, then quarantine
    /// into coordinator-local execution — see `docs/robustness.md`).
    /// `None` resolves from `TDX_CHASE_DEADLINE_MS` (default 10s);
    /// `Some(Duration::ZERO)` disables deadlines entirely. Ignored by the
    /// shared-memory engines. See
    /// [`frame_deadline`](crate::chase::frame_deadline).
    pub frame_deadline: Option<std::time::Duration>,
}

impl Default for ChaseOptions {
    fn default() -> Self {
        ChaseOptions {
            renormalize_between_egd_rounds: true,
            naive_normalization: false,
            coalesce_result: false,
            record_trace: false,
            engine: ChaseEngine::default(),
            transport: None,
            frame_deadline: None,
        }
    }
}

impl ChaseOptions {
    /// The paper-faithful configuration: normalize the target once before
    /// the egd phase, never again.
    pub fn paper_faithful() -> ChaseOptions {
        ChaseOptions {
            renormalize_between_egd_rounds: false,
            ..ChaseOptions::default()
        }
    }

    /// Default options on the legacy full-scan engine.
    pub fn legacy_scan() -> ChaseOptions {
        ChaseOptions {
            engine: ChaseEngine::LegacyScan,
            ..ChaseOptions::default()
        }
    }

    /// Default options on the partitioned parallel engine. `threads = 0`
    /// resolves from `TDX_CHASE_THREADS` / the machine (see
    /// [`worker_threads`](crate::chase::worker_threads)).
    pub fn partitioned_parallel(threads: usize) -> ChaseOptions {
        ChaseOptions {
            engine: ChaseEngine::PartitionedParallel { threads },
            ..ChaseOptions::default()
        }
    }

    /// Default options on the distributed partition-server engine.
    /// `servers = 0` resolves from `TDX_CHASE_SERVERS` (see
    /// [`server_count`](crate::chase::server_count)).
    pub fn distributed(servers: usize) -> ChaseOptions {
        ChaseOptions {
            engine: ChaseEngine::Distributed { servers },
            ..ChaseOptions::default()
        }
    }

    /// These options with an explicit transport backend for the
    /// distributed engine (`--transport` on the CLI).
    pub fn on_transport(mut self, transport: crate::chase::cluster::TransportKind) -> ChaseOptions {
        self.transport = Some(transport);
        self
    }

    /// These options with an explicit per-frame transport deadline for
    /// the distributed engine (`--deadline-ms` on the CLI;
    /// `Duration::ZERO` disables deadlines).
    pub fn with_frame_deadline(mut self, deadline: std::time::Duration) -> ChaseOptions {
        self.frame_deadline = Some(deadline);
        self
    }

    /// The matcher options implied by the engine choice.
    pub fn search_options(&self) -> SearchOptions {
        SearchOptions {
            use_indexes: self.engine != ChaseEngine::LegacyScan,
        }
    }
}

/// Counters describing one c-chase run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Facts in the input source instance.
    pub source_facts_in: usize,
    /// Facts after source normalization.
    pub source_facts_normalized: usize,
    /// s-t tgd c-chase steps fired.
    pub tgd_steps: usize,
    /// Target facts right after the tgd phase.
    pub target_facts_after_tgd: usize,
    /// Target facts after the initial egd normalization.
    pub target_facts_normalized: usize,
    /// Egd merge rounds executed.
    pub egd_rounds: usize,
    /// Egd rounds that ran delta-restricted (not on the reference engine;
    /// the first round is always a full enumeration).
    pub egd_delta_rounds: usize,
    /// Individual value identifications performed.
    pub egd_merges: usize,
    /// Facts in the returned target.
    pub target_facts_out: usize,
    /// Fresh interval-annotated nulls created.
    pub nulls_created: u64,
}

/// The output of a successful c-chase.
#[derive(Debug)]
pub struct CChaseResult {
    /// The concrete solution `J_c`.
    pub target: TemporalInstance,
    /// The normalized source the tgd phase ran on.
    pub normalized_source: TemporalInstance,
    /// Run counters.
    pub stats: ChaseStats,
    /// Step-by-step narration (only when
    /// [`ChaseOptions::record_trace`] is set).
    pub trace: Vec<String>,
}

pub(crate) fn instantiate(atom: &Atom, env: &[(Var, Value)]) -> Vec<Value> {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Value::Const(*c),
            Term::Var(v) => {
                env.iter()
                    .find(|(w, _)| w == v)
                    .unwrap_or_else(|| panic!("unbound head variable {v}"))
                    .1
            }
        })
        .collect()
}

/// Union-find over interval-annotated values. Null keys carry their
/// annotation; constants are global (a null equated to `18k` in `[0,2)` and
/// another in `[5,7)` both resolve to `18k`, but the two nulls are never
/// directly identified with each other).
pub(crate) struct AnnotatedUnionFind {
    parent: FxHashMap<UfKey, UfKey>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum UfKey {
    Const(tdx_logic::Constant),
    Null(NullId, Interval),
}

impl AnnotatedUnionFind {
    pub(crate) fn new() -> AnnotatedUnionFind {
        AnnotatedUnionFind {
            parent: FxHashMap::default(),
        }
    }

    fn find(&mut self, k: UfKey) -> UfKey {
        let p = match self.parent.get(&k) {
            None => return k,
            Some(p) => *p,
        };
        let root = self.find(p);
        self.parent.insert(k, root);
        root
    }

    pub(crate) fn union(&mut self, a: UfKey, b: UfKey) -> std::result::Result<(), (UfKey, UfKey)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        match (ra, rb) {
            (UfKey::Const(_), UfKey::Const(_)) => Err((ra, rb)),
            (UfKey::Const(_), UfKey::Null(..)) => {
                self.parent.insert(rb, ra);
                Ok(())
            }
            (UfKey::Null(..), UfKey::Const(_)) => {
                self.parent.insert(ra, rb);
                Ok(())
            }
            (UfKey::Null(na, _), UfKey::Null(nb, _)) => {
                if na < nb {
                    self.parent.insert(rb, ra);
                } else {
                    self.parent.insert(ra, rb);
                }
                Ok(())
            }
        }
    }

    pub(crate) fn resolve(&mut self, v: &Value, fact_interval: Interval) -> Value {
        match v {
            Value::Const(_) => *v,
            Value::Null(b) => match self.find(UfKey::Null(*b, fact_interval)) {
                UfKey::Const(c) => Value::Const(c),
                UfKey::Null(b2, _) => Value::Null(b2),
            },
        }
    }
}

/// Fragments facts so that any two facts sharing a null base have equal or
/// disjoint intervals.
///
/// Definition 16 annotates every fresh null of one tgd step with `h(t)` and
/// places it in *all* head facts of that step. When later normalization
/// fragments those sibling facts differently, the "annotation = fact
/// interval" invariant silently splits one annotated null into unaligned
/// occurrences — and the `(base, interval)`-keyed egd rewrite would update
/// one sibling but not the other, breaking `⟦·⟧` (the abstract chase
/// rewrites the underlying `(base, ℓ)` nulls *everywhere*). Aligning the
/// connected components of the "shares a base" relation at their common
/// endpoints restores the invariant; fragmentation itself is always
/// `⟦·⟧`-preserving.
fn align_shared_nulls(target: &TemporalInstance) -> TemporalInstance {
    let facts: Vec<(tdx_logic::RelId, &tdx_storage::TemporalFact)> = target.iter_all().collect();
    let n = facts.len();
    // Union-find over fact indices, connected through shared null bases.
    let mut parent: Vec<usize> = (0..n).collect();
    use crate::normalize::uf_find as find;
    let mut owner: FxHashMap<NullId, usize> = FxHashMap::default();
    let mut has_null = vec![false; n];
    for (i, (_, fact)) in facts.iter().enumerate() {
        for v in fact.data.iter() {
            if let Value::Null(b) = v {
                has_null[i] = true;
                match owner.get(b) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
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
    // Component breakpoints from member intervals (singleton components
    // need no cuts — a fact is always aligned with itself).
    let mut members: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for (i, hn) in has_null.iter().enumerate() {
        if *hn {
            members.entry(find(&mut parent, i)).or_default().push(i);
        }
    }
    let mut bps: FxHashMap<usize, tdx_temporal::Breakpoints> = FxHashMap::default();
    for (root, ms) in &members {
        if ms.len() > 1 {
            bps.insert(
                *root,
                tdx_temporal::Breakpoints::from_intervals(ms.iter().map(|&i| &facts[i].1.interval)),
            );
        }
    }
    let mut out = TemporalInstance::new(target.schema_arc());
    for (i, (rel, fact)) in facts.iter().enumerate() {
        let group_bps = if has_null[i] {
            bps.get(&find(&mut parent, i))
        } else {
            None
        };
        match group_bps {
            Some(b) => {
                for iv in tdx_temporal::fragment_interval(&fact.interval, b) {
                    out.insert(*rel, Arc::clone(&fact.data), iv);
                }
            }
            None => {
                out.insert(*rel, Arc::clone(&fact.data), fact.interval);
            }
        }
    }
    out
}

/// Runs the c-chase of `ic` w.r.t. `mapping` with default options.
pub fn c_chase(ic: &TemporalInstance, mapping: &SchemaMapping) -> Result<CChaseResult> {
    c_chase_with(ic, mapping, &ChaseOptions::default())
}

/// Runs the c-chase with explicit options.
///
/// The local engines ([`ChaseEngine::IndexedSemiNaive`] and
/// [`ChaseEngine::PartitionedParallel`]) chase `ic` as one batch on a fresh
/// [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
/// built from `opts`: the session's dirty-interval joins and
/// delta-restricted egd rounds are the production kernel, and a one-batch
/// session reaches a result hom-equivalent to the abstract chase
/// (Corollary 20) without the whole-instance re-normalizations of the
/// literal pipeline. [`ChaseEngine::Distributed`] runs the
/// partition-server batch loop. [`ChaseEngine::LegacyScan`] runs the four
/// steps of Definition 16 literally over the whole instance — the
/// reference the tests check every other engine against.
pub fn c_chase_with(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
) -> Result<CChaseResult> {
    match opts.engine {
        ChaseEngine::IndexedSemiNaive | ChaseEngine::PartitionedParallel { .. } => {
            crate::chase::incremental::chase_as_one_batch(ic, mapping, opts)
        }
        ChaseEngine::Distributed { servers } => {
            crate::chase::cluster::coordinator::c_chase_distributed(ic, mapping, opts, servers)
        }
        ChaseEngine::LegacyScan => c_chase_reference(ic, mapping, opts),
    }
}

/// The trace line of one fired tgd step: the tgd, the shared interval and
/// the head facts the step placed.
pub(crate) fn narrate_tgd_step(tgd: &Tgd, env: &[(Var, Value)], iv: Interval) -> String {
    format!(
        "tgd step {} on {iv}: {}",
        tgd.name.as_deref().unwrap_or("σ"),
        tgd.head
            .iter()
            .map(|a| {
                let vals: Vec<String> = instantiate(a, env).iter().map(|v| v.to_string()).collect();
                format!("{}({}, {iv})", a.relation, vals.join(", "))
            })
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Definition 16 step by step over the whole instance: normalize the
/// source, fire every tgd step, normalize the target, then run egd rounds
/// that each re-enumerate every match and re-normalize the whole target.
fn c_chase_reference(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
) -> Result<CChaseResult> {
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

    let sopts = opts.search_options();

    // Step 1: normalize the source w.r.t. the s-t tgd bodies.
    let tgd_bodies = mapping.tgd_bodies();
    let nsource = if opts.naive_normalization {
        naive_normalize(ic)
    } else {
        normalize_with(ic, &tgd_bodies, sopts)?
    };
    stats.source_facts_normalized = nsource.total_len();
    log(
        opts,
        &mut trace,
        format!(
            "normalized source w.r.t. Σst: {} → {} facts",
            stats.source_facts_in, stats.source_facts_normalized
        ),
    );

    // Step 2: s-t tgd c-chase steps.
    let mut target = TemporalInstance::new(Arc::new(mapping.target().clone()));
    let mut nulls = NullGen::new();
    for tgd in mapping.st_tgds() {
        let mut homs: Vec<(Vec<(Var, Value)>, Interval)> = Vec::new();
        nsource.find_matches_with(&tgd.body, TemporalMode::Shared, &[], None, sopts, |m| {
            homs.push((
                m.bindings(),
                m.shared_interval().expect("temporal store binds t"),
            ));
            true
        })?;
        let existentials = tgd.existential_vars();
        for (h, iv) in homs {
            if target.exists_match_with(&tgd.head, TemporalMode::Shared, &h, Some(iv), sopts)? {
                continue;
            }
            let mut env = h;
            for v in &existentials {
                let n = nulls.fresh();
                env.push((*v, Value::Null(n)));
            }
            for atom in &tgd.head {
                let rel = mapping
                    .target()
                    .rel_id(atom.relation)
                    .expect("validated head atom");
                target.insert(rel, instantiate(atom, &env).into(), iv);
            }
            stats.tgd_steps += 1;
            log(opts, &mut trace, narrate_tgd_step(tgd, &env, iv));
        }
    }
    stats.nulls_created = nulls.peek();
    stats.target_facts_after_tgd = target.total_len();

    // Step 3: normalize the target w.r.t. the egd bodies, keeping sibling
    // occurrences of shared annotated nulls aligned. Body normalization and
    // base alignment can each expose cuts for the other, so iterate to a
    // fixpoint; both only fragment at existing endpoints, so the fact count
    // is monotone and bounded by the full elementary refinement.
    let egd_bodies = mapping.egd_bodies();
    let refragment = |target: &TemporalInstance, opts: &ChaseOptions| -> Result<TemporalInstance> {
        if opts.naive_normalization {
            // Naïve normalization cuts every fact at every endpoint — the
            // output is aligned and normalized in one shot.
            return Ok(naive_normalize(target));
        }
        let sopts = opts.search_options();
        let mut current = if egd_bodies.is_empty() {
            target.clone()
        } else {
            normalize_with(target, &egd_bodies, sopts)?
        };
        loop {
            // Both passes only fragment, so an unchanged fact count means a
            // fixpoint; in the common case (no shared bases cut apart)
            // alignment is a no-op and `normalize` runs exactly once.
            let aligned = align_shared_nulls(&current);
            if aligned.total_len() == current.total_len() {
                return Ok(aligned);
            }
            current = if egd_bodies.is_empty() {
                aligned
            } else {
                let renormalized = normalize_with(&aligned, &egd_bodies, sopts)?;
                if renormalized.total_len() == aligned.total_len() {
                    return Ok(renormalized);
                }
                renormalized
            };
        }
    };
    if !egd_bodies.is_empty() || !target.nulls().is_empty() {
        target = refragment(&target, opts)?;
    }
    stats.target_facts_normalized = target.total_len();
    log(
        opts,
        &mut trace,
        format!(
            "normalized target w.r.t. Σeg: {} → {} facts",
            stats.target_facts_after_tgd, stats.target_facts_normalized
        ),
    );

    // Step 4: egd c-chase steps to fixpoint. Every round re-enumerates
    // every match of every egd body over the whole target.
    loop {
        let mut uf = AnnotatedUnionFind::new();
        let mut merges = 0usize;
        let mut conflict: Option<(String, UfKey, UfKey, Interval)> = None;
        for egd in mapping.egds() {
            target.find_matches_with(&egd.body, TemporalMode::Shared, &[], None, sopts, |m| {
                let iv = m.shared_interval().expect("temporal store binds t");
                let a = m.value(egd.lhs).expect("egd lhs in body");
                let b = m.value(egd.rhs).expect("egd rhs in body");
                if a == b {
                    return true;
                }
                let key = |v: Value| match v {
                    Value::Const(c) => UfKey::Const(c),
                    Value::Null(n) => UfKey::Null(n, iv),
                };
                match uf.union(key(a), key(b)) {
                    Ok(()) => {
                        merges += 1;
                        true
                    }
                    Err((c1, c2)) => {
                        conflict = Some((
                            egd.name.clone().unwrap_or_else(|| egd.to_string()),
                            c1,
                            c2,
                            iv,
                        ));
                        false
                    }
                }
            })?;
            if conflict.is_some() {
                break;
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
        log(
            opts,
            &mut trace,
            format!("egd round {}: {} identifications", stats.egd_rounds, merges),
        );
        let next = target.map_values(|v, fact_iv| uf.resolve(v, fact_iv));
        target = if opts.renormalize_between_egd_rounds {
            // Rewriting can merge bases (new sharing) and create new data
            // joins — restore both invariants.
            refragment(&next, opts)?
        } else {
            // Even in paper-faithful mode the annotated-null bookkeeping
            // must stay coherent: keep sibling occurrences aligned.
            align_shared_nulls(&next)
        };
    }

    if opts.coalesce_result {
        target = target.coalesced();
    }
    stats.target_facts_out = target.total_len();
    Ok(CChaseResult {
        target,
        normalized_source: nsource,
        stats,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::semantics;
    use tdx_logic::RelId;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};
    use tdx_storage::row;

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

    /// Figure 4.
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
    fn figure9_result() {
        // c-chase(Figure 4) = Figure 9 (up to null base names).
        let mapping = paper_mapping();
        let result = c_chase(&figure4(&mapping), &mapping).unwrap();
        let jc = &result.target;
        let emp = RelId(0);
        assert_eq!(jc.total_len(), 5);
        // Constant rows exactly as in Figure 9.
        assert!(jc.contains(
            emp,
            &row([Value::str("Ada"), Value::str("IBM"), Value::str("18k")]),
            iv(2013, 2014)
        ));
        assert!(jc.contains(
            emp,
            &row([Value::str("Ada"), Value::str("Google"), Value::str("18k")]),
            Interval::from(2014)
        ));
        assert!(jc.contains(
            emp,
            &row([Value::str("Bob"), Value::str("IBM"), Value::str("13k")]),
            iv(2015, 2018)
        ));
        // Null rows: Ada's unknown salary on [2012,2013), Bob's on [2013,2015).
        let nulls: Vec<(&tdx_storage::TemporalFact, NullId)> = jc
            .facts(emp)
            .iter()
            .filter_map(|f| f.data[2].as_null().map(|n| (f, n)))
            .collect();
        assert_eq!(nulls.len(), 2);
        let ada = nulls
            .iter()
            .find(|(f, _)| f.data[0] == Value::str("Ada"))
            .expect("Ada null fact");
        assert_eq!(ada.0.interval, iv(2012, 2013));
        let bob = nulls
            .iter()
            .find(|(f, _)| f.data[0] == Value::str("Bob"))
            .expect("Bob null fact");
        assert_eq!(bob.0.interval, iv(2013, 2015));
        assert_ne!(ada.1, bob.1);
    }

    #[test]
    fn paper_faithful_mode_gives_same_result_on_paper_example() {
        let mapping = paper_mapping();
        let a = c_chase_with(&figure4(&mapping), &mapping, &ChaseOptions::default()).unwrap();
        let b = c_chase_with(
            &figure4(&mapping),
            &mapping,
            &ChaseOptions::paper_faithful(),
        )
        .unwrap();
        assert_eq!(a.target, b.target);
    }

    #[test]
    fn naive_normalization_gives_equivalent_semantics() {
        let mapping = paper_mapping();
        let fast = c_chase(&figure4(&mapping), &mapping).unwrap();
        let naive = c_chase_with(
            &figure4(&mapping),
            &mapping,
            &ChaseOptions {
                naive_normalization: true,
                ..ChaseOptions::default()
            },
        )
        .unwrap();
        // More fragments, same semantics up to homomorphic equivalence.
        assert!(crate::hom::hom_equivalent(
            &semantics(&fast.target),
            &semantics(&naive.target)
        ));
    }

    #[test]
    fn stats_are_recorded() {
        let mapping = paper_mapping();
        let result = c_chase(&figure4(&mapping), &mapping).unwrap();
        assert_eq!(result.stats.source_facts_in, 5);
        assert_eq!(result.stats.source_facts_normalized, 9); // Figure 5
        assert_eq!(result.stats.tgd_steps, 8); // 5 σ1 steps + 3 σ2 steps
        assert_eq!(result.stats.target_facts_after_tgd, 8);
        assert!(result.stats.egd_rounds >= 1);
        assert_eq!(result.stats.target_facts_out, 5);
        assert_eq!(result.stats.nulls_created, 5);
    }

    #[test]
    fn trace_is_narrated_when_requested() {
        let mapping = paper_mapping();
        let result = c_chase_with(
            &figure4(&mapping),
            &mapping,
            &ChaseOptions {
                record_trace: true,
                ..ChaseOptions::default()
            },
        )
        .unwrap();
        assert!(result.trace.iter().any(|l| l.contains("normalized source")));
        assert!(result.trace.iter().any(|l| l.contains("tgd step")));
        assert!(result.trace.iter().any(|l| l.contains("egd round")));
    }

    #[test]
    fn failure_on_conflicting_sources() {
        // Two different constant salaries for Ada at overlapping times.
        let mapping = paper_mapping();
        let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "18k"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "20k"], iv(5, 15));
        let err = c_chase(&ic, &mapping).unwrap_err();
        match err {
            TdxError::ChaseFailure {
                dependency,
                interval,
                ..
            } => {
                assert_eq!(dependency, "fd");
                // The clash happens on the overlap [5,10).
                assert_eq!(interval, Some(iv(5, 10)));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn no_failure_when_conflict_does_not_overlap() {
        // Same data as above but disjoint intervals: Ada simply got a raise.
        let mapping = paper_mapping();
        let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(0, 15));
        ic.insert_strs("S", &["Ada", "18k"], iv(0, 5));
        ic.insert_strs("S", &["Ada", "20k"], iv(5, 15));
        let result = c_chase(&ic, &mapping).unwrap();
        let sem = semantics(&result.target);
        assert_eq!(sem.snapshot_at(3).render(), "{Emp(Ada, IBM, 18k)}");
        assert_eq!(sem.snapshot_at(7).render(), "{Emp(Ada, IBM, 20k)}");
    }

    #[test]
    fn coalesce_result_option() {
        let mapping = paper_mapping();
        let plain = c_chase(&figure4(&mapping), &mapping).unwrap();
        let coalesced = c_chase_with(
            &figure4(&mapping),
            &mapping,
            &ChaseOptions {
                coalesce_result: true,
                ..ChaseOptions::default()
            },
        )
        .unwrap();
        assert!(coalesced.target.is_coalesced());
        assert!(plain.target.eq_coalesced(&coalesced.target));
    }

    #[test]
    fn empty_source() {
        let mapping = paper_mapping();
        let ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        let result = c_chase(&ic, &mapping).unwrap();
        assert!(result.target.is_empty());
        assert_eq!(result.stats.tgd_steps, 0);
    }
}
