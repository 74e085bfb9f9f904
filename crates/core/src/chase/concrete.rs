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
//! No engine runs these steps literally over the whole instance. The local
//! engines chase the source as one batch of an
//! [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
//! session, and the distributed engine runs the same steps over partition
//! servers. Each result is a solution hom-equivalent to the abstract
//! chase, and Theorem 19 and Corollary 20 ask no more; the tests check
//! every engine against the abstract chase itself
//! ([`check_against_abstract_chase`](crate::verify::check_against_abstract_chase)).
//! This module holds the options, the result type and the pieces the
//! engines share.

use crate::error::Result;
use tdx_logic::{Atom, SchemaMapping, Term, Tgd, Var};
use tdx_storage::fxhash::FxHashMap;
use tdx_storage::{NullId, TemporalInstance, Value};
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
    /// Hom-equivalent to the abstract chase and byte-identical across
    /// server counts and transports. See
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
    /// The engine (the one-batch session kernel by default).
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
    /// Egd rounds that ran delta-restricted (the first round is always a
    /// full enumeration).
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

    /// The annotated nulls this union-find maps elsewhere: exactly the
    /// `(base, fact interval)` pairs [`resolve`](Self::resolve) changes.
    pub(crate) fn merged_nulls(&self) -> Vec<(NullId, Interval)> {
        self.parent
            .keys()
            .filter_map(|k| match k {
                UfKey::Null(n, iv) => Some((*n, *iv)),
                UfKey::Const(_) => None,
            })
            .collect()
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
/// partition-server batch loop.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TdxError;
    use crate::semantics::semantics;
    use std::sync::Arc;
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

        // The existential-free σ2 fires first (3 steps), so σ1 fires only
        // where no salary witnesses it (2 steps, 2 nulls) and the egd has
        // nothing to merge.
        assert_eq!(result.stats.tgd_steps, 5);
        assert_eq!(result.stats.target_facts_after_tgd, 5);
        assert_eq!(result.stats.egd_rounds, 0);
        assert_eq!(result.stats.target_facts_out, 5);
        assert_eq!(result.stats.nulls_created, 2);
    }

    #[test]
    fn trace_is_narrated_when_requested() {
        // The egd equates σ1's null with a constant of another relation,
        // so the chase runs an egd round whatever the tgd fire order.
        let mapping = SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary). Sal(name, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap().named("st1"),
                parse_tgd("S(n,s) -> Sal(n,s)").unwrap().named("st2"),
            ],
            vec![parse_egd("Emp(n,c,s) & Sal(n,s2) -> s = s2")
                .unwrap()
                .named("fd")],
        )
        .unwrap();
        let mut source = TemporalInstance::new(Arc::new(mapping.source().clone()));
        source.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        source.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        let result = c_chase_with(
            &source,
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
