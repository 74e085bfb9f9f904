//! # tdx-core — Temporal Data Exchange
//!
//! A from-scratch implementation of *Temporal Data Exchange* (Golshanara &
//! Chomicki): the chase for temporal databases under non-temporal schema
//! mappings, with both the **abstract view** (sequences of snapshots, the
//! semantics) and the **concrete view** (interval-timestamped facts, the
//! implementation).
//!
//! The pieces, by paper section:
//!
//! | Paper | Module |
//! |-------|--------|
//! | §2 abstract/concrete views, `⟦·⟧` | [`abstract_view`], [`semantics`] |
//! | §3 abstract chase, homomorphisms, universal solutions | [`chase::abstract_chase`], [`hom`] |
//! | §4.1 interval-annotated nulls | `tdx_storage::NullId` + fact intervals |
//! | §4.2 normalization (naïve + Algorithm 1) | [`normalize`] |
//! | §4.3 the c-chase | [`chase::concrete`] (options, results), run by [`chase::incremental`] and [`chase::cluster`](chase) |
//! | §5 naïve evaluation, certain answers | [`query`] |
//! | Prop. 4, Thm. 19, Cor. 20, Thm. 21, Cor. 22 | [`verify`] (the engines' oracle), [`query::certain`] |
//!
//! ## Engine architecture (beyond the paper)
//!
//! The storage substrate is `tdx_storage::FactStore`: per relation it keeps
//! eager per-column value indexes, an eager exact-interval index, an
//! interval-endpoint index (`tdx_temporal::IntervalIndex`, overlap probes
//! and incremental endpoint enumeration), and a **generation log** exposing
//! "facts added since round *k*".
//!
//! The ground truth is the paper, not an engine: every engine is checked
//! against the abstract chase of `⟦I_c⟧`
//! ([`verify::check_against_abstract_chase`]) — results that are
//! solutions (Theorem 19(1)) hom-equivalent to it (Corollary 20), failures
//! on the same sources (Theorem 19(2)) and equal certain answers
//! (Theorem 21). The abstract chase runs the classical
//! snapshot chase per epoch and shares no kernel with the engines; the
//! homomorphism search behind it ([`hom`]) splits the facts into blocks
//! connected by shared nulls and searches each with an explicit stack.
//!
//! The default [`ChaseEngine::IndexedSemiNaive`] and
//! [`ChaseEngine::PartitionedParallel`] chase the source as one batch of an
//! [`IncrementalExchange`] session (below): tgd and egd steps join per
//! dirty interval over per-relation fact lists, normalization discovery
//! runs as sweep-based overlap joins restricted to changed facts on scoped
//! worker threads, and egd rounds are **semi-naive** — after the first
//! round, egd bodies join only against the previous round's changes (see
//! `docs/parallelism.md`). `tests/equivalence.rs` checks every engine
//! against the abstract chase, and `crates/bench` measures them (see
//! `BENCH_chase.json`; CI gates regressions via `bench_check`).
//!
//! [`ChaseEngine::Distributed`] relocates that match work onto
//! **partition servers**: each owns a contiguous block of timeline
//! partitions and speaks a serialized
//! `Hello`/`ApplyDelta`/`RunTgdRound`/`RunLocalEgdRound`/`Snapshot`/`Ping`
//! protocol (`tdx_storage::codec` byte frames) over a pluggable
//! [`Transport`] — in-process channel actors or real `tdx
//! serve-partition` child processes on loopback TCP — while the
//! coordinator keeps the global union-find and normalization.
//! `ApplyDelta` ships delta-only sync programs against per-server
//! retained-image watermarks, and a heartbeat + bounded-retry path
//! respawns dead servers and replays their images (see
//! `docs/distributed.md` and `docs/transport.md`).
//!
//! [`IncrementalExchange`] is a *stateful* exchange session: the chased
//! target stays materialized between calls and each [`DeltaBatch`] of
//! source changes re-runs only the tgd/egd work at dirty intervals plus
//! the boundary-reconciliation set — ~8× over a from-scratch re-chase for
//! small batches (see
//! `docs/incremental.md` and `c_chase/incremental/*` in
//! `BENCH_chase.json`).
//!
//! | Layer | Role |
//! |-------|------|
//! | `tdx_temporal::index` | interval-endpoint index: overlap/exact probes, endpoints |
//! | `tdx_temporal::partition` | breakpoints, coarse timeline partitions |
//! | `tdx_storage::fact_store` | indexed fact storage + generation/delta log |
//! | `tdx_storage::sharded` | timeline-partitioned shards, owner/delta/replica scopes |
//! | `tdx_storage::matcher` | join engine: index candidates, per-atom delta bounds |
//! | [`chase::concrete`] | engine dispatch, options, results, shared step pieces |
//! | [`chase::incremental`] | the session: one-batch chase for the local engines, delta batches |
//! | [`chase::partitioned`](chase) | list kernels: sweep discovery, re-fragmentation, worker fan-out |
//! | [`chase::cluster`](chase) | partition-server protocol, transports, coordinator kernel |
//! | [`normalize`], [`query`] | overlap-index group discovery, engine-threaded eval |
//! | [`chase::abstract_chase`], [`hom`], [`verify`] | the oracle: per-epoch snapshot chase, blocked hom search |
//!
//! ## Quick start
//!
//! ```
//! use tdx_core::exchange::DataExchange;
//! use tdx_logic::{parse_mapping, parse_query};
//! use tdx_temporal::Interval;
//!
//! let engine = DataExchange::new(parse_mapping(
//!     "source { E(name, company)  S(name, salary) }
//!      target { Emp(name, company, salary) }
//!      tgd st1: E(n,c) -> exists s . Emp(n,c,s)
//!      tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)
//!      egd fd: Emp(n,c,s) & Emp(n,c,s2) -> s = s2",
//! ).unwrap());
//!
//! let mut source = engine.new_source();
//! source.insert_strs("E", &["Ada", "IBM"], Interval::new(2012, 2014));
//! source.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
//!
//! let solution = engine.exchange(&source).unwrap();
//! let q = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
//! let answers = engine.certain_answers(&source, &q).unwrap();
//! assert_eq!(answers.at(2013).len(), 1);
//! assert!(answers.at(2012).is_empty()); // salary unknown in 2012
//! # let _ = solution;
//! ```

#![warn(missing_docs)]

pub mod abstract_view;
pub mod chase;
pub mod error;
pub mod exchange;
pub mod extension;
pub mod hom;
pub mod normalize;
pub mod query;
pub mod semantics;
pub mod verify;

pub use abstract_view::{
    arow, ARow, ASnapshot, AValue, AbstractInstance, AbstractInstanceBuilder, Epoch,
};
pub use chase::abstract_chase::abstract_chase;
pub use chase::cluster::{
    DistributedCluster, Message, Response, StoreKind, TrafficStats, Transport, TransportKind,
    TransportSpawner,
};
pub use chase::concrete::{
    c_chase, c_chase_with, CChaseResult, ChaseEngine, ChaseOptions, ChaseStats,
};
pub use chase::durable::DurableExchange;
pub use chase::incremental::{BatchStats, DeltaBatch, IncrementalExchange, SessionStats};
pub use chase::snapshot::snapshot_chase;
pub use chase::{server_count, worker_threads};
pub use error::{Result, TdxError};
pub use exchange::DataExchange;
pub use extension::cores::{concrete_core, snapshot_core};
pub use extension::temporal_chase::{satisfies_temporal_tgd, temporal_chase, TemporalSetting};
pub use hom::{abstract_hom, hom_equivalent, hom_equivalent_snapshots, snapshot_hom};
pub use normalize::{
    candidate_groups, candidate_groups_with, has_empty_intersection_property, naive_normalize,
    normalize, normalize_with, FactRef,
};
pub use query::cache::{CacheStats, DirtySet, QueryService, QuerySnapshot, TargetVersion};
pub use query::certain::{
    certain_answers_abstract, certain_answers_concrete, naive_eval_abstract, theorem21_holds,
    EpochAnswers,
};
pub use query::compiled::{compiled_eval, CompiledQuery};
pub use query::concrete::{
    naive_eval_concrete, naive_eval_concrete_with, NaiveEvaluator, TemporalAnswers,
};
pub use query::naive::{eval_cq_raw, naive_eval_snapshot};
pub use query::plan::{plan_union, query_fingerprint, UnionPlan};
pub use semantics::{concretize, semantics};
pub use verify::{
    alignment_holds, check_against_abstract_chase, is_solution_abstract, is_solution_concrete,
    is_universal_among, satisfies_egd, satisfies_tgd,
};
