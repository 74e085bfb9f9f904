//! Incremental-exchange correctness: after every batch, the session's
//! materialized target must agree with the paper's abstract chase of the
//! accumulated source — a solution hom-equivalent to it, or failing with it
//! (Theorem 19, Corollary 20). That is the oracle the whole incremental
//! design is argued against (see `docs/incremental.md`); no engine, and so
//! not the session itself, is the reference.

use proptest::prelude::*;
use tdx::core::check_against_abstract_chase;
use tdx::workload::{
    employment_stream, nested_stream, random_stream, sparse_stream, BatchOrder, ClusteredConfig,
    DeltaStream, EmploymentConfig, RandomConfig, StreamConfig,
};
use tdx::{ChaseOptions, DeltaBatch, IncrementalExchange};

/// Replays a stream through a session, checking the oracle after every
/// batch. Returns `None` when the scenario's union has no solution (the
/// session and the abstract chase must then *both* fail).
fn replay_checked(stream: &DeltaStream, opts: &ChaseOptions) -> Option<IncrementalExchange> {
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), opts.clone()).unwrap();
    let mut parts: Vec<&tdx::TemporalInstance> = vec![&stream.base];
    parts.extend(stream.batches.iter());
    for (i, part) in parts.into_iter().enumerate() {
        let accumulated = session.source().clone_with(part);
        let applied = session.apply(&DeltaBatch::from_instance(part));
        let target = session.target();
        let outcome = applied.as_ref().map(|_| &target);
        if let Err(e) = check_against_abstract_chase(&accumulated, &stream.mapping, outcome) {
            panic!("batch {i}: the session disagrees with the abstract chase: {e}");
        }
        if applied.is_err() {
            // The batch rolled back; the session keeps serving the
            // pre-batch fixpoint, so the stream cannot be continued —
            // report the scenario as failing.
            return None;
        }
    }
    Some(session)
}

/// `TemporalInstance` helper: the union of `self` and another instance.
trait CloneWith {
    fn clone_with(&self, other: &tdx::TemporalInstance) -> tdx::TemporalInstance;
}

impl CloneWith for tdx::TemporalInstance {
    fn clone_with(&self, other: &tdx::TemporalInstance) -> tdx::TemporalInstance {
        let mut out = self.clone();
        for (rel, fact) in other.iter_all() {
            out.insert(rel, std::sync::Arc::clone(&fact.data), fact.interval);
        }
        out
    }
}

#[test]
fn employment_stream_matches_from_scratch_per_batch() {
    for (persons, coverage, order) in [
        (20usize, 1.0, BatchOrder::Uniform),
        (30, 0.6, BatchOrder::Uniform),
        (25, 0.8, BatchOrder::TailLocal),
    ] {
        let stream = employment_stream(
            &EmploymentConfig {
                persons,
                horizon: 30,
                salary_coverage: coverage,
                seed: persons as u64,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 4,
                batch_fraction: 0.05,
                order,
                ..StreamConfig::default()
            },
        );
        let session = replay_checked(&stream, &ChaseOptions::default())
            .expect("conflict-free employment stream");
        assert_eq!(session.stats().batches, 5); // base + 4 batches
        assert_eq!(session.stats().full_rechases, 0);
    }
}

#[test]
fn nested_and_sparse_streams_match_from_scratch() {
    let nested = nested_stream(
        12,
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.1,
            ..StreamConfig::default()
        },
    );
    replay_checked(&nested, &ChaseOptions::default()).expect("nested stream is consistent");
    let sparse = sparse_stream(
        &ClusteredConfig::default(),
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.1,
            order: BatchOrder::TailLocal,
            ..StreamConfig::default()
        },
    );
    replay_checked(&sparse, &ChaseOptions::default()).expect("sparse stream is consistent");
}

#[test]
fn incremental_honors_the_thread_matrix_options() {
    // The same configurations CI varies via TDX_CHASE_THREADS: the session
    // resolves threads through the same knob as the partitioned engine.
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 20,
            horizon: 30,
            seed: 11,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.05,
            ..StreamConfig::default()
        },
    );
    for opts in [
        ChaseOptions::partitioned_parallel(0), // TDX_CHASE_THREADS / auto
        ChaseOptions::partitioned_parallel(1),
        ChaseOptions::partitioned_parallel(4),
        ChaseOptions::paper_faithful(),
    ] {
        replay_checked(&stream, &opts).expect("consistent stream");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random workloads and random batch splits, replaying all batches
    /// incrementally is hom-equivalent to one from-scratch chase over the
    /// union — checked after *every* batch by the replay harness.
    #[test]
    fn random_workloads_and_splits_agree(
        seed in 0u64..2000,
        batches in 1usize..5,
        pct in 1usize..20,
    ) {
        let stream = random_stream(
            &RandomConfig {
                seed,
                facts: 24,
                horizon: 16,
                ..RandomConfig::default()
            },
            &StreamConfig {
                batches,
                batch_fraction: pct as f64 / 100.0,
                seed: seed ^ 0xbead,
                ..StreamConfig::default()
            },
        );
        // Failing scenarios are covered too: replay_checked asserts that
        // the incremental path fails exactly when the abstract chase fails.
        let _ = replay_checked(&stream, &ChaseOptions::default());
    }

    /// Employment with salary gaps: nulls survive batches, egds merge them
    /// later, and the session stays equivalent throughout.
    #[test]
    fn sparse_salary_streams_agree(seed in 0u64..2000) {
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 8,
                horizon: 20,
                salary_coverage: 0.5,
                seed,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 3,
                batch_fraction: 0.1,
                seed,
                ..StreamConfig::default()
            },
        );
        prop_assert!(replay_checked(&stream, &ChaseOptions::default()).is_some());
    }
}

/// A batch that re-fragments a settled source fact must not re-fire an
/// existential tgd on fragments its earlier step already covers. With
/// `E(Ada, IBM) @ [0, 10)` settled, the batch `S(Ada, 18k) @ [4, 10)`
/// cuts the E fact at 4: st2 fires on `[4, 10)`, and st1's restricted
/// check on `[0, 4)` and `[4, 10)` is answered by its `[0, 10)` memo
/// entry, which covers both. So the batch fires one step and the session
/// mints no second null.
#[test]
fn covering_memo_keeps_refragmented_steps_from_refiring() {
    let text = std::fs::read_to_string("examples/data/paper.map").unwrap();
    let mapping = tdx::parse_mapping(&text).unwrap();
    let exchange = tdx::core::exchange::DataExchange::new(mapping.clone());
    let load = |facts: &str| exchange.load_source(facts).unwrap();
    let base = load("E(Ada, IBM) @ [0, 10)");
    let batch = load("S(Ada, 18k) @ [4, 10)");
    for opts in [ChaseOptions::default(), ChaseOptions::distributed(1)] {
        let mut session = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
        let mut accumulated = base.clone();
        session.apply(&DeltaBatch::from_instance(&base)).unwrap();
        check_against_abstract_chase(&accumulated, &mapping, Ok(&session.target())).unwrap();
        let stats = session.apply(&DeltaBatch::from_instance(&batch)).unwrap();
        accumulated = accumulated.clone_with(&batch);
        check_against_abstract_chase(&accumulated, &mapping, Ok(&session.target())).unwrap();
        assert_eq!(stats.tgd_steps, 1, "only st2 fires: {stats:?}");
        assert_eq!(session.stats().nulls_created, 1, "no second null");
    }
}
