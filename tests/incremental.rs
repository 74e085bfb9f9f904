//! Incremental-exchange correctness: after every batch, the session's
//! materialized target must be hom-equivalent to a from-scratch c-chase of
//! the accumulated source — the oracle the whole incremental design is
//! argued against (see `docs/incremental.md`). The from-scratch chase runs
//! the Definition-16 reference (`ChaseEngine::LegacyScan`): the default
//! engine is itself a one-batch session, so checking against it would
//! compare the session with itself.

use proptest::prelude::*;
use tdx::core::ChaseEngine;
use tdx::core::{hom_equivalent, is_solution_concrete, semantics};
use tdx::workload::{
    employment_stream, nested_stream, random_stream, sparse_stream, BatchOrder, ClusteredConfig,
    DeltaStream, EmploymentConfig, RandomConfig, StreamConfig,
};
use tdx::{c_chase_with, ChaseOptions, DeltaBatch, IncrementalExchange, TdxError};

/// Replays a stream through a session, checking the oracle after every
/// batch. Returns `None` when the scenario's union has no solution (the
/// incremental session and the from-scratch chase must then *both* fail).
fn replay_checked(stream: &DeltaStream, opts: &ChaseOptions) -> Option<IncrementalExchange> {
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), opts.clone()).unwrap();
    let reference = ChaseOptions {
        engine: ChaseEngine::LegacyScan,
        ..opts.clone()
    };
    let mut parts: Vec<&tdx::TemporalInstance> = vec![&stream.base];
    parts.extend(stream.batches.iter());
    for (i, part) in parts.into_iter().enumerate() {
        let scratch_source = session.source().clone_with(part);
        let scratch = c_chase_with(&scratch_source, &stream.mapping, &reference);
        match session.apply(&DeltaBatch::from_instance(part)) {
            Ok(_) => {
                let scratch = scratch.unwrap_or_else(|e| {
                    panic!("batch {i}: incremental succeeded, from-scratch failed: {e}")
                });
                let inc = session.target();
                assert!(
                    hom_equivalent(&semantics(&scratch.target), &semantics(&inc)),
                    "batch {i}: incremental target diverged from from-scratch chase"
                );
                assert!(
                    is_solution_concrete(&session.source(), &inc, &stream.mapping).unwrap(),
                    "batch {i}: incremental target is not a solution"
                );
            }
            Err(TdxError::ChaseFailure { .. }) => {
                assert!(
                    matches!(scratch, Err(TdxError::ChaseFailure { .. })),
                    "batch {i}: incremental failed but from-scratch succeeded"
                );
                // The batch rolled back; the session keeps serving the
                // pre-batch fixpoint, so the stream cannot be continued —
                // report the scenario as failing.
                return None;
            }
            Err(other) => panic!("batch {i}: unexpected error {other:?}"),
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
        // the incremental path fails exactly when from-scratch fails.
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
