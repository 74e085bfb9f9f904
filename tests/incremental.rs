//! Incremental-exchange correctness: after every batch, the session's
//! materialized target must agree with the paper's abstract chase of the
//! accumulated source — a solution hom-equivalent to it, or failing with it
//! (Theorem 19, Corollary 20). That is the oracle the whole incremental
//! design is argued against (see `docs/incremental.md`); no engine, and so
//! not the session itself, is the reference.

use proptest::prelude::*;
use tdx::core::{check_against_abstract_chase, DurableExchange, TdxError};
use tdx::logic::{parse_schema, parse_tgd, RelId};
use tdx::storage::row;
use tdx::workload::{
    employment_stream, nested_stream, random_stream, sparse_stream, with_narrowing_refines,
    BatchOrder, ClusteredConfig, DeltaStream, EmploymentConfig, RandomConfig, StreamConfig,
    StreamStep,
};
use tdx::{ChaseOptions, DeltaBatch, IncrementalExchange, Interval, SchemaMapping, Value};

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

/// A stream commit as a session batch.
fn to_batch(step: &StreamStep) -> DeltaBatch {
    match step {
        StreamStep::Insert(inst) => DeltaBatch::from_instance(inst),
        StreamStep::Refine(rel, data, iv) => {
            let mut b = DeltaBatch::new();
            b.refine(*rel, data.clone(), *iv);
            b
        }
    }
}

/// The source a session must hold after `step` commits on `source`.
fn committed(source: &tdx::TemporalInstance, step: &StreamStep) -> tdx::TemporalInstance {
    match step {
        StreamStep::Insert(inst) => source.clone_with(inst),
        StreamStep::Refine(rel, data, iv) => {
            let mut out = tdx::TemporalInstance::new(source.schema_arc());
            for (r, f) in source.iter_all() {
                if r != *rel || f.data != *data {
                    out.insert(r, std::sync::Arc::clone(&f.data), f.interval);
                }
            }
            out.insert(*rel, data.clone(), *iv);
            out
        }
    }
}

/// Replays `steps` on top of `stream.base`, checking the oracle after
/// every commit; stops at the first commit the oracle also fails on.
/// Returns how many refines re-chased a component and how many fell
/// back to a full re-chase.
fn replay_with_refines(
    stream: &DeltaStream,
    steps: &[StreamStep],
    opts: &ChaseOptions,
) -> (usize, usize) {
    let mapping = &stream.mapping;
    let mut session = IncrementalExchange::with_options(mapping.clone(), opts.clone()).unwrap();
    let base = StreamStep::Insert(stream.base.clone());
    let (mut component, mut full) = (0, 0);
    for (i, step) in std::iter::once(&base).chain(steps).enumerate() {
        let before = session.source();
        let expected = committed(&before, step);
        let applied = session.apply(&to_batch(step));
        let target = session.target();
        if let Err(e) =
            check_against_abstract_chase(&expected, mapping, applied.as_ref().map(|_| &target))
        {
            panic!("commit {i}: the session disagrees with the abstract chase: {e}");
        }
        match applied {
            Ok(stats) if matches!(step, StreamStep::Refine(..)) => {
                assert_eq!(session.source(), expected, "commit {i}: refined source");
                if stats.full_rechase {
                    full += 1;
                } else {
                    component += 1;
                }
            }
            Ok(_) => {}
            Err(_) => {
                assert_eq!(session.source(), before, "commit {i}: rolled back");
                break;
            }
        }
    }
    (component, full)
}

/// Random mappings with narrowing refines interleaved into their streams,
/// on every local engine and on partition servers: after every commit the
/// session agrees with the abstract chase of the refined source. Random
/// mappings join every atom on one variable, so most refines re-chase a
/// component; a component that is the whole state falls back.
#[test]
fn random_streams_with_narrowing_refines_agree() {
    let (mut component, mut full) = (0, 0);
    for seed in 0..12u64 {
        let stream = random_stream(
            &RandomConfig {
                seed,
                facts: 30,
                horizon: 16,
                domain: 10,
                p_unbounded: 0.3,
                ..RandomConfig::default()
            },
            &StreamConfig {
                batches: 6,
                batch_fraction: 0.06,
                seed: seed ^ 0xbead,
                ..StreamConfig::default()
            },
        );
        let steps = with_narrowing_refines(&stream, RelId(0), 2, seed);
        for opts in [
            ChaseOptions::default(),
            ChaseOptions::partitioned_parallel(2),
            ChaseOptions::distributed(2),
        ] {
            let (c, f) = replay_with_refines(&stream, &steps, &opts);
            component += c;
            full += f;
        }
    }
    assert!(
        component > full,
        "{component} component re-chases, {full} full"
    );
}

/// The employment stream the `ingest` benchmark replays, in small: every
/// refine re-chases one person.
#[test]
fn employment_stream_with_narrowing_refines_agrees() {
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 16,
            horizon: 30,
            salary_coverage: 0.7,
            p_unbounded: 0.8,
            seed: 21,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 12,
            batch_fraction: 0.02,
            order: BatchOrder::TailLocal,
            seed: 21,
        },
    );
    let e = stream.mapping.source().rel_id("E".into()).unwrap();
    let steps = with_narrowing_refines(&stream, e, 3, 21);
    for opts in [ChaseOptions::default(), ChaseOptions::distributed(2)] {
        let (component, full) = replay_with_refines(&stream, &steps, &opts);
        assert!(component >= 2, "the stream narrows jobs");
        assert_eq!(full, 0, "one person is never the whole state");
    }
}

fn paper_mapping() -> SchemaMapping {
    let text = std::fs::read_to_string("examples/data/paper.map").unwrap();
    tdx::parse_mapping(&text).unwrap()
}

fn rel(mapping: &SchemaMapping, name: &str) -> RelId {
    mapping.source().rel_id(name.into()).unwrap()
}

fn strs(vals: &[&str]) -> tdx::storage::Row {
    row(vals.iter().map(|v| Value::str(v)))
}

/// A mapping whose dependency relates facts with no value in common,
/// `R(x) → ∃y T(y)`, has no value links: a narrowing refine re-chases the
/// whole state, and stays correct.
#[test]
fn unlinked_mapping_narrows_by_full_rechase() {
    let mapping = SchemaMapping::new(
        parse_schema("R(x).").unwrap(),
        parse_schema("T(y).").unwrap(),
        vec![parse_tgd("R(x) -> exists y . T(y)").unwrap()],
        vec![],
    )
    .unwrap();
    let r = RelId(0);
    let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
    let mut b = DeltaBatch::new();
    b.insert(r, strs(&["a"]), Interval::new(0, 10));
    b.insert(r, strs(&["b"]), Interval::new(5, 20));
    s.apply(&b).unwrap();
    let mut b = DeltaBatch::new();
    b.refine(r, strs(&["b"]), Interval::new(5, 8));
    assert!(s.apply(&b).unwrap().full_rechase);
    assert_eq!(s.stats().full_rechases, 1);
    check_against_abstract_chase(&s.source(), &mapping, Ok(&s.target())).unwrap();
}

/// A refine whose component re-chase hits an egd conflict rolls the
/// session back to its pre-batch state byte for byte, on every engine,
/// and the session keeps working.
#[test]
fn conflicting_refine_rolls_back_byte_identically() {
    let mapping = paper_mapping();
    let (e, sal) = (rel(&mapping, "E"), rel(&mapping, "S"));
    for (k, opts) in [
        ChaseOptions::default(),
        ChaseOptions::partitioned_parallel(2),
        ChaseOptions::distributed(2),
    ]
    .into_iter()
    .enumerate()
    {
        let dir =
            std::env::temp_dir().join(format!("tdx-refine-rollback-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = DurableExchange::open(mapping.clone(), opts, &dir).unwrap();
        let mut b = DeltaBatch::new();
        b.insert(e, strs(&["Ada", "IBM"]), Interval::new(0, 10));
        b.insert(sal, strs(&["Ada", "18k"]), Interval::new(0, 10));
        b.insert(e, strs(&["Bob", "IBM"]), Interval::new(0, 10));
        s.apply(&b).unwrap();
        let before = s.state_bytes();
        // Narrow Ada's job and assert a second salary over what is left.
        let mut b = DeltaBatch::new();
        b.refine(e, strs(&["Ada", "IBM"]), Interval::new(0, 6));
        b.insert(sal, strs(&["Ada", "20k"]), Interval::new(4, 8));
        let err = s.apply(&b).unwrap_err();
        assert!(matches!(err, TdxError::ChaseFailure { .. }), "{err:?}");
        assert_eq!(s.state_bytes(), before, "rolled back byte for byte");
        assert_eq!(s.session().stats().full_rechases, 0);
        let mut b = DeltaBatch::new();
        b.insert(e, strs(&["Cy", "SAP"]), Interval::new(2, 8));
        s.apply(&b).unwrap();
        let session = s.session();
        check_against_abstract_chase(&session.source(), &mapping, Ok(&session.target())).unwrap();
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A refine and an insert for the same person in one batch: the insert
/// joins the re-chased component, and another person's facts stay.
#[test]
fn refine_and_insert_for_one_person_in_one_batch() {
    let mapping = paper_mapping();
    let (e, sal) = (rel(&mapping, "E"), rel(&mapping, "S"));
    for opts in [ChaseOptions::default(), ChaseOptions::distributed(2)] {
        let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
        let mut b = DeltaBatch::new();
        b.insert(e, strs(&["Ada", "IBM"]), Interval::from(0));
        b.insert(sal, strs(&["Ada", "18k"]), Interval::new(0, 4));
        b.insert(e, strs(&["Bob", "SAP"]), Interval::new(0, 9));
        s.apply(&b).unwrap();
        let bob = |s: &IncrementalExchange| {
            let target = s.target();
            let facts: Vec<String> = target
                .iter_all()
                .filter(|(_, f)| f.data[0] == Value::str("Bob"))
                .map(|(_, f)| format!("{:?}@{}", f.data, f.interval))
                .collect();
            facts
        };
        let bob_before = bob(&s);
        // Ada leaves IBM at 6, joins SAP at 6, and earns 20k at SAP.
        let mut b = DeltaBatch::new();
        b.refine(e, strs(&["Ada", "IBM"]), Interval::new(0, 6));
        b.insert(e, strs(&["Ada", "SAP"]), Interval::from(6));
        b.insert(sal, strs(&["Ada", "20k"]), Interval::new(6, 9));
        let stats = s.apply(&b).unwrap();
        assert!(!stats.full_rechase);
        let source = s.source();
        assert_eq!(source.total_len(), 5);
        assert!(source.contains(e, &strs(&["Ada", "IBM"]), Interval::new(0, 6)));
        check_against_abstract_chase(&source, &mapping, Ok(&s.target())).unwrap();
        let target = s.target();
        assert!(target.contains(RelId(0), &strs(&["Ada", "SAP", "20k"]), Interval::new(6, 9)));
        assert_eq!(bob(&s), bob_before, "Bob's facts, nulls included, stay");
    }
}
