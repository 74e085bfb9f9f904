//! Engine equivalence: every engine — the one-batch session behind
//! `indexed` and `partitioned` (at 1, 2 and 4 workers) and the distributed
//! partition-server chase — must agree with the paper's abstract chase of
//! `⟦I_c⟧` on the whole scenario suite: a hom-equivalent solution
//! (Corollary 20) with the same certain answers (Theorem 21), or a failure
//! on exactly the same inputs (Theorem 19(2)).

use tdx::core::TransportKind;
use tdx::core::{
    certain_answers_abstract, certain_answers_concrete, check_against_abstract_chase,
    hom_equivalent, naive_eval_concrete, semantics,
};
use tdx::workload::{
    clustered_instance, figure4_source, nested_mapping, paper_mapping, ClusteredConfig,
    EmploymentConfig, EmploymentWorkload, RandomConfig, RandomWorkload,
};
use tdx::{c_chase_with, parse_query, ChaseOptions, SchemaMapping, TemporalInstance, UnionQuery};

fn indexed() -> ChaseOptions {
    ChaseOptions::default()
}

/// Every engine configuration under test. The partitioned engine (the
/// session kernel with a pinned worker count) runs at three worker counts —
/// its task decomposition is thread-count independent, but the scopes and
/// merges must stay correct under real concurrency too — plus once with
/// `threads = 0`, which resolves through the `TDX_CHASE_THREADS`
/// environment variable: that is the configuration CI's thread matrix
/// actually varies. The distributed partition-server engine joins the same
/// way: explicit 1- and 3-server clusters plus `servers = 0`, which
/// resolves through `TDX_CHASE_SERVERS` — the knob CI's server matrix
/// varies — and whose transport resolves through `TDX_CHASE_TRANSPORT`,
/// the knob CI's transport matrix varies. One explicit TCP configuration
/// keeps the out-of-process carrier in every run even when the environment
/// selects channels.
fn all_engines() -> Vec<(&'static str, ChaseOptions)> {
    vec![
        ("indexed", indexed()),
        ("partitioned/1", ChaseOptions::partitioned_parallel(1)),
        ("partitioned/2", ChaseOptions::partitioned_parallel(2)),
        ("partitioned/4", ChaseOptions::partitioned_parallel(4)),
        ("partitioned/env", ChaseOptions::partitioned_parallel(0)),
        ("distributed/1", ChaseOptions::distributed(1)),
        ("distributed/3", ChaseOptions::distributed(3)),
        (
            "distributed/tcp/2",
            ChaseOptions::distributed(2).on_transport(TransportKind::Tcp),
        ),
        ("distributed/env", ChaseOptions::distributed(0)),
    ]
}

/// Runs every engine and checks it against the abstract chase: both fail,
/// or the engine's result is a solution that represents the same abstract
/// instance up to homomorphic equivalence. Null counts are not
/// compared: the *restricted* chase may pre-empt a different subset of
/// redundant steps, leaving possibly fewer nulls in the same universal
/// solution. A solution byte-identical to one already checked gets the
/// same verdict, so it is not checked twice. Returns each engine's
/// solution.
fn assert_engines_agree(
    label: &str,
    mapping: &SchemaMapping,
    source: &TemporalInstance,
) -> Vec<(&'static str, TemporalInstance)> {
    let mut solutions: Vec<(&str, TemporalInstance)> = Vec::new();
    for (name, opts) in all_engines() {
        let result = c_chase_with(source, mapping, &opts);
        if let Ok(r) = &result {
            if solutions.iter().any(|(_, seen)| *seen == r.target) {
                solutions.push((name, r.target.clone()));
                continue;
            }
        }
        if let Err(e) =
            check_against_abstract_chase(source, mapping, result.as_ref().map(|r| &r.target))
        {
            panic!("{label}: {name} disagrees with the abstract chase: {e}");
        }
        if let Ok(r) = result {
            solutions.push((name, r.target));
        }
    }
    solutions
}

/// Certain answers, naïvely evaluated on every engine's solution
/// (Corollary 22), must equal the abstract route's (Theorem 21; they
/// contain no nulls, so no renaming slack is allowed).
fn assert_same_certain_answers(
    label: &str,
    mapping: &SchemaMapping,
    source: &TemporalInstance,
    solutions: &[(&str, TemporalInstance)],
    queries: &[&str],
) {
    for q_text in queries {
        let q: UnionQuery = parse_query(q_text).unwrap().into();
        let reference = certain_answers_abstract(source, mapping, &q).unwrap();
        for (name, target) in solutions {
            assert_eq!(
                reference,
                naive_eval_concrete(target, &q).unwrap().epochs(),
                "{label}: certain answers differ for {q_text} on {name}"
            );
        }
    }
}

#[test]
fn paper_example_agrees() {
    let mapping = paper_mapping();
    let source = figure4_source(&mapping);
    let solutions = assert_engines_agree("figure4", &mapping, &source);
    assert_same_certain_answers(
        "figure4",
        &mapping,
        &source,
        &solutions,
        &[
            "Q(n, s) :- Emp(n, c, s)",
            "Q(n) :- Emp(n, c, s)",
            "Q(m) :- Emp(Ada, c, s) & Emp(m, c, s2)",
        ],
    );
}

#[test]
fn employment_workloads_agree() {
    for (persons, coverage, seed) in [
        (10usize, 1.0, 1u64),
        (25, 0.6, 2),
        (40, 0.8, 3),
        (100, 0.7, 4),
    ] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons,
            horizon: 30,
            salary_coverage: coverage,
            seed,
            ..EmploymentConfig::default()
        });
        let label = format!("employment/p{persons}s{seed}");
        let solutions = assert_engines_agree(&label, &w.mapping, &w.source);
        assert_same_certain_answers(
            &label,
            &w.mapping,
            &w.source,
            &solutions,
            &["Q(n, s) :- Emp(n, c, s)", "Q(n, c) :- Emp(n, c, s)"],
        );
    }
}

/// The `batch` benchmark's source at full size (620 persons, 12 companies,
/// horizon 60, 70% salary coverage): the default engine against the
/// abstract chase, on the test thread's default stack.
#[test]
fn batch_benchmark_source_agrees_on_the_default_stack() {
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 620,
        companies: 12,
        horizon: 60,
        salary_coverage: 0.7,
        seed: 1,
        ..EmploymentConfig::default()
    });
    let result = c_chase_with(&w.source, &w.mapping, &indexed());
    if let Err(e) =
        check_against_abstract_chase(&w.source, &w.mapping, result.as_ref().map(|r| &r.target))
    {
        panic!("batch/620: the default engine disagrees with the abstract chase: {e}");
    }
}

#[test]
fn conflicting_employment_fails_on_all_engines() {
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 12,
        horizon: 24,
        conflicts: 3,
        seed: 5,
        ..EmploymentConfig::default()
    });
    assert_engines_agree("employment/conflicts", &w.mapping, &w.source);
}

#[test]
fn adversarial_nested_agrees() {
    for n in [6usize, 12, 20] {
        let (mapping, source) = nested_mapping(n);
        assert_engines_agree(&format!("nested/{n}"), &mapping, &source);
    }
}

#[test]
fn sparse_clustered_normalization_agrees() {
    use tdx::core::normalize::{normalize, normalize_with};
    use tdx::storage::SearchOptions;
    // The clustered workload exercises Algorithm 1's overlap-group
    // discovery — exactly the path the interval-endpoint index accelerates.
    for clusters in [4usize, 10] {
        let (instance, conj) = clustered_instance(&ClusteredConfig {
            clusters,
            ..ClusteredConfig::default()
        });
        let refs = [conj.as_slice()];
        let fast = normalize(&instance, &refs).unwrap();
        let slow = normalize_with(&instance, &refs, SearchOptions { use_indexes: false }).unwrap();
        assert_eq!(fast, slow, "clusters = {clusters}");
    }
}

/// `normalize` (the session's sweep kernel, one pass over the whole
/// timeline) against `normalize_with` (the matcher reference, full scans)
/// on every shape the kernel distinguishes. tdxbench's normalized-fact
/// count comes from `normalize` itself, so this is the check that the
/// kernel is Algorithm 1.
#[test]
fn normalize_kernel_agrees_with_the_matcher_reference() {
    use tdx::core::normalize::{has_empty_intersection_property, normalize, normalize_with};
    use tdx::logic::{parse_tgd, Atom};
    use tdx::storage::SearchOptions;
    fn body(src: &str) -> Vec<Atom> {
        parse_tgd(&format!("{src} -> Sink()")).unwrap().body
    }
    fn agree(label: &str, ic: &TemporalInstance, conjs: &[&[Atom]]) -> TemporalInstance {
        let kernel = normalize(ic, conjs).unwrap();
        let reference = normalize_with(ic, conjs, SearchOptions { use_indexes: false }).unwrap();
        assert!(kernel == reference, "{label}: kernel ≠ matcher reference");
        assert!(
            has_empty_intersection_property(&kernel, conjs).unwrap(),
            "{label}: output is not normalized"
        );
        kernel
    }

    // The benchmark's shape: employment with salary gaps, tgd bodies.
    let config = |persons| EmploymentConfig {
        persons,
        companies: 12,
        horizon: 60,
        salary_coverage: 0.7,
        seed: 15,
        ..EmploymentConfig::default()
    };
    let employment = |persons| EmploymentWorkload::generate(&config(persons));
    let w = employment(100);
    let out = agree("employment/tgd", &w.source, &w.mapping.tgd_bodies());
    assert!(out.total_len() > w.source.total_len());

    // A chased target with nulls under the egd's self-join body, whose
    // images include diagonal ones (both atoms on one fact). Chasing
    // without the egd, the jobs a batch before the salaries, and
    // coalescing leaves each job's null overlapping the salary facts of
    // the same (person, company).
    let tgds_only = tdx::parse_mapping(
        "source { E(name, company)  S(name, salary) }\n\
         target { Emp(name, company, salary) }\n\
         tgd st1: E(n,c) -> exists s . Emp(n,c,s)\n\
         tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)\n",
    )
    .unwrap();
    let late = tdx::workload::late_salary_stream(&config(100));
    let mut session = tdx::IncrementalExchange::new(tgds_only).unwrap();
    for batch in std::iter::once(&late.base).chain(&late.batches) {
        session
            .apply(&tdx::DeltaBatch::from_instance(batch))
            .unwrap();
    }
    let target = session.target().coalesced();
    assert!(!target.is_complete());
    let egd = body("Emp(n,c,s) & Emp(n,c,s2)");
    let out = agree("employment/egd", &target, &[&egd]);
    assert!(out.total_len() > target.total_len());

    // A 3-atom body: no sweep spec, so the kernel runs the matcher over a
    // one-partition sharded store.
    let small = employment(20);
    let wide = body("E(n,c) & S(n,s) & E(m,c)");
    let out = agree("employment/3-atom", &small.source, &[&wide]);
    assert!(out.total_len() > small.source.total_len());

    // A constant and a repeated variable: the sweep's per-atom constant
    // and intra-atom equality filters.
    let r = RandomWorkload::generate(&RandomConfig {
        seed: 5,
        facts: 300,
        horizon: 24,
        ..RandomConfig::default()
    });
    let filtered = body("Src0(x, 'd1', y) & Src1(y, z, z)");
    let out = agree("random/filters", &r.source, &[&filtered]);
    assert!(out.total_len() > r.source.total_len());

    // Unknown relations fail on both paths, wide or not.
    for src in ["E(n,c) & Nope(n)", "Nope(n)", "E(n,c) & S(n,s) & Nope(n)"] {
        let bad = body(src);
        assert!(
            normalize(&w.source, &[&bad]).is_err(),
            "kernel accepted {src}"
        );
        assert!(
            normalize_with(&w.source, &[&bad], SearchOptions::default()).is_err(),
            "reference accepted {src}"
        );
    }
}

#[test]
fn random_workloads_agree() {
    for seed in 0..10u64 {
        let w = RandomWorkload::generate(&RandomConfig {
            seed,
            facts: 20,
            horizon: 16,
            ..RandomConfig::default()
        });
        assert_engines_agree(&format!("random/{seed}"), &w.mapping, &w.source);
    }
}

#[test]
fn partitioned_engine_is_thread_count_deterministic() {
    // Beyond hom-equivalence: the session kernel's task decomposition does
    // not depend on the worker count, so its output must be byte-identical
    // at 1, 2 and 4 threads — and the default engine, the same kernel with
    // the thread count resolved from the machine, must match it too.
    let employment = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let random = RandomWorkload::generate(&RandomConfig {
        seed: 7,
        facts: 20,
        horizon: 16,
        ..RandomConfig::default()
    });
    for (label, mapping, source) in [
        ("employment", &employment.mapping, &employment.source),
        ("random/7", &random.mapping, &random.source),
    ] {
        let one = c_chase_with(source, mapping, &ChaseOptions::partitioned_parallel(1)).unwrap();
        for (name, opts) in [
            ("partitioned/2", ChaseOptions::partitioned_parallel(2)),
            ("partitioned/4", ChaseOptions::partitioned_parallel(4)),
            ("default", ChaseOptions::default()),
        ] {
            let other = c_chase_with(source, mapping, &opts).unwrap();
            assert_eq!(one.target, other.target, "{label}: {name}");
            assert_eq!(
                one.stats.tgd_steps, other.stats.tgd_steps,
                "{label}: {name}"
            );
        }
    }
}

#[test]
fn distributed_engine_is_server_count_deterministic() {
    // Like the thread-count determinism of the partitioned engine: the
    // coordinator folds per-partition responses in partition order, so the
    // output must be byte-identical for every cluster size.
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let one = c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(1)).unwrap();
    for servers in [2usize, 3, 5] {
        let many =
            c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(servers)).unwrap();
        assert_eq!(one.target, many.target, "servers = {servers}");
        assert_eq!(one.stats.tgd_steps, many.stats.tgd_steps);
        assert_eq!(one.stats.egd_merges, many.stats.egd_merges);
    }
}

#[test]
fn distributed_engine_is_byte_identical_across_transports_and_server_counts() {
    // The acceptance bar of the transport layer: `{channel, tcp} × {1, 3}`
    // servers all produce byte-identical targets and stats. The transport
    // carries frames and the server count only relocates partitions, so
    // neither may influence the result.
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let reference = c_chase_with(
        &w.source,
        &w.mapping,
        &ChaseOptions::distributed(1).on_transport(TransportKind::Channel),
    )
    .unwrap();
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        for servers in [1usize, 3] {
            let run = c_chase_with(
                &w.source,
                &w.mapping,
                &ChaseOptions::distributed(servers).on_transport(transport),
            )
            .unwrap();
            assert_eq!(
                reference.target, run.target,
                "{transport:?} x {servers} servers diverged"
            );
            assert_eq!(reference.stats.tgd_steps, run.stats.tgd_steps);
            assert_eq!(reference.stats.egd_merges, run.stats.egd_merges);
        }
    }
}

#[test]
fn distributed_engine_survives_faults_at_every_fused_frame_offset() {
    // The fault matrix over the v2 pipelined protocol: kill server 1 of 3
    // at *every* frame offset it ever reaches. Past the handshake every
    // frame is a fused round, so each offset is a death mid-fused-round;
    // the retry path must respawn the server, replay its retained-image
    // watermark (the pre-frame image — fused exchanges update the shipped
    // cache only after the barrier succeeds) and re-answer the identical
    // frame, landing byte-identical to the unfaulted run every time.
    use std::sync::Arc;
    use tdx::core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, FaultInjector, TransportSpawner,
    };
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let clean = c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(3)).unwrap();
    let mut kill_after = 0usize;
    loop {
        let injector = Arc::new(FaultInjector::new(Arc::new(ChannelSpawner), 1, kill_after));
        let faulted = c_chase_distributed_with(
            &w.source,
            &w.mapping,
            &ChaseOptions::distributed(3),
            3,
            Arc::clone(&injector) as Arc<dyn TransportSpawner>,
        )
        .unwrap_or_else(|e| panic!("kill_after {kill_after}: chase failed: {e:?}"));
        assert_eq!(
            clean.target, faulted.target,
            "kill_after {kill_after}: retry path diverged"
        );
        assert_eq!(clean.stats.tgd_steps, faulted.stats.tgd_steps);
        assert_eq!(clean.stats.egd_merges, faulted.stats.egd_merges);
        if !injector.tripped() {
            break; // offset is past the last frame the victim ever sees
        }
        kill_after += 1;
        assert!(kill_after < 128, "fault matrix did not converge");
    }
    assert!(
        kill_after >= 3,
        "matrix stopped at offset {kill_after} — it must reach past the \
         handshake into the fused rounds"
    );
}

#[test]
fn distributed_incremental_session_agrees_with_every_engine() {
    // The acceptance bar of the distributed engine: driven through
    // IncrementalExchange batches (cluster respawned across
    // re-coarsenings), it must land on the same solution as every batch
    // engine. `servers = 0` resolves through TDX_CHASE_SERVERS — the knob
    // CI's server matrix varies.
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 20,
            horizon: 30,
            salary_coverage: 0.7,
            seed: 11,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(0))
            .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    for batch in &stream.batches {
        session.apply(&DeltaBatch::from_instance(batch)).unwrap();
    }
    let union = stream.union();
    let incremental = session.target();
    check_against_abstract_chase(&union, &stream.mapping, Ok(&incremental)).unwrap_or_else(|e| {
        panic!("distributed incremental session disagrees with the abstract chase: {e}")
    });
    for (name, opts) in all_engines() {
        let scratch = c_chase_with(&union, &stream.mapping, &opts).unwrap();
        assert!(
            hom_equivalent(&semantics(&scratch.target), &semantics(&incremental)),
            "distributed incremental session disagrees with {name}"
        );
    }
}

#[test]
fn incremental_session_agrees_with_every_engine() {
    // The incremental path joins the triangulation: replaying the source
    // in batches through an `IncrementalExchange` (whose worker count
    // resolves through the same TDX_CHASE_THREADS knob CI's matrix varies)
    // must land on the same solution as every batch engine.
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 25,
            horizon: 30,
            salary_coverage: 0.7,
            seed: 4,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 4,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session = IncrementalExchange::with_options(
        stream.mapping.clone(),
        ChaseOptions::partitioned_parallel(0), // resolves via TDX_CHASE_THREADS
    )
    .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    for batch in &stream.batches {
        session.apply(&DeltaBatch::from_instance(batch)).unwrap();
    }
    let union = stream.union();
    let incremental = session.target();
    check_against_abstract_chase(&union, &stream.mapping, Ok(&incremental))
        .unwrap_or_else(|e| panic!("incremental session disagrees with the abstract chase: {e}"));
    for (name, opts) in all_engines() {
        let scratch = c_chase_with(&union, &stream.mapping, &opts).unwrap();
        assert!(
            hom_equivalent(&semantics(&scratch.target), &semantics(&incremental)),
            "incremental session disagrees with {name}"
        );
    }
}

#[test]
fn semi_naive_deltas_change_nothing_across_chase_options() {
    // Cross the engine flag with the other chase options on the paper
    // example: every combination must produce the same certain answers.
    let mapping = paper_mapping();
    let source = figure4_source(&mapping);
    let q: UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
    let reference = certain_answers_abstract(&source, &mapping, &q).unwrap();
    for engine_opts in [indexed(), ChaseOptions::partitioned_parallel(2)] {
        for (renorm, naive) in [(true, false), (false, false), (true, true)] {
            let opts = ChaseOptions {
                renormalize_between_egd_rounds: renorm,
                naive_normalization: naive,
                ..engine_opts.clone()
            };
            let ans = certain_answers_concrete(&source, &mapping, &q, &opts)
                .unwrap()
                .epochs();
            assert_eq!(ans, reference, "options {opts:?}");
        }
    }
}

#[test]
fn chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog() {
    // The fail-slow matrix: inject each recoverable chaos fault into
    // server 1 of 3 at *every* frame offset its carrier ever reaches. With
    // a per-frame deadline armed, every fault — a delay straddling the
    // deadline, an outright hang, a silently dropped frame, an undecodable
    // response, a write torn mid-frame — must surface as a transport fault,
    // ride the respawn path and land byte-identical to the unfaulted run.
    // Each run executes under a watchdog: a chase that neither completes
    // nor errors is a wedged coordinator, the regression this test pins.
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use tdx::core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, ChaosSpawner, FaultKind, FaultPlan,
        TransportSpawner,
    };
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let opts = ChaseOptions::distributed(3).with_frame_deadline(Duration::from_millis(250));
    let clean = c_chase_with(&w.source, &w.mapping, &opts).unwrap();
    for kind in [
        FaultKind::Delay(40),
        FaultKind::Hang,
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::PartialWrite,
    ] {
        let mut offset = 0usize;
        loop {
            let spawner = Arc::new(ChaosSpawner::new(
                Arc::new(ChannelSpawner),
                &FaultPlan::single(1, offset, kind),
            ));
            let (tx, rx) = mpsc::channel();
            {
                let (source, mapping, opts) = (w.source.clone(), w.mapping.clone(), opts.clone());
                let spawner = Arc::clone(&spawner);
                std::thread::spawn(move || {
                    let out = c_chase_distributed_with(
                        &source,
                        &mapping,
                        &opts,
                        3,
                        spawner as Arc<dyn TransportSpawner>,
                    );
                    let _ = tx.send(out);
                });
            }
            let faulted = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{kind:?} at offset {offset}: coordinator wedged"))
                .unwrap_or_else(|e| panic!("{kind:?} at offset {offset}: chase failed: {e:?}"));
            assert_eq!(
                clean.target, faulted.target,
                "{kind:?} at offset {offset}: recovery diverged"
            );
            if spawner.fired() == 0 {
                break; // offset is past the last frame the victim ever sends
            }
            offset += 1;
            assert!(offset < 128, "{kind:?}: fault matrix did not converge");
        }
        assert!(
            offset >= 3,
            "{kind:?}: matrix stopped at offset {offset} — it must reach past \
             the handshake into the fused rounds"
        );
    }
}

#[test]
fn incurably_dead_server_degrades_to_local_execution_byte_identically() {
    // Graceful degradation: a server whose transport dies on every frame
    // (and every respawn) exhausts its respawn budget and is quarantined —
    // its blocks run coordinator-local through the shared kernel. The
    // chase must still complete, byte-identical to a healthy cluster, and
    // the spawner's call count must show the bounded retry attempts that
    // preceded the quarantine.
    use std::io;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tdx::core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, Transport, TransportKind, TransportSpawner,
    };

    struct StillbornTransport;
    impl Transport for StillbornTransport {
        fn send(&mut self, _frame: &[u8]) -> io::Result<()> {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partition server dead on arrival",
            ))
        }
        fn recv(&mut self) -> io::Result<Vec<u8>> {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partition server dead on arrival",
            ))
        }
        fn shutdown(&mut self) {}
    }

    /// Healthy channels everywhere except server 1, which never works.
    struct OneDeadSlot {
        inner: ChannelSpawner,
        dead_spawns: AtomicUsize,
    }
    impl TransportSpawner for OneDeadSlot {
        fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
            if server == 1 {
                self.dead_spawns.fetch_add(1, Ordering::SeqCst);
                Ok(Box::new(StillbornTransport))
            } else {
                self.inner.spawn(server)
            }
        }
        fn kind(&self) -> TransportKind {
            self.inner.kind()
        }
    }

    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let opts = ChaseOptions::distributed(3);
    let clean = c_chase_with(&w.source, &w.mapping, &opts).unwrap();
    let spawner = Arc::new(OneDeadSlot {
        inner: ChannelSpawner,
        dead_spawns: AtomicUsize::new(0),
    });
    let degraded = c_chase_distributed_with(
        &w.source,
        &w.mapping,
        &opts,
        3,
        Arc::clone(&spawner) as Arc<dyn TransportSpawner>,
    )
    .expect("a quarantined slot must degrade locally, not fail the chase");
    assert_eq!(
        clean.target, degraded.target,
        "degraded execution diverged from the healthy cluster"
    );
    let spawns = spawner.dead_spawns.load(Ordering::SeqCst);
    assert!(
        spawns > 1,
        "quarantine must come after bounded retries, got {spawns} spawn(s)"
    );
}

#[test]
fn resume_probe_survives_chaos_faults_at_every_frame_offset() {
    // The v3 reconnect handshake under the chaos matrix. A recovering
    // coordinator probes every server with `Message::Resume`; a blank
    // server answers `Response::ResumeState { configured: false, .. }`
    // and must fall back to the ordinary `Hello` handshake — no fault may
    // ever trick the coordinator into adopting a blank server. Inject
    // each recoverable fault into server 1's carrier at every frame
    // offset it reaches (offset 0 *is* the Resume probe) and replay the
    // same v1 script through the recovered cluster — ApplyDelta, a
    // RunTgdRound, a RunLocalEgdRound, a Snapshot, and the Shutdown the
    // drop broadcasts — under a watchdog. Every run must land
    // byte-identical to the fault-free replay of the same script.
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use tdx::core::chase::cluster::protocol::FactLists;
    use tdx::core::chase::cluster::{
        ChannelSpawner, ChaosSpawner, DistributedCluster, FaultKind, FaultPlan, StoreKind,
        TransportSpawner,
    };
    use tdx::storage::SearchOptions;
    use tdx::temporal::{Breakpoints, TimelinePartition};

    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20]));
    let src_rels = w.mapping.source().len();
    let tgt_rels = w.mapping.target().len();
    let mut delta: FactLists = vec![Vec::new(); src_rels];
    for (rel, fact) in w.source.iter_all() {
        delta[rel.0 as usize].push(fact.clone());
    }

    // Resume-probe a blank 3-server cluster, then replay the v1 script.
    // Returns a rendering of everything observable: the adoption count,
    // the tgd homomorphisms, the egd merges and the per-server snapshots.
    fn replay(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        delta: &FactLists,
        spawner: Arc<dyn TransportSpawner>,
    ) -> tdx::core::Result<(usize, String)> {
        let empty_src: FactLists = vec![Vec::new(); mapping.source().len()];
        let empty_tgt: FactLists = vec![Vec::new(); mapping.target().len()];
        let (mut cluster, resumed) = DistributedCluster::resume_with(
            mapping,
            tp,
            3,
            SearchOptions::default(),
            spawner,
            Some(Duration::from_millis(250)),
            [&empty_src, &empty_tgt],
        )?;
        cluster.apply_delta(StoreKind::Source, &empty_src, delta)?;
        let homs = cluster.run_tgd_round(mapping.st_tgds().len())?;
        cluster.apply_delta(StoreKind::Target, &empty_tgt, &empty_tgt)?;
        let merges = cluster.run_egd_round()?;
        let snaps = cluster.snapshots(StoreKind::Source)?;
        Ok((resumed, format!("{homs:?} {merges:?} {snaps:?}")))
    }

    let (clean_resumed, clean) = replay(&w.mapping, &tp, &delta, Arc::new(ChannelSpawner)).unwrap();
    assert_eq!(
        clean_resumed, 0,
        "a fault-free probe of blank servers must adopt none"
    );
    for kind in [
        FaultKind::Hang,
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::PartialWrite,
    ] {
        let mut offset = 0usize;
        loop {
            let spawner = Arc::new(ChaosSpawner::new(
                Arc::new(ChannelSpawner),
                &FaultPlan::single(1, offset, kind),
            ));
            let (tx, rx) = mpsc::channel();
            {
                let (mapping, tp, delta) = (w.mapping.clone(), tp.clone(), delta.clone());
                let spawner = Arc::clone(&spawner);
                std::thread::spawn(move || {
                    let _ = tx.send(replay(&mapping, &tp, &delta, spawner));
                });
            }
            let (resumed, faulted) = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{kind:?} at offset {offset}: coordinator wedged"))
                .unwrap_or_else(|e| panic!("{kind:?} at offset {offset}: replay failed: {e:?}"));
            assert_eq!(
                clean, faulted,
                "{kind:?} at offset {offset}: resume recovery diverged"
            );
            // A fault during the probe may respawn the victim, whose
            // replayed Hello restores exactly the expected (empty) state —
            // the re-probe may then adopt that one server, and only it.
            assert!(
                resumed <= 1,
                "{kind:?} at offset {offset}: {resumed} servers adopted, at most the \
                 respawned victim can be"
            );
            if spawner.fired() == 0 {
                break; // offset is past the last frame the victim ever sends
            }
            offset += 1;
            assert!(
                offset < 64,
                "{kind:?}: resume fault matrix did not converge"
            );
        }
        assert!(
            offset >= 5,
            "{kind:?}: matrix stopped at offset {offset} — it must reach past the \
             Resume probe and Hello fallback into the v1 rounds"
        );
    }
    let _ = tgt_rels;
}

/// The chaos/fault-offset coverage table: every wire frame of the cluster
/// protocol mapped to the fault sweep that drives it through an injected
/// failure. `tdx-lint --workspace` cross-checks this table against the
/// `Message`/`Response` enums in `protocol.rs`, so adding a frame without
/// routing it through a sweep (and listing it here) fails the lint.
const PROTOCOL_FAULT_MATRIX: &[(&str, &str)] = &[
    (
        "Message::Hello",
        "distributed_engine_survives_faults_at_every_fused_frame_offset",
    ),
    (
        "Message::ApplyDelta",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Message::RunTgdRound",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Message::RunLocalEgdRound",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Message::Snapshot",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Message::Ping",
        "coordinator::tests::clean_rounds_decay_the_respawn_budget",
    ),
    (
        "Message::Shutdown",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Message::TgdRoundFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Message::EgdRoundFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Message::Resume",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::Ready",
        "distributed_engine_survives_faults_at_every_fused_frame_offset",
    ),
    (
        "Response::Applied",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Response::Homs",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::Merges",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::Facts",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::Pong",
        "coordinator::tests::clean_rounds_decay_the_respawn_budget",
    ),
    (
        "Response::Stopped",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::TgdFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Response::EgdFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Response::ResumeState",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
];

#[test]
fn protocol_fault_matrix_is_exhaustive_and_names_live_tests() {
    // The executable half of the coverage table above: every entry must
    // name a frame that still exists in `protocol.rs` (no stale entries
    // after a rename) and a covering test that still exists — in this
    // file or in the coordinator's in-crate test module. Exhaustiveness
    // in the other direction (every enum variant has an entry) is what
    // `tdx-lint --workspace` enforces.
    let protocol = include_str!("../crates/core/src/chase/cluster/protocol.rs");
    let coordinator = include_str!("../crates/core/src/chase/cluster/coordinator.rs");
    let this_file = include_str!("equivalence.rs");
    let mut seen = std::collections::BTreeSet::new();
    for (frame, test) in PROTOCOL_FAULT_MATRIX {
        assert!(seen.insert(*frame), "duplicate matrix entry for {frame}");
        let variant = frame
            .rsplit("::")
            .next()
            .unwrap_or_else(|| panic!("malformed frame name {frame}"));
        assert!(
            protocol.contains(&format!("    {variant}")),
            "{frame} names no variant in protocol.rs — stale matrix entry"
        );
        let name = test.rsplit("::").next().unwrap_or(test);
        assert!(
            this_file.contains(&format!("fn {name}"))
                || coordinator.contains(&format!("fn {name}")),
            "{frame}: covering test {test} does not exist"
        );
    }
    assert_eq!(seen.len(), 20, "the v3 protocol has 20 frames");
}
