//! Protocol-level tests of the distributed partition-server chase: replica
//! shipping for boundary-crossing (and unbounded) facts, snapshot
//! consistency between coordinator and servers, delta-only `ApplyDelta`
//! shipping, clean teardown across transports, and end-to-end behavior on
//! workloads rich in unbounded intervals.

use tdx::core::chase::cluster::snapshot_consistent;
use tdx::core::{check_against_abstract_chase, DistributedCluster, StoreKind, TransportKind};
use tdx::storage::{SearchOptions, TemporalFact};
use tdx::temporal::{Breakpoints, TimelinePartition};
use tdx::workload::{paper_mapping, EmploymentConfig, EmploymentWorkload};
use tdx::{c_chase_with, ChaseOptions, Interval, Value};

fn iv(s: u64, e: u64) -> Interval {
    Interval::new(s, e)
}

fn fact(vals: &[&str], interval: Interval) -> TemporalFact {
    TemporalFact {
        data: vals.iter().map(|v| Value::str(v)).collect(),
        interval,
    }
}

#[test]
fn replica_sets_follow_the_server_assignment() {
    // Partition at 10/20/30 over three servers: blocks {0,1}, {2}, {3}.
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    assert_eq!(tp.server_assignment(3), vec![0, 0, 1, 2]);
    let mut cluster =
        DistributedCluster::spawn(&mapping, &tp, 3, SearchOptions::default()).unwrap();

    let local = fact(&["Ada", "IBM"], iv(0, 5)); // server 0 only
    let crossing = fact(&["Bob", "IBM"], iv(15, 25)); // owner server 0, replica on 1
    let unbounded = fact(&["Cyd", "IBM"], Interval::from(25)); // owner server 1, replica on 2
    assert!(unbounded.interval.is_unbounded());
    let pre = vec![
        vec![local.clone(), crossing.clone(), unbounded.clone()],
        Vec::new(),
    ];
    let delta = vec![Vec::new(), Vec::new()];
    cluster
        .apply_delta(StoreKind::Source, &pre, &delta)
        .unwrap();

    let snaps = cluster.snapshots(StoreKind::Source).unwrap();
    assert_eq!(snaps.len(), 3);
    // Owner blocks: every fact exactly once, at the server owning the
    // partition of its start point.
    assert_eq!(snaps[0].0[0], vec![local, crossing.clone()]);
    assert_eq!(snaps[1].0[0], vec![unbounded.clone()]);
    assert!(snaps[2].0[0].is_empty());
    // Replica sets: the crossing fact reaches server 1; the unbounded fact
    // reaches the server tail (server 2).
    assert_eq!(snaps[0].1[0], Vec::<TemporalFact>::new());
    assert_eq!(snaps[1].1[0], vec![crossing]);
    assert_eq!(snaps[2].1[0], vec![unbounded]);
    // The owner multiset tiles the coordinator's lists exactly.
    assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
    // ... and a diverged coordinator view is detected.
    let wrong = vec![vec![fact(&["Eve", "ACME"], iv(1, 2))], Vec::new()];
    assert!(!snapshot_consistent(&mut cluster, StoreKind::Source, &wrong).unwrap());
}

#[test]
fn delta_shipping_reaches_every_overlapping_server() {
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20]));
    let mut cluster =
        DistributedCluster::spawn(&mapping, &tp, 3, SearchOptions::default()).unwrap();
    // Ship a delta-only load whose single fact spans all three blocks.
    let spanning = fact(&["Ada", "IBM"], Interval::from(0));
    let pre = vec![Vec::new(), Vec::new()];
    let delta = vec![vec![spanning.clone()], Vec::new()];
    cluster
        .apply_delta(StoreKind::Source, &pre, &delta)
        .unwrap();
    let snaps = cluster.snapshots(StoreKind::Source).unwrap();
    assert_eq!(snaps[0].0[0], vec![spanning.clone()]);
    for (s, snap) in snaps.iter().enumerate().skip(1) {
        assert_eq!(snap.1[0], vec![spanning.clone()], "server {s}");
    }
}

#[test]
fn unbounded_heavy_workload_is_deterministic_and_equivalent() {
    // The employment workload keeps open-ended (unbounded) employments and
    // salaries; under re-chasing at several cluster sizes the distributed
    // engine must stay byte-identical to itself and hom-equivalent to the
    // abstract chase.
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 30,
        horizon: 24,
        salary_coverage: 0.8,
        seed: 7,
        ..EmploymentConfig::default()
    });
    let unbounded_sources = w
        .source
        .iter_all()
        .filter(|(_, f)| f.interval.is_unbounded())
        .count();
    assert!(
        unbounded_sources > 0,
        "workload must exercise unbounded intervals"
    );
    let one = c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(1)).unwrap();
    check_against_abstract_chase(&w.source, &w.mapping, Ok(&one.target))
        .unwrap_or_else(|e| panic!("distributed/1 disagrees with the abstract chase: {e}"));
    for servers in [2usize, 4] {
        let many =
            c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(servers)).unwrap();
        assert_eq!(one.target, many.target, "servers = {servers}");
    }
}

#[test]
fn tcp_cluster_speaks_the_same_protocol_as_channel() {
    // The full protocol round-trip — handshake, delta shipping, snapshot
    // audit — over real TCP (child processes when the tdx binary is
    // around, which it is for integration tests).
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    let mut cluster = DistributedCluster::spawn_on(
        &mapping,
        &tp,
        3,
        SearchOptions::default(),
        TransportKind::Tcp,
    )
    .unwrap();
    assert_eq!(cluster.transport(), TransportKind::Tcp);
    cluster.heartbeat().unwrap();
    let crossing = fact(&["Bob", "IBM"], iv(15, 25));
    let pre = vec![vec![crossing.clone()], Vec::new()];
    let delta = vec![Vec::new(), Vec::new()];
    cluster
        .apply_delta(StoreKind::Source, &pre, &delta)
        .unwrap();
    assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
    let snaps = cluster.snapshots(StoreKind::Source).unwrap();
    assert_eq!(snaps[1].1[0], vec![crossing]);
}

/// Steady-state `ApplyDelta` traffic of an incremental distributed session
/// must be proportional to the batch, not the store: on employment/100
/// with a 5% batch the batch's shipped bytes are >5× under the full
/// re-ship the PR 4 protocol performed every round (= what the session's
/// base ship still costs).
#[test]
fn incremental_batch_traffic_is_proportional_to_the_batch() {
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 1,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(1))
            .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    let base = session
        .cluster_traffic()
        .expect("distributed session has a cluster");
    // The base batch ships the whole store: pre is empty, everything is
    // fresh — this is exactly the PR 4 full-list re-ship cost for this
    // store size.
    assert!(base.apply_delta_bytes > 0);
    assert_eq!(base.respawns, 0);
    session
        .apply(&DeltaBatch::from_instance(&stream.batches[0]))
        .unwrap();
    let after = session.cluster_traffic().unwrap();
    let batch_bytes = after.apply_delta_bytes - base.apply_delta_bytes;
    let batch_facts = after.apply_delta_facts - base.apply_delta_facts;
    assert!(batch_bytes > 0, "the batch must ship something");
    assert!(
        batch_bytes * 5 < base.apply_delta_bytes,
        "5% batch shipped {batch_bytes} bytes — not >5x under the full re-ship \
         ({} bytes); facts shipped: {batch_facts} vs {}",
        base.apply_delta_bytes,
        base.apply_delta_facts,
    );
    // The session still lands on the right answer: the abstract chase of
    // the accumulated source.
    let incremental = session.target();
    check_against_abstract_chase(&stream.union(), &stream.mapping, Ok(&incremental))
        .unwrap_or_else(|e| panic!("distributed session disagrees with the abstract chase: {e}"));
}

/// A narrowing refine on a distributed session re-chases one person's
/// component through the running cluster: no respawn, no new cluster
/// (the traffic counters keep counting), and its sync traffic is a small
/// multiple of an insert commit's, not a re-ship of the store.
#[test]
fn narrowing_refine_keeps_the_cluster() {
    use tdx::workload::{
        employment_stream, with_narrowing_refines, BatchOrder, StreamConfig, StreamStep,
    };
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 60,
            companies: 12,
            horizon: 60,
            salary_coverage: 0.7,
            seed: 5,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 12,
            batch_fraction: 0.004,
            order: BatchOrder::TailLocal,
            seed: 5,
        },
    );
    let e = stream.mapping.source().rel_id("E".into()).unwrap();
    let steps = with_narrowing_refines(&stream, e, 6, 5);
    let mut session = IncrementalExchange::with_options(
        stream.mapping.clone(),
        ChaseOptions::distributed(2).on_transport(TransportKind::Channel),
    )
    .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    let base_bytes = session.cluster_traffic().unwrap().apply_delta_bytes;
    let (mut insert_bytes, mut refines) = (Vec::new(), 0);
    for step in &steps {
        let before = session.cluster_traffic().unwrap();
        let stats = match step {
            StreamStep::Insert(inst) => session.apply(&DeltaBatch::from_instance(inst)),
            StreamStep::Refine(rel, data, iv) => {
                let mut b = DeltaBatch::new();
                b.refine(*rel, data.clone(), *iv);
                session.apply(&b)
            }
        }
        .unwrap();
        if stats.recoarsened {
            continue; // a new partition respawns the cluster by design
        }
        let after = session.cluster_traffic().unwrap();
        assert!(after.frames_sent > before.frames_sent, "same cluster");
        assert_eq!(after.respawns, before.respawns);
        let bytes = after.apply_delta_bytes - before.apply_delta_bytes;
        match step {
            StreamStep::Insert(_) => insert_bytes.push(bytes),
            StreamStep::Refine(..) => {
                assert!(!stats.full_rechase);
                insert_bytes.sort_unstable();
                let insert = insert_bytes[insert_bytes.len() / 2];
                assert!(
                    bytes <= 5 * insert && bytes * 10 < base_bytes,
                    "refine shipped {bytes} bytes; median insert {insert}, base {base_bytes}"
                );
                refines += 1;
            }
        }
    }
    assert!(refines >= 1, "the stream narrows a job");
    check_against_abstract_chase(&session.source(), &stream.mapping, Ok(&session.target()))
        .unwrap();
}

/// The fused v2 frames collapse a steady-state incremental batch to one
/// round trip per server per round. The v1 protocol paid a per-batch
/// heartbeat plus separate `ApplyDelta` and enumeration barriers — at
/// minimum 5 round trips per batch (heartbeat, ship+tgd, ship+egd) — where
/// the fused protocol pays `1 + egd_rounds`. Locks in the ≥2× round-trip
/// reduction of the pipelined design.
#[test]
fn fused_rounds_halve_round_trips_for_an_incremental_batch() {
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 1,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(1))
            .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    let base = session.cluster_traffic().unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.batches[0]))
        .unwrap();
    let after = session.cluster_traffic().unwrap();
    let batch_rts = after.round_trips - base.round_trips;
    assert!(
        batch_rts >= 2,
        "a batch runs at least the fused tgd and one fused egd barrier, got {batch_rts}"
    );
    // Each fused barrier replaces a v1 ApplyDelta + enumeration pair, and
    // the v1 protocol heartbeat-ed once per batch on top: same rounds, v1
    // cost = 1 + 2 * batch_rts.
    let v1_rts = 1 + 2 * batch_rts;
    assert!(
        2 * batch_rts <= v1_rts,
        "fused batch cost {batch_rts} round trips; v1 would have paid {v1_rts}"
    );
    // And in absolute terms the steady state stays flat: one fused tgd
    // round plus the egd fixpoint (its final empty round included) — well
    // under the v1 floor of 5.
    assert!(
        batch_rts <= 3,
        "steady-state 5% batch cost {batch_rts} round trips — the fused protocol should pay 1 + egd_rounds"
    );
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Spawning and dropping clusters must not leak server threads or
/// processes: drop sends `Shutdown`, joins the threads and reaps the
/// children. Regression test for the teardown path on both transports.
#[cfg(target_os = "linux")]
#[test]
fn repeated_spawn_drop_does_not_grow_the_thread_count() {
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        // Warm up once (lazy runtime allocations), then measure.
        drop(
            DistributedCluster::spawn_on(&mapping, &tp, 3, SearchOptions::default(), transport)
                .unwrap(),
        );
        let before = thread_count();
        for _ in 0..10 {
            let mut cluster =
                DistributedCluster::spawn_on(&mapping, &tp, 3, SearchOptions::default(), transport)
                    .unwrap();
            cluster.heartbeat().unwrap();
        }
        let after = thread_count();
        // A leaking teardown would grow by 3 threads per cycle (30 here);
        // the slack of 4 absorbs unrelated test-harness threads coming and
        // going in parallel.
        assert!(
            after <= before + 4,
            "{transport:?}: thread count grew from {before} to {after} over 10 spawn/drop cycles"
        );
    }
}
