//! The `cluster` layer, measured inside `ingest`: after the timed loop the
//! same stream replays on two partition servers over the channel
//! transport, which runs the partition-server protocol and its `codec`
//! framing on every commit. The replay is the `cluster` output check (the
//! distributed target must match the recovered local one) and, traced, it
//! times each distributed commit and reads the `TrafficStats` deltas.
//!
//! A standalone `cluster` workload was too unsteady to bound: its three
//! threads on two cores read 1.3–1.6× slower through the host's slow
//! periods. See README.md.

use crate::inputs::Step;
use crate::trace::Tracer;
use crate::{cluster_opts, Layers, Samples};
use tdx_core::exchange::DataExchange;
use tdx_core::{DeltaBatch, IncrementalExchange, TdxError, TrafficStats};
use tdx_logic::SchemaMapping;
use tdx_storage::TemporalInstance;

fn traffic(s: &IncrementalExchange) -> TrafficStats {
    s.cluster_traffic().unwrap_or_default()
}

/// Replays `base` and `steps` on a 2-server cluster; returns whether the
/// distributed target is hom-equivalent to `expected`.
pub fn replay(
    mapping: &SchemaMapping,
    base: &TemporalInstance,
    steps: &[Step],
    expected: &TemporalInstance,
    tr: &mut Tracer,
    s: &mut Samples,
    layers: &mut Layers,
) -> Result<bool, String> {
    let mut session = DataExchange::new(mapping.clone())
        .with_options(cluster_opts())
        .incremental()
        .map_err(|e| e.to_string())?;
    session
        .apply(&DeltaBatch::from_instance(base))
        .map_err(|e| e.to_string())?;
    let (mut trips, mut bytes, mut shipped, mut inserts) = (0u64, 0u64, 0u64, 0u64);
    for step in steps {
        tr.next_op();
        let (Step::Insert(batch) | Step::Refine(batch)) = step;
        // Inserts and refines are timed apart, so that `cluster.apply`
        // compares with the local session's `incremental.apply`.
        let name = match step {
            Step::Insert(..) => "cluster.apply",
            Step::Refine(_) => "cluster.rechase",
        };
        let before = traffic(&session);
        let r = tr.span(name, || session.apply(batch));
        let after = traffic(&session);
        // A respawn or quarantine means a server failed mid-commit.
        let faulted = after.respawns + after.quarantines > before.respawns + before.quarantines;
        let r = r.and_then(|st| match faulted {
            true => Err(TdxError::Invalid("partition server fault".into())),
            false => Ok(st),
        });
        if s.count(r).is_some() && matches!(step, Step::Insert(..)) {
            trips += after.round_trips - before.round_trips;
            bytes += after.bytes_sent - before.bytes_sent;
            shipped += after.apply_delta_facts - before.apply_delta_facts;
            inserts += 1;
        }
    }
    let per = |n: u64| n as f64 / inserts.max(1) as f64;
    layers.insert("cluster.round_trips_per_commit".into(), per(trips));
    layers.insert("cluster.bytes_per_commit".into(), per(bytes));
    layers.insert("cluster.facts_shipped_per_commit".into(), per(shipped));
    let equivalent = crate::hom_equivalent(&session.target(), expected);
    if !equivalent {
        eprintln!("tdxbench: the cluster's target differs from the local session's");
    }
    Ok(equivalent)
}
