//! Property tests for [`ShardedFactStore`]: for random fact sets and random
//! partition boundaries, the sharded store's
//! probe surface (`for_col` / `for_exact` / `for_overlap`, plus the counts
//! and the generation log) must agree with a single flat [`FactStore`]
//! holding the same facts — the contract that lets the matcher run over
//! either store unchanged.

// Test harness helpers run outside #[test] fns, so the tests exemption
// in clippy.toml does not reach them; asserting via panic is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::sync::Arc;
use tdx_logic::{RelId, RelationSchema, Schema};
use tdx_storage::{Generation, ShardedFactStore, TemporalInstance, Value};
use tdx_temporal::{Breakpoints, Interval, TimelinePartition};

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            RelationSchema::new("R", &["a", "b"]),
            RelationSchema::new("S", &["a", "c"]),
        ])
        .unwrap(),
    )
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u64..60, 1u64..20, prop::bool::weighted(0.2)).prop_map(|(s, len, inf)| {
        if inf {
            Interval::from(s)
        } else {
            Interval::new(s, s + len)
        }
    })
}

/// `(rel, col-a value id, col-b value id, interval)` fact descriptors.
fn arb_facts(max: usize) -> impl Strategy<Value = Vec<(u8, u8, u8, Interval)>> {
    prop::collection::vec((0u8..2, 0u8..6, 0u8..6, arb_interval()), 1..max)
}

fn build_instance(facts: &[(u8, u8, u8, Interval)]) -> TemporalInstance {
    let mut inst = TemporalInstance::new(schema());
    for &(rel, a, b, iv) in facts {
        inst.insert(
            RelId(rel as u32),
            [Value::str(&format!("v{a}")), Value::str(&format!("w{b}"))]
                .into_iter()
                .collect(),
            iv,
        );
    }
    inst
}

fn collect<F: FnMut(&mut dyn FnMut(u32) -> bool) -> bool>(mut probe: F) -> Vec<u32> {
    let mut out = Vec::new();
    probe(&mut |id| {
        out.push(id);
        true
    });
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_probes_agree_with_flat_store(
        facts in arb_facts(40),
        cuts in prop::collection::vec(1u64..60, 0..6),
        probe_iv in arb_interval(),
    ) {
        let inst = build_instance(&facts);
        let flat = inst.store();
        let tp = TimelinePartition::new(&Breakpoints::from_points(cuts.iter().copied()));
        let sharded = ShardedFactStore::build_from(&inst, tp, true);

        prop_assert_eq!(sharded.total_len(), inst.total_len());
        for r in 0..2u32 {
            let rel = RelId(r);
            prop_assert_eq!(sharded.len(rel), inst.len(rel));
            // Global ids equal the flat store's fact ids.
            for gid in 0..inst.len(rel) as u32 {
                prop_assert_eq!(sharded.fact(rel, gid), &inst.facts(rel)[gid as usize]);
            }
            // Column probes.
            for vid in 0..6u8 {
                for (col, v) in [(0, format!("v{vid}")), (1, format!("w{vid}"))] {
                    let v = Value::str(&v);
                    let a = collect(|f| flat.for_col(rel, col, &v, f));
                    let b = collect(|f| sharded.for_col(rel, col, &v, f));
                    prop_assert_eq!(&a, &b, "col probe {}@{}", col, rel.0);
                    prop_assert_eq!(sharded.col_count(rel, col, &v), a.len());
                }
            }
            // Interval probes: the query interval plus every stored one.
            let mut queries = vec![probe_iv];
            queries.extend(inst.facts(rel).iter().map(|f| f.interval));
            for q in queries {
                let a = collect(|f| flat.for_exact(rel, &q, f));
                let b = collect(|f| sharded.for_exact(rel, &q, f));
                prop_assert_eq!(&a, &b, "exact probe {}", q);
                prop_assert_eq!(sharded.exact_count(rel, &q), a.len());
                let a = collect(|f| flat.for_overlap(rel, &q, f));
                let b = collect(|f| sharded.for_overlap(rel, &q, f));
                prop_assert_eq!(&a, &b, "overlap probe {}", q);
                prop_assert_eq!(sharded.overlap_count(rel, &q), a.len());
            }
        }
        prop_assert_eq!(sharded.endpoints().points(), inst.endpoints().points());
        prop_assert_eq!(&sharded.to_instance(), &inst);
    }

    #[test]
    fn sharded_delta_log_matches_split(
        facts in arb_facts(30),
        split_at in 0usize..30,
        cuts in prop::collection::vec(1u64..60, 0..5),
    ) {
        let inst = build_instance(&facts);
        let tp = TimelinePartition::new(&Breakpoints::from_points(cuts.iter().copied()));
        // Split each relation's facts at `split_at` into pre/delta blocks.
        let pre: Vec<Vec<tdx_storage::TemporalFact>> = (0..2)
            .map(|r| {
                let fs = inst.facts(RelId(r));
                fs[..split_at.min(fs.len())].to_vec()
            })
            .collect();
        let delta: Vec<Vec<tdx_storage::TemporalFact>> = (0..2)
            .map(|r| {
                let fs = inst.facts(RelId(r));
                fs[split_at.min(fs.len())..].to_vec()
            })
            .collect();
        let sharded = ShardedFactStore::build_with_delta(
            inst.schema_arc(),
            tp,
            true,
            |rel| {
                (
                    pre[rel.0 as usize].as_slice(),
                    delta[rel.0 as usize].as_slice(),
                )
            },
        );
        for r in 0..2u32 {
            let rel = RelId(r);
            prop_assert_eq!(
                sharded.delta_start(rel, Generation(0)) as usize,
                pre[r as usize].len()
            );
            let shipped: Vec<tdx_storage::TemporalFact> = sharded
                .facts_since(rel, Generation(0))
                .map(|(_, f)| f.clone())
                .collect();
            prop_assert_eq!(&shipped, &delta[r as usize], "delta of rel {}", r);
        }
        prop_assert_eq!(
            sharded.has_delta_since(Generation(0)),
            delta.iter().any(|d| !d.is_empty())
        );
    }
}
