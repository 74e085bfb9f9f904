//! Property tests for [`FactStore::extend`]: bulk-loading a relation must
//! give exactly the store that inserting the same facts one by one gives —
//! same facts in the same id order (first occurrence wins), same column,
//! exact and overlap probe answers, same endpoints — and the store must
//! keep answering correctly when single inserts follow the bulk load.

// Test harness helpers run outside #[test] fns, so the tests exemption
// in clippy.toml does not reach them; asserting via panic is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::sync::Arc;
use tdx_logic::{RelId, RelationSchema, Schema};
use tdx_storage::{FactStore, TemporalFact, TemporalInstance, Value};
use tdx_temporal::Interval;

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
    (0u64..40, 1u64..12, prop::bool::weighted(0.2)).prop_map(|(s, len, inf)| {
        if inf {
            Interval::from(s)
        } else {
            Interval::new(s, s + len)
        }
    })
}

/// `(rel, col-a value id, col-b value id, interval)` fact descriptors over
/// small domains, so exact duplicates are common.
fn arb_facts(max: usize) -> impl Strategy<Value = Vec<(u8, u8, u8, Interval)>> {
    prop::collection::vec((0u8..2, 0u8..3, 0u8..3, arb_interval()), 0..max)
}

fn fact(a: u8, b: u8, interval: Interval) -> TemporalFact {
    TemporalFact {
        data: [Value::str(&format!("v{a}")), Value::str(&format!("w{b}"))]
            .into_iter()
            .collect(),
        interval,
    }
}

/// Per-relation fact lists in input order.
fn per_rel(facts: &[(u8, u8, u8, Interval)]) -> Vec<Vec<TemporalFact>> {
    let mut out = vec![Vec::new(), Vec::new()];
    for &(rel, a, b, iv) in facts {
        out[rel as usize].push(fact(a, b, iv));
    }
    out
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

/// Checks every probe of `got` against `want` and against a scan of
/// `got`'s own fact list.
fn assert_same_probes(got: &FactStore, want: &FactStore, queries: &[Interval]) {
    for r in 0..2u32 {
        let rel = RelId(r);
        assert_eq!(got.facts(rel), want.facts(rel), "facts of rel {r}");
        for vid in 0..3u8 {
            for (col, v) in [(0, format!("v{vid}")), (1, format!("w{vid}"))] {
                let v = Value::str(&v);
                let a = collect(|f| got.for_col(rel, col, &v, f));
                let b = collect(|f| want.for_col(rel, col, &v, f));
                assert_eq!(a, b, "col probe {col}@{r}");
            }
        }
        let facts = got.facts(rel);
        let scan = |keep: &dyn Fn(&Interval) -> bool| -> Vec<u32> {
            (0..facts.len() as u32)
                .filter(|&id| keep(&facts[id as usize].interval))
                .collect()
        };
        for q in queries.iter().chain(facts.iter().map(|f| &f.interval)) {
            let exact = collect(|f| got.for_exact(rel, q, f));
            assert_eq!(exact, collect(|f| want.for_exact(rel, q, f)), "exact {q}");
            assert_eq!(exact, scan(&|iv| iv == q), "exact scan {q}");
            let overlap = collect(|f| got.for_overlap(rel, q, f));
            assert_eq!(
                overlap,
                collect(|f| want.for_overlap(rel, q, f)),
                "overlap {q}"
            );
            assert_eq!(overlap, scan(&|iv| iv.overlaps(q)), "overlap scan {q}");
        }
    }
    assert_eq!(got.endpoints().points(), want.endpoints().points());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extend_equals_sequential_insert(
        facts in arb_facts(160),
        split in 0usize..160,
        probe in arb_interval(),
        late in (0u8..2, 0u8..3, 0u8..3, arb_interval()),
    ) {
        let (late_rel, late_a, late_b, late_iv) = late;
        // Reference: one insert per fact, in input order.
        let mut seq = TemporalInstance::new(schema());
        let mut seq_added = [0usize; 2];
        for &(rel, a, b, iv) in &facts {
            let f = fact(a, b, iv);
            seq_added[rel as usize] += usize::from(seq.insert(RelId(rel as u32), f.data, iv));
        }
        // Bulk: a prefix inserted one by one (leaving an unsorted tail
        // behind), then the rest of each relation in one `extend`.
        let split = split.min(facts.len());
        let mut bulk = TemporalInstance::new(schema());
        let mut bulk_added = [0usize; 2];
        for &(rel, a, b, iv) in &facts[..split] {
            let f = fact(a, b, iv);
            bulk_added[rel as usize] += usize::from(bulk.insert(RelId(rel as u32), f.data, iv));
        }
        for (r, rest) in per_rel(&facts[split..]).iter().enumerate() {
            bulk_added[r] += bulk.extend(RelId(r as u32), rest);
        }
        prop_assert_eq!(bulk_added, seq_added);
        prop_assert!(bulk == seq);
        assert_same_probes(bulk.store(), seq.store(), &[probe, late_iv]);

        // A single insert after the bulk load lands in the unsorted tail;
        // probes must still see it.
        let late = fact(late_a, late_b, late_iv);
        let rel = RelId(late_rel as u32);
        let fresh = seq.insert(rel, Arc::clone(&late.data), late_iv);
        prop_assert_eq!(bulk.insert(rel, late.data, late_iv), fresh);
        assert_same_probes(bulk.store(), seq.store(), &[probe, late_iv]);
    }

    #[test]
    fn extend_into_an_empty_store_keeps_first_occurrences(facts in arb_facts(120)) {
        let lists = per_rel(&facts);
        let mut bulk = TemporalInstance::new(schema());
        for (r, list) in lists.iter().enumerate() {
            bulk.extend(RelId(r as u32), list);
        }
        for (r, list) in lists.iter().enumerate() {
            let mut firsts: Vec<&TemporalFact> = Vec::new();
            for f in list {
                if !firsts.contains(&f) {
                    firsts.push(f);
                }
            }
            let got: Vec<&TemporalFact> = bulk.facts(RelId(r as u32)).iter().collect();
            prop_assert_eq!(got, firsts);
        }
    }
}

#[test]
#[should_panic(expected = "arity mismatch")]
fn extend_checks_arity() {
    let mut inst = TemporalInstance::new(schema());
    let short = TemporalFact {
        data: [Value::str("v0")].into_iter().collect(),
        interval: Interval::new(0, 1),
    };
    inst.extend(RelId(0), &[short]);
}
