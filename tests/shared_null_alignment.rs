//! A second reproduction finding (see `base_align_cuts` in
//! `crates/core/src/chase/partitioned.rs`): shared existentials need *base
//! alignment* under fragmentation.
//!
//! Definition 16 places one fresh annotated null `w^[s,e)` into every head
//! fact of a tgd step. If a later normalization fragments one of those
//! sibling facts but not the other (the egd bodies mention only one of
//! their relations), the paper's invariant "a null's annotation equals its
//! fact's interval" silently splits the null's occurrences into *unaligned*
//! pieces — and an egd rewrite keyed on `(base, interval)` updates one
//! sibling but not the other. Semantically (`Π_ℓ(N^[s,e)) = N_ℓ`, §4.1)
//! both occurrences denote the *same* labeled nulls at the shared time
//! points, so the rewrite must reach both. The c-chase therefore re-aligns
//! facts sharing a null base (fragmenting to equal-or-disjoint intervals)
//! whenever fragmentation or rewriting occurs.
//!
//! The construction: `t` fans one existential `w` into `T1` and `T2`; only
//! `T2` is in an egd body, so only `T2`'s copy is fragmented by
//! normalization; the egd then pins `w` to the constant `c` on `[4, 6)`.

use std::sync::Arc;
use tdx::core::{abstract_chase, hom_equivalent, semantics};
use tdx::{parse_mapping, ChaseOptions, TemporalInstance, Value};
use tdx_temporal::Interval;

fn iv(s: u64, e: u64) -> Interval {
    Interval::new(s, e)
}

fn setting() -> (tdx::SchemaMapping, TemporalInstance) {
    let mapping = parse_mapping(
        "source { A(k)  U0(k, u) }
         target { T1(k, w)  T2(k, w)  U(k, u) }
         tgd t:  A(k) -> exists w . T1(k, w) & T2(k, w)
         tgd tu: U0(k, u) -> U(k, u)
         egd e:  T2(k, w) & U(k, u) -> w = u",
    )
    .unwrap();
    let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
    ic.insert_strs("A", &["k1"], iv(2, 7));
    ic.insert_strs("U0", &["k1", "c"], iv(4, 6));
    (mapping, ic)
}

/// Ground truth: in every snapshot of `[4,6)` the abstract chase equates
/// the shared existential with `c` in *both* `T1` and `T2`.
#[test]
fn abstract_chase_rewrites_both_siblings() {
    let (mapping, ic) = setting();
    let ja = abstract_chase(&semantics(&ic), &mapping).unwrap();
    let s5 = ja.snapshot_at(5).render();
    assert!(s5.contains("T1(k1, c)"), "{s5}");
    assert!(s5.contains("T2(k1, c)"), "{s5}");
    // Outside the pinned window the existential stays unknown.
    let s3 = ja.snapshot_at(3);
    assert!(!s3.is_complete());
}

/// The c-chase result matches, in every mode — this is the regression test
/// for the base-alignment fix (without it, `T1` kept its null on `[2,7)`
/// while `T2`'s `[4,6)` fragment was rewritten, and the tgd was violated).
#[test]
fn c_chase_aligns_and_rewrites_shared_nulls() {
    let (mapping, ic) = setting();
    for opts in [
        ChaseOptions::default(),
        ChaseOptions::paper_faithful(),
        ChaseOptions {
            naive_normalization: true,
            ..ChaseOptions::default()
        },
    ] {
        let result = tdx::c_chase_with(&ic, &mapping, &opts).unwrap();
        assert!(
            tdx::core::verify::is_solution_concrete(&ic, &result.target, &mapping).unwrap(),
            "options: {opts:?}"
        );
        let sem = semantics(&result.target);
        let s5 = sem.snapshot_at(5).render();
        assert!(s5.contains("T1(k1, c)"), "options {opts:?}: {s5}");
        assert!(s5.contains("T2(k1, c)"), "options {opts:?}: {s5}");
    }
    // Full Corollary 20 alignment.
    let jc = tdx::c_chase_with(&ic, &mapping, &ChaseOptions::default()).unwrap();
    let ja = abstract_chase(&semantics(&ic), &mapping).unwrap();
    assert!(hom_equivalent(&semantics(&jc.target), &ja));
}

/// The fragments of the shared null stay linked: T1 and T2 carry the same
/// base on matching fragments, so coalescing and queries see one value per
/// time point.
#[test]
fn sibling_fragments_share_bases() {
    let (mapping, ic) = setting();
    let jc = tdx::c_chase(&ic, &mapping).unwrap().target;
    let t1 = mapping
        .target()
        .rel_id(tdx::logic::Symbol::intern("T1"))
        .unwrap();
    let t2 = mapping
        .target()
        .rel_id(tdx::logic::Symbol::intern("T2"))
        .unwrap();
    for fact in jc.facts(t1) {
        if let Value::Null(b) = fact.data[1] {
            // The same (base, interval) occurrence exists in T2.
            assert!(
                jc.facts(t2)
                    .iter()
                    .any(|f| f.interval == fact.interval && f.data[1] == Value::Null(b)),
                "unaligned sibling for base {b} at {}",
                fact.interval
            );
        }
    }
}

/// Widened sweep: the richer random workloads (multi-atom heads with shared
/// existentials) that exposed the bug now all produce verified solutions.
#[test]
fn random_workloads_with_shared_existentials_are_sound() {
    use tdx::workload::{RandomConfig, RandomWorkload};
    for seed in 0..60u64 {
        let w = RandomWorkload::generate(&RandomConfig {
            seed,
            facts: 16,
            horizon: 12,
            ..RandomConfig::default()
        });
        if let Ok(result) = tdx::c_chase(&w.source, &w.mapping) {
            assert!(
                tdx::core::verify::is_solution_concrete(&w.source, &result.target, &w.mapping)
                    .unwrap(),
                "seed {seed}"
            );
        }
    }
}
