//! A soundness corner the paper's §4.3 pipeline leaves open — and why
//! `ChaseOptions::default()` re-normalizes between egd rounds.
//!
//! The paper normalizes the target w.r.t. the egd bodies **once**, before
//! the egd phase. But an egd step that replaces nulls by constants can
//! create *new* data joins between facts whose intervals overlap without
//! being aligned; a once-normalized instance has no shared-`t` homomorphism
//! for them, so the violation at the overlap is invisible to the concrete
//! chase even though the abstract chase (snapshot-wise) fails.
//!
//! Construction: the existential `w` flows into `R(w, v)` and `P(w, k)`;
//! copying `Q` pins `w` to the constant `anchor` via `e2` — separately on
//! `[0,5)` and `[3,8)`. Only *after* that substitution do the two `R` facts
//! join on their first column, with the misaligned overlap `[3,5)` where
//! `e1` then clashes `c1 ≠ c2`.

use std::sync::Arc;
use tdx::core::{abstract_chase, semantics, TdxError};
use tdx::{parse_mapping, ChaseOptions, TemporalInstance};
use tdx_temporal::Interval;

fn iv(s: u64, e: u64) -> Interval {
    Interval::new(s, e)
}

fn setting() -> (tdx::SchemaMapping, TemporalInstance) {
    let mapping = parse_mapping(
        "source { S1(k, v)  Q0(u, k) }
         target { R(a, b)  P(a, k)  Q(u, k) }
         tgd t1: S1(k, v) -> exists w . R(w, v) & P(w, k)
         tgd t2: Q0(u, k) -> Q(u, k)
         egd e2: P(w, k) & Q(u, k) -> w = u
         egd e1: R(x, y) & R(x, y2) -> y = y2",
    )
    .unwrap();
    let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
    ic.insert_strs("S1", &["k1", "c1"], iv(0, 5));
    ic.insert_strs("S1", &["k2", "c2"], iv(3, 8));
    ic.insert_strs("Q0", &["anchor", "k1"], iv(0, 5));
    ic.insert_strs("Q0", &["anchor", "k2"], iv(3, 8));
    (mapping, ic)
}

/// The abstract chase is the ground truth: at every snapshot in `[3,5)`
/// both `R(anchor, c1)` and `R(anchor, c2)` hold, so `e1` clashes.
#[test]
fn abstract_chase_fails_on_the_hidden_overlap() {
    let (mapping, ic) = setting();
    let err = abstract_chase(&semantics(&ic), &mapping).unwrap_err();
    match err {
        TdxError::ChaseFailure {
            interval,
            left,
            right,
            ..
        } => {
            assert_eq!(interval, Some(iv(3, 5)));
            let mut pair = [left, right];
            pair.sort();
            assert_eq!(pair, ["c1".to_string(), "c2".to_string()]);
        }
        other => panic!("expected failure, got {other:?}"),
    }
}

/// With egd-round re-normalization (the default), the c-chase agrees: the
/// substitution exposes the join, re-normalization aligns the intervals,
/// and the clash is found.
#[test]
fn default_options_find_the_failure() {
    let (mapping, ic) = setting();
    let err = tdx::c_chase_with(&ic, &mapping, &ChaseOptions::default()).unwrap_err();
    assert!(
        matches!(err, TdxError::ChaseFailure { interval: Some(i), .. } if i == iv(3, 5)),
        "got {err:?}"
    );
}

/// The paper-faithful single normalization misses it: the chase "succeeds",
/// but its output violates `e1` on `[3,5)` — it is *not* a solution. This
/// is exactly why re-normalization is the default (documented on
/// `ChaseOptions::renormalize_between_egd_rounds`); the knob exists to
/// study the paper's literal pipeline.
#[test]
fn paper_faithful_mode_misses_the_late_violation() {
    let (mapping, ic) = setting();
    let result = tdx::c_chase_with(&ic, &mapping, &ChaseOptions::paper_faithful())
        .expect("single-normalization chase reports success");
    // The output is NOT a solution: e1 is violated at the overlap.
    assert!(
        !tdx::core::verify::is_solution_concrete(&ic, &result.target, &mapping).unwrap(),
        "if this starts passing, the paper-faithful pipeline became complete \
         and ChaseOptions::renormalize_between_egd_rounds should say so"
    );
}

/// Without the anchoring `Q` facts nothing pins the nulls, no new join
/// appears, and every mode agrees on success.
#[test]
fn without_anchor_all_modes_succeed_and_align() {
    let (mapping, _) = setting();
    let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
    ic.insert_strs("S1", &["k1", "c1"], iv(0, 5));
    ic.insert_strs("S1", &["k2", "c2"], iv(3, 8));
    for opts in [ChaseOptions::default(), ChaseOptions::paper_faithful()] {
        let result = tdx::c_chase_with(&ic, &mapping, &opts).unwrap();
        assert!(tdx::core::verify::is_solution_concrete(&ic, &result.target, &mapping).unwrap());
    }
    let ja = abstract_chase(&semantics(&ic), &mapping).unwrap();
    let jc = tdx::c_chase_with(&ic, &mapping, &ChaseOptions::default()).unwrap();
    assert!(tdx::core::hom_equivalent(&semantics(&jc.target), &ja));
}
