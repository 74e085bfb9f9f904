//! Verification utilities: dependency satisfaction, solution checking, and
//! the oracle every engine is checked against — the paper's abstract chase
//! (Theorem 19(2) and Corollary 20).

use crate::abstract_view::{AValue, AbstractInstance};
use crate::chase::abstract_chase::abstract_chase;
use crate::chase::concrete::{c_chase_with, ChaseOptions};
use crate::error::{Result, TdxError};
use crate::hom::abstract_hom;
use crate::semantics::semantics;
use tdx_logic::{Egd, SchemaMapping, Tgd};
use tdx_storage::{Instance, NullId, TemporalInstance, Value};

/// Whether the snapshot pair `(src, tgt)` satisfies an s-t tgd: every body
/// homomorphism into `src` extends to a head homomorphism into `tgt`.
/// Labeled nulls are ordinary values.
pub fn satisfies_tgd(src: &Instance, tgt: &Instance, tgd: &Tgd) -> Result<bool> {
    let mut ok = true;
    src.find_matches(&tgd.body, &[], |m| {
        let bindings = m.bindings();
        match tgt.exists_match(&tgd.head, &bindings) {
            Ok(true) => true,
            Ok(false) => {
                ok = false;
                false
            }
            Err(_) => {
                ok = false;
                false
            }
        }
    })?;
    Ok(ok)
}

/// Whether the snapshot `tgt` satisfies an egd: every body homomorphism
/// equates the two designated variables.
pub fn satisfies_egd(tgt: &Instance, egd: &Egd) -> Result<bool> {
    let mut ok = true;
    tgt.find_matches(&egd.body, &[], |m| {
        if m.value(egd.lhs) != m.value(egd.rhs) {
            ok = false;
            false
        } else {
            true
        }
    })?;
    Ok(ok)
}

fn encode_snapshot(snap: &crate::abstract_view::ASnapshot) -> Instance {
    let mut db = Instance::new(snap.schema_arc());
    for (rel, row) in snap.iter_all() {
        db.insert(
            rel,
            row.iter()
                .map(|v| match v {
                    AValue::Const(c) => Value::Const(*c),
                    AValue::PerPoint(b) => Value::Null(NullId(2 * b.0)),
                    AValue::Rigid(b) => Value::Null(NullId(2 * b.0 + 1)),
                })
                .collect(),
        );
    }
    db
}

/// Whether `ja` is a solution for `ia` w.r.t. the mapping: every snapshot
/// pair satisfies `Σ_st ∪ Σ_eg` (the paper's definition in Section 3).
/// Checked on the common epoch refinement — snapshots are uniform inside
/// each epoch, so one representative point per epoch suffices.
pub fn is_solution_abstract(
    ia: &AbstractInstance,
    ja: &AbstractInstance,
    mapping: &SchemaMapping,
) -> Result<bool> {
    for (_, src_snap, tgt_snap) in ia.zip_refined(ja) {
        let src = encode_snapshot(src_snap);
        let tgt = encode_snapshot(tgt_snap);
        for tgd in mapping.st_tgds() {
            if !satisfies_tgd(&src, &tgt, tgd)? {
                return Ok(false);
            }
        }
        for egd in mapping.egds() {
            if !satisfies_egd(&tgt, egd)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Whether `jc` is a concrete solution for `ic`: its semantics is a solution
/// for `⟦I_c⟧`.
pub fn is_solution_concrete(
    ic: &TemporalInstance,
    jc: &TemporalInstance,
    mapping: &SchemaMapping,
) -> Result<bool> {
    is_solution_abstract(&semantics(ic), &semantics(jc), mapping)
}

/// Checks what an engine returned for `ic` under `mapping` against the
/// abstract chase of `⟦I_c⟧` (Section 3), the ground truth of the paper:
/// both must fail on the same sources (Theorem 19(2)), and when both
/// succeed, `⟦J_c⟧` must be a solution (Theorem 19(1)) with
/// `⟦J_c⟧ ∼ chase(⟦I_c⟧)` (Corollary 20) — that is, a universal solution.
/// Any error other than a chase failure is a disagreement. Returns what
/// differs.
pub fn check_against_abstract_chase(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    outcome: std::result::Result<&TemporalInstance, &TdxError>,
) -> std::result::Result<(), String> {
    let ia = semantics(ic);
    let expected = abstract_chase(&ia, mapping);
    match (outcome, &expected) {
        (Ok(jc), Ok(ja)) => {
            let jc = semantics(jc);
            if !is_solution_abstract(&ia, &jc, mapping).map_err(|e| e.to_string())? {
                Err("⟦J_c⟧ is not a solution for ⟦I_c⟧".into())
            } else if !abstract_hom(&jc, ja) {
                Err("⟦J_c⟧ does not map into chase(⟦I_c⟧)".into())
            } else if !abstract_hom(ja, &jc) {
                Err("chase(⟦I_c⟧) does not map into ⟦J_c⟧".into())
            } else {
                Ok(())
            }
        }
        (Err(TdxError::ChaseFailure { .. }), Err(TdxError::ChaseFailure { .. })) => Ok(()),
        (Ok(_), Err(a)) => Err(format!(
            "the abstract chase failed ({a}), the engine did not"
        )),
        (Err(e), Ok(_)) => Err(format!(
            "the engine failed ({e}), the abstract chase did not"
        )),
        (Err(e), Err(a)) => Err(format!("the engine failed ({e}), the abstract chase ({a})")),
    }
}

/// The Corollary 20 / Figure 10 check, through
/// [`check_against_abstract_chase`]: the two paths around the square
/// commute up to homomorphic equivalence,
/// `⟦c-chase(I_c)⟧ ∼ chase(⟦I_c⟧)`, or both fail (Theorem 19(2)). Errors
/// other than a chase failure are returned.
pub fn alignment_holds(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
) -> Result<bool> {
    let jc = match c_chase_with(ic, mapping, opts) {
        Err(e) if !matches!(e, TdxError::ChaseFailure { .. }) => return Err(e),
        jc => jc,
    };
    Ok(check_against_abstract_chase(ic, mapping, jc.as_ref().map(|r| &r.target)).is_ok())
}

/// Whether `candidate` is *universal among* the given solutions: it is a
/// solution itself and maps homomorphically into every other one
/// (Definition 3, restricted to a finite witness set — full universality
/// quantifies over all solutions and is certified by Theorem 19 for chase
/// results).
pub fn is_universal_among(
    ic: &TemporalInstance,
    candidate: &TemporalInstance,
    others: &[&TemporalInstance],
    mapping: &SchemaMapping,
) -> Result<bool> {
    if !is_solution_concrete(ic, candidate, mapping)? {
        return Ok(false);
    }
    let cand_sem = semantics(candidate);
    for other in others {
        if !abstract_hom(&cand_sem, &semantics(other)) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};
    use tdx_temporal::Interval;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn paper_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap(),
                parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)").unwrap(),
            ],
            vec![parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2").unwrap()],
        )
        .unwrap()
    }

    fn figure4(mapping: &SchemaMapping) -> TemporalInstance {
        let mut i = TemporalInstance::new(Arc::new(mapping.source().clone()));
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    #[test]
    fn chase_output_is_a_solution() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let jc = crate::chase::concrete::c_chase(&ic, &mapping)
            .unwrap()
            .target;
        assert!(is_solution_concrete(&ic, &jc, &mapping).unwrap());
    }

    #[test]
    fn empty_target_is_not_a_solution() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let jc = TemporalInstance::new(Arc::new(mapping.target().clone()));
        assert!(!is_solution_concrete(&ic, &jc, &mapping).unwrap());
    }

    #[test]
    fn egd_violating_target_is_not_a_solution() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let jc = crate::chase::concrete::c_chase(&ic, &mapping)
            .unwrap()
            .target;
        // Add a second salary for Ada in 2013 — violates the fd.
        let mut bad = jc.clone();
        bad.insert_strs("Emp", &["Ada", "IBM", "99k"], iv(2013, 2014));
        assert!(!is_solution_concrete(&ic, &bad, &mapping).unwrap());
    }

    #[test]
    fn chase_result_is_universal_among_perturbed_solutions() {
        use tdx_storage::Value;
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let jc = crate::chase::concrete::c_chase(&ic, &mapping)
            .unwrap()
            .target;
        // Two other solutions: nulls resolved differently, plus extra facts.
        let sol1 = {
            let mut s = jc.map_values(|v, _| match v {
                Value::Null(_) => Value::str("42k"),
                other => *other,
            });
            s.insert_strs("Emp", &["Cyd", "Intel", "9k"], iv(0, 5));
            s
        };
        let sol2 = jc.map_values(|v, iv| match v {
            Value::Null(n) => Value::str(&format!("w{}_{}", n.0, iv.start())),
            other => *other,
        });
        assert!(is_universal_among(&ic, &jc, &[&sol1, &sol2], &mapping).unwrap());
        // sol1 is a solution but not universal: its extra fact and resolved
        // constants cannot map back into the chase result.
        assert!(!is_universal_among(&ic, &sol1, &[&jc], &mapping).unwrap());
        // A non-solution is never universal.
        let empty = TemporalInstance::new(Arc::new(mapping.target().clone()));
        assert!(!is_universal_among(&ic, &empty, &[&jc], &mapping).unwrap());
    }

    #[test]
    fn oracle_checks_equivalence_and_failure_agreement() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let jc = crate::chase::concrete::c_chase(&ic, &mapping)
            .unwrap()
            .target;
        assert_eq!(check_against_abstract_chase(&ic, &mapping, Ok(&jc)), Ok(()));
        // A lost fact and an invented fact are both caught.
        let mut lost = TemporalInstance::new(jc.schema_arc());
        for (rel, fact) in jc.iter_all().skip(1) {
            lost.insert(rel, fact.data.clone(), fact.interval);
        }
        assert!(check_against_abstract_chase(&ic, &mapping, Ok(&lost)).is_err());
        let mut invented = jc.clone();
        invented.insert_strs("Emp", &["Cyd", "IBM", "9k"], iv(0, 5));
        assert!(check_against_abstract_chase(&ic, &mapping, Ok(&invented)).is_err());
        // Theorem 19(2): a failure is right exactly on a conflicting source.
        let failure = TdxError::ChaseFailure {
            dependency: "fd".into(),
            left: "18k".into(),
            right: "20k".into(),
            interval: None,
        };
        assert!(check_against_abstract_chase(&ic, &mapping, Err(&failure)).is_err());
        let mut conflicting = ic.clone();
        conflicting.insert_strs("S", &["Ada", "20k"], iv(2013, 2014));
        assert_eq!(
            check_against_abstract_chase(&conflicting, &mapping, Err(&failure)),
            Ok(())
        );
        assert!(check_against_abstract_chase(&conflicting, &mapping, Ok(&jc)).is_err());
    }

    #[test]
    fn corollary20_alignment_on_paper_example() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        assert!(alignment_holds(&ic, &mapping, &ChaseOptions::default()).unwrap());
        assert!(alignment_holds(&ic, &mapping, &ChaseOptions::paper_faithful()).unwrap());
        assert!(alignment_holds(
            &ic,
            &mapping,
            &ChaseOptions {
                naive_normalization: true,
                ..ChaseOptions::default()
            }
        )
        .unwrap());
    }
}
