//! The abstract chase (paper Section 3).
//!
//! `chase(I_a, M) = ⟨chase(db₀, M), chase(db₁, M), …⟩`: the classical chase
//! applied to every snapshot independently, with fresh labeled nulls per
//! snapshot. On the epoch representation that means: chase each epoch's
//! snapshot once, and mark the fresh nulls as [`AValue::PerPoint`] families —
//! each time point of the epoch gets its own copy, which is exactly the
//! "distinct nulls across snapshots" requirement. Null bases are drawn from
//! one generator across epochs, so no base is reused between epochs.

use crate::abstract_view::{ASnapshot, AValue, AbstractInstance, Epoch};
use crate::chase::snapshot::snapshot_chase;
use crate::error::{Result, TdxError};
use std::sync::Arc;
use tdx_logic::SchemaMapping;
use tdx_storage::{Instance, NullGen, Value};

/// Converts a complete abstract snapshot into a storage instance.
fn to_instance(snap: &ASnapshot) -> Result<Instance> {
    let mut out = Instance::new(snap.schema_arc());
    for (rel, row) in snap.iter_all() {
        let vals: std::result::Result<Vec<Value>, TdxError> = row
            .iter()
            .map(|v| match v {
                AValue::Const(c) => Ok(Value::Const(*c)),
                other => Err(TdxError::Invalid(format!(
                    "abstract source instance must be complete, found null {other}"
                ))),
            })
            .collect();
        out.insert(rel, vals?.into());
    }
    Ok(out)
}

/// Converts a chase output snapshot back to the abstract view: fresh nulls
/// become per-point families.
fn to_asnapshot(db: &Instance, schema: Arc<tdx_logic::Schema>) -> ASnapshot {
    let mut snap = ASnapshot::new(schema);
    for (rel, row) in db.iter_all() {
        snap.insert(
            rel,
            row.iter()
                .map(|v| match v {
                    Value::Const(c) => AValue::Const(*c),
                    Value::Null(b) => AValue::PerPoint(*b),
                })
                .collect(),
        );
    }
    snap
}

/// Chases every snapshot of `ia` (paper Section 3). By Proposition 4 a
/// successful result is a universal solution; a failure means no solution
/// exists.
pub fn abstract_chase(ia: &AbstractInstance, mapping: &SchemaMapping) -> Result<AbstractInstance> {
    let target_schema = Arc::new(mapping.target().clone());
    let mut nulls = NullGen::new();
    let mut epochs = Vec::with_capacity(ia.epochs().len());
    for epoch in ia.epochs() {
        let src = to_instance(&epoch.snapshot)?;
        let chased = snapshot_chase(&src, mapping, &mut nulls).map_err(|e| match e {
            TdxError::ChaseFailure {
                dependency,
                left,
                right,
                ..
            } => TdxError::ChaseFailure {
                dependency,
                left,
                right,
                interval: Some(epoch.interval),
            },
            other => other,
        })?;
        epochs.push(Epoch {
            interval: epoch.interval,
            snapshot: to_asnapshot(&chased, Arc::clone(&target_schema)),
        });
    }
    AbstractInstance::from_epochs(target_schema, epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_view::AbstractInstanceBuilder;
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

    /// Figure 1 as an abstract instance.
    fn figure1(mapping: &SchemaMapping) -> AbstractInstance {
        let schema = Arc::new(mapping.source().clone());
        let mut b = AbstractInstanceBuilder::new(schema);
        b.add(
            "E",
            vec![AValue::str("Ada"), AValue::str("IBM")],
            iv(2012, 2014),
        );
        b.add(
            "E",
            vec![AValue::str("Ada"), AValue::str("Google")],
            Interval::from(2014),
        );
        b.add(
            "E",
            vec![AValue::str("Bob"), AValue::str("IBM")],
            iv(2013, 2018),
        );
        b.add(
            "S",
            vec![AValue::str("Ada"), AValue::str("18k")],
            Interval::from(2013),
        );
        b.add(
            "S",
            vec![AValue::str("Bob"), AValue::str("13k")],
            Interval::from(2015),
        );
        b.build()
    }

    #[test]
    fn figure3_shape() {
        // The chase of Figure 1 snapshot-by-snapshot gives Figure 3.
        let mapping = paper_mapping();
        let ja = abstract_chase(&figure1(&mapping), &mapping).unwrap();
        // 2012: {Emp(Ada, IBM, N)} with a null salary.
        let s2012 = ja.snapshot_at(2012);
        assert_eq!(s2012.total_len(), 1);
        assert!(!s2012.is_complete());
        // 2013: {Emp(Ada, IBM, 18k), Emp(Bob, IBM, N')}.
        let s2013 = ja.snapshot_at(2013);
        assert_eq!(s2013.total_len(), 2);
        let r = s2013.render();
        assert!(r.contains("Emp(Ada, IBM, 18k)"), "got {r}");
        assert!(r.contains("Emp(Bob, IBM, N"), "got {r}");
        // 2015 onward until 2018: all complete.
        let s2015 = ja.snapshot_at(2015);
        assert_eq!(s2015.total_len(), 2);
        assert!(s2015.is_complete());
        // 2018: {Emp(Ada, Google, 18k)}.
        let s2018 = ja.snapshot_at(2018);
        assert_eq!(s2018.render(), "{Emp(Ada, Google, 18k)}");
        // Before 2012: empty.
        assert!(ja.snapshot_at(0).is_empty());
    }

    #[test]
    fn nulls_differ_across_epochs() {
        let mapping = paper_mapping();
        let ja = abstract_chase(&figure1(&mapping), &mapping).unwrap();
        // The null in [2012,2013) (Ada's unknown salary) and the null in
        // [2013,2014) (Bob's) must have different bases, and both are
        // per-point families.
        let (pp1, rg1) = ja.snapshot_at(2012).null_bases();
        let (pp2, rg2) = ja.snapshot_at(2013).null_bases();
        assert!(rg1.is_empty() && rg2.is_empty());
        assert_eq!(pp1.len(), 1);
        assert_eq!(pp2.len(), 1);
        assert!(pp1.is_disjoint(&pp2));
    }

    #[test]
    fn failure_reports_epoch_interval() {
        let mapping = paper_mapping();
        let schema = Arc::new(mapping.source().clone());
        let mut b = AbstractInstanceBuilder::new(schema);
        b.add("E", vec![AValue::str("Ada"), AValue::str("IBM")], iv(5, 9));
        b.add("S", vec![AValue::str("Ada"), AValue::str("18k")], iv(5, 9));
        b.add("S", vec![AValue::str("Ada"), AValue::str("20k")], iv(7, 8));
        let ia = b.build();
        let err = abstract_chase(&ia, &mapping).unwrap_err();
        match err {
            TdxError::ChaseFailure { interval, .. } => {
                assert_eq!(interval, Some(iv(7, 8)));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_source_rejected() {
        let mapping = paper_mapping();
        let schema = Arc::new(mapping.source().clone());
        let mut b = AbstractInstanceBuilder::new(schema);
        b.add(
            "E",
            vec![AValue::str("Ada"), AValue::PerPoint(tdx_storage::NullId(0))],
            iv(0, 2),
        );
        let ia = b.build();
        assert!(matches!(
            abstract_chase(&ia, &mapping),
            Err(TdxError::Invalid(_))
        ));
    }
}
