//! Cores of solutions (paper Section 7: "the notion of core").
//!
//! The *core* of an instance with nulls is a smallest sub-instance it
//! retracts onto — for data exchange, the core of a universal solution is
//! the smallest universal solution (Fagin, Kolaitis & Popa). The paper lists
//! porting this notion to temporal data as future work; the natural lift is
//! **pointwise**: take the core of every snapshot. Because snapshots are
//! uniform within epochs and per-point nulls are independent across
//! snapshots, the pointwise core of a concrete instance is computable
//! epoch-by-epoch and reassembles into a concrete instance.

use crate::abstract_view::AValue;
use crate::hom::snapshot_hom;
use crate::semantics::semantics;
use std::sync::Arc;
use tdx_storage::{Instance, TemporalInstance, Value};

/// Computes the core of one snapshot by greedy retraction: while some
/// endomorphism avoids a fact, replace the instance by its image.
///
/// Deterministic (facts are tried in insertion order) and exact for the
/// sizes data exchange produces; worst-case exponential like all core
/// computation.
pub fn snapshot_core(db: &Instance) -> Instance {
    let mut current = db.clone();
    loop {
        let mut shrunk = false;
        let facts: Vec<(tdx_logic::RelId, tdx_storage::Row)> = current
            .iter_all()
            .map(|(rel, row)| (rel, Arc::clone(row)))
            .collect();
        for (rel, row) in &facts {
            // Only facts containing nulls can be redundant: a hom is the
            // identity on constants, so an all-constant fact is always in
            // the image of itself.
            if row.iter().all(|v| !v.is_null()) {
                continue;
            }
            // Target: current minus this fact.
            let mut target = Instance::new(current.schema_arc());
            for (r2, row2) in current.iter_all() {
                if !(r2 == *rel && row2 == row) {
                    target.insert(r2, Arc::clone(row2));
                }
            }
            if let Some(h) = snapshot_hom(&current, &target) {
                // Retract: replace by the homomorphic image.
                current = current.map_values(|v| match v {
                    Value::Null(n) => h.get(n).copied().unwrap_or(*v),
                    c => *c,
                });
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// The pointwise core of a concrete instance: the core of every snapshot of
/// `⟦J_c⟧`, reassembled into concrete facts and coalesced.
///
/// The result represents exactly the sequence `⟨core(db₀), core(db₁), …⟩`.
/// For a c-chase result this removes the "subsumed" annotated nulls — e.g.
/// a `∃s Emp(n,c,s)` witness that coexists with a constant-salary fact for
/// the same `(n, c)` over the same interval.
pub fn concrete_core(jc: &TemporalInstance) -> TemporalInstance {
    let ia = semantics(jc);
    let mut out = TemporalInstance::new(jc.schema_arc());
    for epoch in ia.epochs() {
        // Encode the epoch snapshot (PerPoint bases become plain nulls; a
        // `⟦·⟧` image never contains rigid nulls).
        let mut db = Instance::new(jc.schema_arc());
        for (rel, row) in epoch.snapshot.iter_all() {
            db.insert(
                rel,
                row.iter()
                    .map(|v| match v {
                        AValue::Const(c) => Value::Const(*c),
                        AValue::PerPoint(b) => Value::Null(*b),
                        AValue::Rigid(b) => Value::Null(*b),
                    })
                    .collect(),
            );
        }
        let core = snapshot_core(&db);
        for (rel, row) in core.iter_all() {
            out.insert(rel, Arc::clone(row), epoch.interval);
        }
    }
    out.coalesced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::concrete::c_chase;
    use crate::chase::incremental::tests::batch;
    use crate::chase::incremental::IncrementalExchange;
    use crate::hom::hom_equivalent;
    use crate::query::certain::theorem21_holds;
    use tdx_logic::{
        parse_egd, parse_mapping, parse_query, parse_schema, parse_tgd, SchemaMapping,
    };
    use tdx_storage::NullId;
    use tdx_temporal::Interval;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn target_schema() -> Arc<tdx_logic::Schema> {
        Arc::new(parse_schema("Emp(name, company, salary).").unwrap())
    }

    #[test]
    fn redundant_null_fact_removed() {
        let mut db = Instance::new(target_schema());
        db.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::str("18k")],
        );
        db.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        let core = snapshot_core(&db);
        assert_eq!(core.total_len(), 1);
        assert!(core.is_complete());
    }

    #[test]
    fn non_redundant_nulls_stay() {
        let mut db = Instance::new(target_schema());
        db.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        db.insert_values(
            "Emp",
            [Value::str("Bob"), Value::str("IBM"), Value::Null(NullId(1))],
        );
        let core = snapshot_core(&db);
        assert_eq!(core.total_len(), 2);
    }

    #[test]
    fn core_is_idempotent_and_equivalent() {
        let mut db = Instance::new(target_schema());
        db.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::str("18k")],
        );
        db.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        db.insert_values(
            "Emp",
            [
                Value::str("Bob"),
                Value::Null(NullId(1)),
                Value::Null(NullId(2)),
            ],
        );
        let core = snapshot_core(&db);
        assert_eq!(snapshot_core(&core), core);
        assert!(crate::hom::hom_equivalent_snapshots(&db, &core));
        assert!(core.total_len() < db.total_len());
    }

    /// A chase result with a redundant witness: without the egd, the
    /// ∃-tgd's null survives next to the constant fact. In one batch the
    /// existential-free tgd fires first and witnesses the ∃-tgd wherever
    /// the salary is known, so the salary arrives a batch after the job.
    fn chase_with_redundant_witness() -> TemporalInstance {
        let mapping = SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap(),
                parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)").unwrap(),
            ],
            vec![],
        )
        .unwrap();
        let mut session = IncrementalExchange::new(mapping.clone()).unwrap();
        for fact in [
            ("E", &["Ada", "IBM"][..], iv(0, 10)),
            ("S", &["Ada", "18k"][..], iv(4, 10)),
        ] {
            session.apply(&batch(&mapping, &[fact])).unwrap();
        }
        session.target()
    }

    #[test]
    fn concrete_core_prunes_subsumed_witnesses() {
        let jc = chase_with_redundant_witness();
        // The chase keeps a null fact Emp(Ada, IBM, N) over [0,10) next
        // to Emp(Ada, IBM, 18k) on [4,10): there the null fact is
        // redundant.
        let core = concrete_core(&jc);
        let sem = semantics(&core);
        // At t=2 only the null fact exists.
        assert_eq!(sem.snapshot_at(2).total_len(), 1);
        assert!(!sem.snapshot_at(2).is_complete());
        // At t=6 the core holds just the constant fact.
        assert_eq!(sem.snapshot_at(6).render(), "{Emp(Ada, IBM, 18k)}");
        // Core is smaller but homomorphically equivalent.
        assert!(hom_equivalent(&semantics(&jc), &sem));
        let before: usize = (0..12)
            .map(|t| semantics(&jc).snapshot_at(t).total_len())
            .sum();
        let after: usize = (0..12).map(|t| sem.snapshot_at(t).total_len()).sum();
        assert!(after < before);
    }

    #[test]
    fn core_of_paper_chase_result_is_itself() {
        // Figure 9 has no redundancy: the egd already merged every
        // subsumable null.
        let engine = parse_mapping(
            "source { E(name, company)  S(name, salary) }
             target { Emp(name, company, salary) }
             tgd st1: E(n,c) -> exists s . Emp(n,c,s)
             tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)
             egd fd:  Emp(n,c,s) & Emp(n,c,s2) -> s = s2",
        )
        .unwrap();
        let mut ic = TemporalInstance::new(Arc::new(engine.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        ic.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        ic.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        ic.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        ic.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        let jc = c_chase(&ic, &engine).unwrap().target;
        let core = concrete_core(&jc);
        assert!(semantics(&jc).eq_semantic(&semantics(&core)));
    }

    #[test]
    fn certain_answers_survive_core() {
        let jc = chase_with_redundant_witness();
        let core = concrete_core(&jc);
        let q: tdx_logic::UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
        let full = crate::query::concrete::naive_eval_concrete(&jc, &q).unwrap();
        let on_core = crate::query::concrete::naive_eval_concrete(&core, &q).unwrap();
        assert_eq!(full.epochs(), on_core.epochs());
        // And the evaluator is still semantics-aligned on the core.
        assert!(theorem21_holds(&core, &q).unwrap());
        let _ = parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2").unwrap();
    }
}
