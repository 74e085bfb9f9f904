//! The tgd fire order. Every engine fires the existential-free tgds of a
//! round first and the rest after them, each group in declaration order.
//! So two declarations of one mapping that differ only in where the
//! existential-free tgds sit chase identically, on every engine. A
//! tgd with existentials keeps its declared place among its peers.

use std::sync::Arc;
use tdx::core::check_against_abstract_chase;
use tdx::logic::{parse_schema, parse_tgd};
use tdx::workload::{
    figure4_source, late_salary_stream, paper_mapping, EmploymentConfig, EmploymentWorkload,
};
use tdx::{
    c_chase_with, ChaseOptions, DeltaBatch, IncrementalExchange, Interval, SchemaMapping,
    TemporalInstance,
};

/// `mapping` with its s-t tgds declared in reverse.
fn reversed(mapping: &SchemaMapping) -> SchemaMapping {
    SchemaMapping::new(
        mapping.source().clone(),
        mapping.target().clone(),
        mapping.st_tgds().iter().rev().cloned().collect(),
        mapping.egds().to_vec(),
    )
    .unwrap()
}

fn engines() -> [(&'static str, ChaseOptions); 3] {
    [
        ("default", ChaseOptions::default()),
        ("partitioned/2", ChaseOptions::partitioned_parallel(2)),
        ("distributed/2", ChaseOptions::distributed(2)),
    ]
}

#[test]
fn declaring_st2_first_changes_nothing_on_any_engine() {
    let st1_first = paper_mapping();
    let st2_first = reversed(&st1_first);
    assert_eq!(st2_first.st_tgds()[0].name.as_deref(), Some("st2"));
    let employment = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 25,
        horizon: 30,
        salary_coverage: 0.6,
        seed: 2,
        ..EmploymentConfig::default()
    });
    for (label, source) in [
        ("figure4", figure4_source(&st1_first)),
        ("employment/25", employment.source),
    ] {
        for (name, opts) in engines() {
            let a = c_chase_with(&source, &st1_first, &opts).unwrap();
            let b = c_chase_with(&source, &st2_first, &opts).unwrap();
            assert!(a.target == b.target, "{label} on {name}: targets differ");
            for (what, x, y) in [
                ("tgd steps", a.stats.tgd_steps, b.stats.tgd_steps),
                ("egd merges", a.stats.egd_merges, b.stats.egd_merges),
                (
                    "nulls",
                    a.stats.nulls_created as usize,
                    b.stats.nulls_created as usize,
                ),
            ] {
                assert_eq!(x, y, "{label} on {name}: {what} differ");
            }
            check_against_abstract_chase(&source, &st1_first, Ok(&a.target))
                .unwrap_or_else(|e| panic!("{label} on {name}: {e}"));
        }
    }
}

#[test]
fn declaring_st2_first_changes_nothing_in_a_two_batch_session() {
    // Salaries arrive a batch after the jobs, so the base batch mints
    // st1 nulls that the second batch's egd merges away: the schedule
    // is checked on a session that really runs the egd layer.
    let st1_first = paper_mapping();
    let st2_first = reversed(&st1_first);
    let stream = late_salary_stream(&EmploymentConfig {
        persons: 25,
        horizon: 30,
        seed: 3,
        ..EmploymentConfig::default()
    });
    let run = |mapping: &SchemaMapping| {
        let mut session = IncrementalExchange::new(mapping.clone()).unwrap();
        session
            .apply(&DeltaBatch::from_instance(&stream.base))
            .unwrap();
        session
            .apply(&DeltaBatch::from_instance(&stream.batches[0]))
            .unwrap();
        session
    };
    let (a, b) = (run(&st1_first), run(&st2_first));
    assert!(a.target() == b.target(), "session targets differ");
    let (sa, sb) = (a.stats(), b.stats());
    assert!(sa.egd_merges >= 1, "{sa:?}");
    assert_eq!(sa.tgd_steps, sb.tgd_steps);
    assert_eq!(sa.egd_merges, sb.egd_merges);
    assert_eq!(sa.nulls_created, sb.nulls_created);
    check_against_abstract_chase(&stream.union(), &st1_first, Ok(&a.target())).unwrap();
}

/// `B: R(x) → ∃y,z T(x,y) ∧ U(x,z)` and `C: R(x) → ∃y T(x,y)`, declared
/// in the given order. Neither is existential-free, so the schedule keeps
/// their declared order.
fn b_and_c(b_first: bool) -> (SchemaMapping, TemporalInstance) {
    let b = parse_tgd("R(x) -> T(x,y) & U(x,z)").unwrap().named("B");
    let c = parse_tgd("R(x) -> T(x,y)").unwrap().named("C");
    let mapping = SchemaMapping::new(
        parse_schema("R(x).").unwrap(),
        parse_schema("T(x, y). U(x, z).").unwrap(),
        if b_first { vec![b, c] } else { vec![c, b] },
        vec![],
    )
    .unwrap();
    let mut source = TemporalInstance::new(Arc::new(mapping.source().clone()));
    source.insert_strs("R", &["a"], Interval::new(0, 5));
    source.insert_strs("R", &["b"], Interval::new(3, 8));
    source.insert_strs("R", &["c"], Interval::from(10));
    (mapping, source)
}

#[test]
fn tgds_with_existentials_keep_their_declared_order() {
    // B first witnesses C: 2 nulls per R fact. C first leaves B
    // unwitnessed: 3 per fact. Sorting by existential count would pick
    // the second; the fire order keeps the first as declared.
    for (b_first, nulls) in [(true, 6u64), (false, 9)] {
        let (mapping, source) = b_and_c(b_first);
        for (name, opts) in engines() {
            let r = c_chase_with(&source, &mapping, &opts).unwrap();
            assert_eq!(r.stats.nulls_created, nulls, "b_first={b_first} on {name}");
            check_against_abstract_chase(&source, &mapping, Ok(&r.target))
                .unwrap_or_else(|e| panic!("b_first={b_first} on {name}: {e}"));
        }
    }
}
