//! Certain answers (paper Section 5, Theorem 21 and Corollary 22).
//!
//! `certain(q, ⟦I_c⟧, M)` — the tuples present in `q`'s answer on *every*
//! solution, snapshot by snapshot — equals naïve evaluation of `q⁺` on the
//! result of the c-chase (Corollary 22). This module provides both routes
//! and the cross-check used by the `QA` experiment:
//!
//! * the **concrete route**: c-chase then [`naive_eval_concrete`];
//! * the **abstract route**: abstract chase then per-epoch snapshot naïve
//!   evaluation.

use crate::abstract_view::{AValue, AbstractInstance};
use crate::chase::abstract_chase::abstract_chase;
use crate::chase::concrete::{c_chase_with, ChaseOptions};
use crate::error::Result;
use crate::query::concrete::{naive_eval_concrete, TemporalAnswers};
use crate::query::naive::naive_eval_snapshot;
use crate::semantics::semantics;
use std::collections::BTreeSet;
use tdx_logic::{Constant, SchemaMapping, UnionQuery};
use tdx_storage::{Instance, NullId, TemporalInstance, Value};
use tdx_temporal::Interval;

/// Per-epoch answer sets over the whole timeline, coalesced.
pub type EpochAnswers = Vec<(Interval, BTreeSet<Vec<Constant>>)>;

/// Evaluates `q` snapshot-wise on an abstract instance with naïve semantics
/// (`q(J_a)↓` in the paper): per epoch, nulls act as fresh constants and
/// null-carrying tuples are dropped.
pub fn naive_eval_abstract(ja: &AbstractInstance, q: &UnionQuery) -> Result<EpochAnswers> {
    let mut out: EpochAnswers = Vec::new();
    for epoch in ja.epochs() {
        // Encode scoped nulls injectively into plain labeled nulls: inside
        // one epoch a per-point family member and a rigid null are both just
        // "some null", but distinct bases must stay distinct.
        let mut db = Instance::new(epoch.snapshot.schema_arc());
        for (rel, row) in epoch.snapshot.iter_all() {
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
        let answers = naive_eval_snapshot(&db, q)?;
        match out.last_mut() {
            Some((iv, last)) if *last == answers => {
                *iv = iv.join(&epoch.interval).expect("adjacent epochs");
            }
            _ => out.push((epoch.interval, answers)),
        }
    }
    Ok(out)
}

/// Certain answers via the concrete route (Corollary 22): run the c-chase,
/// then naïve-evaluate `q⁺` on the concrete solution.
pub fn certain_answers_concrete(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    q: &UnionQuery,
    opts: &ChaseOptions,
) -> Result<TemporalAnswers> {
    let chased = c_chase_with(ic, mapping, opts)?;
    naive_eval_concrete(&chased.target, q)
}

/// Certain answers via the abstract route: chase `⟦I_c⟧` snapshot-wise
/// (Proposition 4 gives a universal solution), then naïve-evaluate per
/// snapshot.
pub fn certain_answers_abstract(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    q: &UnionQuery,
) -> Result<EpochAnswers> {
    let ja = abstract_chase(&semantics(ic), mapping)?;
    naive_eval_abstract(&ja, q)
}

/// Theorem 21 instance check: `⟦q⁺(J_c)↓⟧ = q(⟦J_c⟧)↓` for a given concrete
/// instance (typically a c-chase result).
pub fn theorem21_holds(jc: &TemporalInstance, q: &UnionQuery) -> Result<bool> {
    let concrete = naive_eval_concrete(jc, q)?.epochs();
    let abstract_side = naive_eval_abstract(&semantics(jc), q)?;
    Ok(concrete == abstract_side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdx_logic::{parse_egd, parse_query, parse_schema, parse_tgd};

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
    fn corollary22_concrete_equals_abstract() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        for q_text in [
            "Q(n, s) :- Emp(n, c, s)",
            "Q(n) :- Emp(n, c, s)",
            "Q(n, c) :- Emp(n, c, s)",
            "Q(m) :- Emp(Ada, c, s) & Emp(m, c, s2)",
        ] {
            let q: UnionQuery = parse_query(q_text).unwrap().into();
            let concrete = certain_answers_concrete(&ic, &mapping, &q, &ChaseOptions::default())
                .unwrap()
                .epochs();
            let abstract_side = certain_answers_abstract(&ic, &mapping, &q).unwrap();
            assert_eq!(concrete, abstract_side, "query: {q_text}");
        }
    }

    #[test]
    fn certain_salary_answers_match_paper() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let q: UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
        let ans = certain_answers_concrete(&ic, &mapping, &q, &ChaseOptions::default()).unwrap();
        // Certain: Ada earns 18k from 2013 on; Bob earns 13k on [2015,2018).
        // Ada's 2012 salary and Bob's 2013–2015 salary are unknown — not
        // certain.
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.at(2012).len(), 0);
        assert_eq!(ans.at(2013).len(), 1);
        assert_eq!(ans.at(2016).len(), 2);
        assert_eq!(ans.at(2018).len(), 1);
    }

    #[test]
    fn theorem21_on_chase_result() {
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let jc = crate::chase::concrete::c_chase(&ic, &mapping)
            .unwrap()
            .target;
        for q_text in [
            "Q(n, s) :- Emp(n, c, s)",
            "Q(n, c) :- Emp(n, c, s)",
            "Q(m, c) :- Emp(Ada, c, s) & Emp(m, c, s2)",
        ] {
            let q: UnionQuery = parse_query(q_text).unwrap().into();
            assert!(theorem21_holds(&jc, &q).unwrap(), "query: {q_text}");
        }
    }

    #[test]
    fn certain_answers_are_contained_in_any_solution_answers() {
        // Soundness of certain answers: build a fatter solution by resolving
        // nulls and adding facts; every certain answer must appear in it.
        let mapping = paper_mapping();
        let ic = figure4(&mapping);
        let q: UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
        let certain =
            certain_answers_concrete(&ic, &mapping, &q, &ChaseOptions::default()).unwrap();
        // A solution: chase result with nulls replaced by concrete salaries
        // plus an extra unrelated fact.
        let jc = crate::chase::concrete::c_chase(&ic, &mapping)
            .unwrap()
            .target;
        let mut solution = jc.map_values(|v, _| match v {
            Value::Null(_) => Value::str("42k"),
            other => *other,
        });
        solution.insert_strs("Emp", &["Cyd", "Intel", "9k"], iv(0, 1));
        let solution_answers = naive_eval_concrete(&solution, &q).unwrap();
        for (tuple, set) in certain.rows() {
            let sol = solution_answers
                .rows()
                .find(|(t, _)| t == &tuple)
                .expect("certain tuple present in solution");
            for ivl in set.intervals() {
                assert!(sol.1.covers(ivl));
            }
        }
    }
}
