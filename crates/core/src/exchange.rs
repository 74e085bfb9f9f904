//! The high-level data exchange facade.
//!
//! [`DataExchange`] bundles a validated schema mapping with the operations a
//! user of the library actually performs: materialize a concrete solution,
//! chase the abstract view, answer queries with certain-answer semantics,
//! and verify results.

use crate::abstract_view::AbstractInstance;
use crate::chase::abstract_chase::abstract_chase;
use crate::chase::concrete::{c_chase_with, CChaseResult, ChaseOptions};
use crate::error::{Result, TdxError};
use crate::query::certain::{certain_answers_abstract, EpochAnswers};
use crate::query::concrete::{naive_eval_concrete, TemporalAnswers};
use crate::semantics::semantics;
use crate::verify::is_solution_concrete;
use std::sync::Arc;
use tdx_logic::{scan_facts, FactTerm, RelId, Schema, SchemaMapping, Symbol, UnionQuery};
use tdx_storage::fxhash::FxHashMap;
use tdx_storage::{NullId, TemporalFact, TemporalInstance, Value};

/// A configured temporal data exchange engine.
pub struct DataExchange {
    mapping: SchemaMapping,
    options: ChaseOptions,
}

impl DataExchange {
    /// Wraps a validated schema mapping with default chase options.
    pub fn new(mapping: SchemaMapping) -> DataExchange {
        DataExchange {
            mapping,
            options: ChaseOptions::default(),
        }
    }

    /// Overrides the chase options.
    pub fn with_options(mut self, options: ChaseOptions) -> DataExchange {
        self.options = options;
        self
    }

    /// The schema mapping `M = (R_S, R_T, Σ_st, Σ_eg)`.
    pub fn mapping(&self) -> &SchemaMapping {
        &self.mapping
    }

    /// The chase options in effect.
    pub fn options(&self) -> &ChaseOptions {
        &self.options
    }

    /// An empty concrete source instance over `R_S`, ready to be filled.
    pub fn new_source(&self) -> TemporalInstance {
        TemporalInstance::new(Arc::new(self.mapping.source().clone()))
    }

    /// Loads a source instance from fact-file text
    /// (`E(Ada, IBM) @ [2012, 2014)`, one fact per line; see
    /// [`tdx_logic::parse_facts`]). Sources must be complete (paper
    /// Section 2): named nulls (`_x`) are rejected.
    pub fn load_source(&self, text: &str) -> Result<TemporalInstance> {
        load_instance(self.mapping.source(), text, false, "source")
    }

    /// Loads a candidate *target* instance from fact-file text. Target
    /// instances may contain named labeled nulls (`_x` — the annotated null
    /// `x` of this file, annotated with the fact's interval). Useful
    /// together with [`DataExchange::verify_solution`].
    pub fn load_target(&self, text: &str) -> Result<TemporalInstance> {
        load_instance(self.mapping.target(), text, true, "target")
    }

    /// The source schema.
    pub fn source_schema(&self) -> &Schema {
        self.mapping.source()
    }

    /// The target schema.
    pub fn target_schema(&self) -> &Schema {
        self.mapping.target()
    }

    /// Materializes a concrete solution via the c-chase (Section 4.3).
    pub fn exchange(&self, source: &TemporalInstance) -> Result<CChaseResult> {
        c_chase_with(source, &self.mapping, &self.options)
    }

    /// Opens a stateful incremental session: the target stays materialized
    /// between calls and each [`DeltaBatch`](crate::chase::incremental::DeltaBatch)
    /// of source changes re-runs only the affected chase work (see
    /// [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)).
    pub fn incremental(&self) -> Result<crate::chase::incremental::IncrementalExchange> {
        crate::chase::incremental::IncrementalExchange::with_options(
            self.mapping.clone(),
            self.options.clone(),
        )
    }

    /// Opens a *durable* incremental session persisting into `state_dir`:
    /// committed batches are write-ahead logged, state is periodically
    /// compacted into an atomic snapshot, and opening the same directory
    /// again recovers the session exactly — reconnecting to surviving
    /// partition servers on the TCP transport (see
    /// [`DurableExchange`](crate::chase::durable::DurableExchange)).
    pub fn durable(
        &self,
        state_dir: impl Into<std::path::PathBuf>,
    ) -> Result<crate::chase::durable::DurableExchange> {
        crate::chase::durable::DurableExchange::open(
            self.mapping.clone(),
            self.options.clone(),
            state_dir,
        )
    }

    /// Chases the abstract view of a concrete source (Section 3); mostly
    /// useful for validation and the experiments.
    pub fn exchange_abstract(&self, source: &TemporalInstance) -> Result<AbstractInstance> {
        abstract_chase(&semantics(source), &self.mapping)
    }

    /// Certain answers of `q` for `source` (Corollary 22): c-chase plus
    /// naïve evaluation of `q⁺`.
    pub fn certain_answers(
        &self,
        source: &TemporalInstance,
        q: &UnionQuery,
    ) -> Result<TemporalAnswers> {
        let solution = self.exchange(source)?;
        naive_eval_concrete(&solution.target, q)
    }

    /// Certain answers via the abstract route (for cross-checking).
    pub fn certain_answers_abstract(
        &self,
        source: &TemporalInstance,
        q: &UnionQuery,
    ) -> Result<EpochAnswers> {
        certain_answers_abstract(source, &self.mapping, q)
    }

    /// Verifies that `jc` is a concrete solution for `source`.
    pub fn verify_solution(
        &self,
        source: &TemporalInstance,
        jc: &TemporalInstance,
    ) -> Result<bool> {
        is_solution_concrete(source, jc, &self.mapping)
    }
}

/// Reads fact-file text into an instance over `schema` in one pass: the
/// scanner hands each fact over and it is checked against the schema and
/// pushed onto its relation's list; each list is then bulk-loaded once.
/// Schema errors name the fact's `line:col`.
fn load_instance(
    schema: &Schema,
    text: &str,
    allow_nulls: bool,
    side: &str,
) -> Result<TemporalInstance> {
    let mut rels: Vec<Vec<TemporalFact>> = vec![Vec::new(); schema.len()];
    let mut null_names: FxHashMap<Symbol, NullId> = FxHashMap::default();
    // Fact files list a relation's facts together: remember the last one.
    let mut last: Option<(Symbol, RelId, usize)> = None;
    let mut data: Vec<Value> = Vec::new();
    scan_facts(text, |f| {
        let at = |msg: String| TdxError::Invalid(format!("fact at {}:{}: {msg}", f.line, f.col));
        let (rel, arity) = match last {
            Some((name, rel, arity)) if name == f.relation => (rel, arity),
            _ => {
                let rel = schema.rel_id(f.relation).ok_or_else(|| {
                    at(format!(
                        "relation {} is not in the {side} schema",
                        f.relation
                    ))
                })?;
                let arity = schema.relation(rel).arity();
                last = Some((f.relation, rel, arity));
                (rel, arity)
            }
        };
        if arity != f.values.len() {
            return Err(at(format!(
                "{}(…) has {} values, relation has arity {arity}",
                f.relation,
                f.values.len()
            )));
        }
        data.clear();
        for t in f.values {
            data.push(match *t {
                FactTerm::Const(c) => Value::Const(c),
                FactTerm::Null(name) if !allow_nulls => {
                    return Err(at(format!(
                        "{side} instances must be complete; found null {name}"
                    )))
                }
                FactTerm::Null(name) => {
                    let next = NullId(null_names.len() as u64);
                    Value::Null(*null_names.entry(name).or_insert(next))
                }
            });
        }
        rels[rel.0 as usize].push(TemporalFact {
            data: data.as_slice().into(),
            interval: f.interval,
        });
        Ok(())
    })?;
    let mut out = TemporalInstance::new(Arc::new(schema.clone()));
    for (r, facts) in rels.iter().enumerate() {
        out.extend(RelId(r as u32), facts);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdx_logic::{parse_mapping, parse_query};
    use tdx_temporal::Interval;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn engine() -> DataExchange {
        DataExchange::new(
            parse_mapping(
                "source { E(name, company)  S(name, salary) }\n\
                 target { Emp(name, company, salary) }\n\
                 tgd st1: E(n,c) -> exists s . Emp(n,c,s)\n\
                 tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)\n\
                 egd fd: Emp(n,c,s) & Emp(n,c,s2) -> s = s2\n",
            )
            .unwrap(),
        )
    }

    #[test]
    fn end_to_end_paper_example() {
        let ex = engine();
        let mut src = ex.new_source();
        src.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        src.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        src.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        src.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        src.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        let solution = ex.exchange(&src).unwrap();
        assert_eq!(solution.target.total_len(), 5);
        assert!(ex.verify_solution(&src, &solution.target).unwrap());
        let q = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
        let ans = ex.certain_answers(&src, &q).unwrap();
        assert_eq!(ans.len(), 2);
        // Cross-check against the abstract route.
        let abs = ex.certain_answers_abstract(&src, &q).unwrap();
        assert_eq!(ans.epochs(), abs);
    }

    #[test]
    fn load_source_and_target_from_text() {
        let ex = engine();
        let src = ex
            .load_source(
                "E(Ada, IBM)    @ [2012, 2014)\n\
                 S(Ada, 18k)    @ [2013, inf)\n",
            )
            .unwrap();
        assert_eq!(src.total_len(), 2);
        // Nulls rejected in sources…
        assert!(ex.load_source("E(Ada, _c) @ [0, 1)").is_err());
        // …allowed (and shared by name) in targets.
        let tgt = ex
            .load_target(
                "Emp(Ada, IBM, _s) @ [2012, 2013)\n\
                 Emp(Ada, IBM, 18k) @ [2013, 2014)\n",
            )
            .unwrap();
        assert_eq!(tgt.nulls().len(), 1);
        // Unknown relation / wrong arity.
        assert!(ex.load_source("Nope(a) @ [0, 1)").is_err());
        assert!(ex.load_source("E(a) @ [0, 1)").is_err());
    }

    #[test]
    fn verify_loaded_target_as_solution() {
        let ex = engine();
        let src = ex
            .load_source("E(Ada, IBM) @ [2012, 2014)\nS(Ada, 18k) @ [2013, inf)")
            .unwrap();
        // A hand-written solution: unknown salary in 2012, known after.
        let good = ex
            .load_target(
                "Emp(Ada, IBM, _s) @ [2012, 2013)\n\
                 Emp(Ada, IBM, 18k) @ [2013, 2014)",
            )
            .unwrap();
        assert!(ex.verify_solution(&src, &good).unwrap());
        // Missing the 2013 fact: not a solution.
        let bad = ex.load_target("Emp(Ada, IBM, _s) @ [2012, 2013)").unwrap();
        assert!(!ex.verify_solution(&src, &bad).unwrap());
    }

    #[test]
    fn options_builder() {
        let ex = engine().with_options(ChaseOptions::paper_faithful());
        assert!(!ex.options().renormalize_between_egd_rounds);
        assert_eq!(ex.source_schema().len(), 2);
        assert_eq!(ex.target_schema().len(), 1);
    }
}
