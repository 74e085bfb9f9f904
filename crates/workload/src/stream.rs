//! Delta-stream scenarios: a base instance plus K update batches.
//!
//! The incremental exchange session (`tdx_core::IncrementalExchange`)
//! consumes source *streams*, not one-shot instances. This module splits
//! every workload family into `base + batches` such that the union of all
//! parts is **exactly** the monolithic workload — so an incremental replay
//! is directly comparable (and hom-equivalent) to a from-scratch chase of
//! the original generator output, which is what the
//! `c_chase/incremental/*` benchmarks and the equivalence suite exploit.

use crate::adversarial::nested_mapping;
use crate::employment::{EmploymentConfig, EmploymentWorkload};
use crate::random::{RandomConfig, RandomWorkload};
use crate::sparse::{clustered_instance, ClusteredConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tdx_logic::{parse_egd, parse_schema, parse_tgd, RelId, SchemaMapping};
use tdx_storage::{Row, TemporalInstance};
use tdx_temporal::Interval;

/// How the stream distributes facts over its batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOrder {
    /// Batch facts are drawn uniformly at random from the whole timeline —
    /// the adversarial case for partition locality (every batch dirties
    /// most partitions).
    Uniform,
    /// Batches carry the latest facts (sorted by interval start) — the
    /// production-shaped case where updates arrive near the end of the
    /// timeline and dirty few partitions.
    TailLocal,
}

/// Knobs for splitting a workload into a delta stream.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Number of update batches after the base instance.
    pub batches: usize,
    /// Fraction of the total fact count each batch carries (the base gets
    /// the remainder; clamped so the base keeps at least one fact).
    pub batch_fraction: f64,
    /// Batch composition.
    pub order: BatchOrder,
    /// RNG seed for the uniform draw.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batches: 5,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            seed: 0x5eed,
        }
    }
}

/// A workload split into a base instance and K update batches.
pub struct DeltaStream {
    /// The schema mapping of the family.
    pub mapping: SchemaMapping,
    /// The base instance an incremental session is seeded with.
    pub base: TemporalInstance,
    /// The update batches, in replay order.
    pub batches: Vec<TemporalInstance>,
}

impl DeltaStream {
    /// The union of base and all batches — equals the monolithic workload
    /// instance the stream was split from.
    pub fn union(&self) -> TemporalInstance {
        let mut out = self.base.clone();
        for b in &self.batches {
            for (rel, fact) in b.iter_all() {
                out.insert(rel, Arc::clone(&fact.data), fact.interval);
            }
        }
        out
    }

    /// Total number of facts across base and batches.
    pub fn total_len(&self) -> usize {
        self.base.total_len() + self.batches.iter().map(|b| b.total_len()).sum::<usize>()
    }
}

/// One commit of a stream replayed with refines
/// ([`with_narrowing_refines`]).
#[derive(Clone, Debug, PartialEq)]
pub enum StreamStep {
    /// Insert every fact of the instance.
    Insert(TemporalInstance),
    /// Assert the row of the relation exactly over the interval,
    /// superseding every interval the row held: a narrowing refine.
    Refine(RelId, Row, Interval),
}

/// The update batches of `stream` as commits, with narrowing refines
/// mixed in: after every `every`-th batch comes a refine that closes one
/// committed open-ended fact of `rel`, `[s, ∞)`, to `[s, s + k)` with `k`
/// drawn from 1..=3 — the refine the `ingest` benchmark stream issues
/// (there `rel` is `E`: a job gets its real end). The fact is drawn with
/// `seed` among those the base and the batches so far committed; a batch
/// after which none is open gets no refine, and `every = 0` adds none.
/// The base instance is not a step: it seeds the session.
pub fn with_narrowing_refines(
    stream: &DeltaStream,
    rel: RelId,
    every: usize,
    seed: u64,
) -> Vec<StreamStep> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut open: Vec<(Row, u64)> = Vec::new();
    let note_open = |inst: &TemporalInstance, open: &mut Vec<(Row, u64)>| {
        for f in inst.facts(rel) {
            if f.interval.is_unbounded() {
                open.push((Arc::clone(&f.data), f.interval.start()));
            }
        }
    };
    note_open(&stream.base, &mut open);
    let mut steps = Vec::new();
    for (i, batch) in stream.batches.iter().enumerate() {
        steps.push(StreamStep::Insert(batch.clone()));
        note_open(batch, &mut open);
        if every > 0 && (i + 1) % every == 0 && !open.is_empty() {
            let (row, start) = open.swap_remove(rng.gen_range(0..open.len()));
            let end = start + rng.gen_range(1..4u64);
            steps.push(StreamStep::Refine(rel, row, Interval::new(start, end)));
        }
    }
    steps
}

/// Splits `full` into a [`DeltaStream`] according to `cfg`.
pub fn split_stream(
    mapping: SchemaMapping,
    full: &TemporalInstance,
    cfg: &StreamConfig,
) -> DeltaStream {
    let mut facts: Vec<(RelId, Row, Interval)> = full
        .iter_all()
        .map(|(rel, f)| (rel, Arc::clone(&f.data), f.interval))
        .collect();
    let total = facts.len();
    let per_batch = ((total as f64 * cfg.batch_fraction).ceil() as usize).max(1);
    let tail = (per_batch * cfg.batches).min(total.saturating_sub(1));
    match cfg.order {
        BatchOrder::Uniform => {
            // Fisher–Yates over the deterministic fact order.
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            for i in (1..facts.len()).rev() {
                facts.swap(i, rng.gen_range(0..i + 1));
            }
        }
        BatchOrder::TailLocal => {
            facts.sort_by_key(|(_, _, iv)| (iv.start(), *iv));
        }
    }
    let schema = full.schema_arc();
    let build = |chunk: &[(RelId, Row, Interval)]| {
        let mut inst = TemporalInstance::new(Arc::clone(&schema));
        for (rel, data, iv) in chunk {
            inst.insert(*rel, Arc::clone(data), *iv);
        }
        inst
    };
    let split_at = total - tail;
    let base = build(&facts[..split_at]);
    let batches: Vec<TemporalInstance> = facts[split_at..]
        .chunks(per_batch.max(1))
        .map(build)
        .collect();
    DeltaStream {
        mapping,
        base,
        batches,
    }
}

/// An employment-family delta stream (the paper's running mapping).
pub fn employment_stream(w: &EmploymentConfig, cfg: &StreamConfig) -> DeltaStream {
    let full = EmploymentWorkload::generate(w);
    split_stream(full.mapping, &full.source, cfg)
}

/// An employment stream whose salaries arrive a batch after the jobs: the
/// base holds every `E` fact and the one batch every `S` fact. The base
/// has no salary to witness st1, so it mints a null per job fragment; the
/// batch fires st2 and the egd merges those nulls into its constants.
pub fn late_salary_stream(w: &EmploymentConfig) -> DeltaStream {
    let full = EmploymentWorkload::generate(w);
    let salary = full
        .mapping
        .source()
        .rel_id("S".into())
        .expect("employment source has S");
    let schema = full.source.schema_arc();
    let mut base = TemporalInstance::new(Arc::clone(&schema));
    let mut salaries = TemporalInstance::new(schema);
    for (rel, fact) in full.source.iter_all() {
        let part = if rel == salary {
            &mut salaries
        } else {
            &mut base
        };
        part.insert(rel, Arc::clone(&fact.data), fact.interval);
    }
    DeltaStream {
        mapping: full.mapping,
        base,
        batches: vec![salaries],
    }
}

/// A nested-interval (adversarial normalization) delta stream.
pub fn nested_stream(n: usize, cfg: &StreamConfig) -> DeltaStream {
    let (mapping, source) = nested_mapping(n);
    split_stream(mapping, &source, cfg)
}

/// A sparse/clustered delta stream: the clustered join instance under a
/// mapping that exchanges each cluster pair into an existential target row,
/// so incremental renormalization work stays confined to the clusters a
/// batch touches.
pub fn sparse_stream(c: &ClusteredConfig, cfg: &StreamConfig) -> DeltaStream {
    let mapping = SchemaMapping::new(
        parse_schema("R(k). S(k).").unwrap(),
        parse_schema("T(k, w).").unwrap(),
        vec![parse_tgd("R(k) & S(k) -> exists w . T(k, w)")
            .unwrap()
            .named("pair")],
        vec![parse_egd("T(k, w) & T(k, w2) -> w = w2")
            .unwrap()
            .named("wfd")],
    )
    .expect("valid sparse mapping");
    let (instance, _) = clustered_instance(c);
    // Rebuild over the mapping's own source schema object.
    let mut src = TemporalInstance::new(Arc::new(mapping.source().clone()));
    for (rel, fact) in instance.iter_all() {
        src.insert(rel, Arc::clone(&fact.data), fact.interval);
    }
    split_stream(mapping, &src, cfg)
}

/// A random-workload delta stream (for property tests).
pub fn random_stream(w: &RandomConfig, cfg: &StreamConfig) -> DeltaStream {
    let full = RandomWorkload::generate(w);
    split_stream(full.mapping, &full.source, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fact_set(inst: &TemporalInstance) -> BTreeSet<String> {
        inst.iter_all()
            .map(|(rel, f)| format!("{rel:?}{:?}@{}", f.data, f.interval))
            .collect()
    }

    #[test]
    fn union_reconstructs_the_monolithic_workload() {
        let wcfg = EmploymentConfig {
            persons: 20,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        };
        let full = EmploymentWorkload::generate(&wcfg);
        for order in [BatchOrder::Uniform, BatchOrder::TailLocal] {
            let stream = employment_stream(
                &wcfg,
                &StreamConfig {
                    batches: 4,
                    batch_fraction: 0.05,
                    order,
                    ..StreamConfig::default()
                },
            );
            assert_eq!(stream.batches.len(), 4, "{order:?}");
            assert_eq!(fact_set(&stream.union()), fact_set(&full.source));
            assert_eq!(stream.total_len(), full.source.total_len());
            for b in &stream.batches {
                assert!(b.total_len() >= 1);
            }
        }
    }

    #[test]
    fn splitting_is_deterministic() {
        let cfg = StreamConfig::default();
        let wcfg = EmploymentConfig {
            persons: 10,
            ..EmploymentConfig::default()
        };
        let a = employment_stream(&wcfg, &cfg);
        let b = employment_stream(&wcfg, &cfg);
        assert_eq!(a.base, b.base);
        assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn tail_local_batches_carry_the_latest_facts() {
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 15,
                horizon: 40,
                seed: 7,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 3,
                batch_fraction: 0.1,
                order: BatchOrder::TailLocal,
                ..StreamConfig::default()
            },
        );
        let base_max = stream
            .base
            .iter_all()
            .map(|(_, f)| f.interval.start())
            .max()
            .unwrap();
        let batch_min = stream
            .batches
            .iter()
            .flat_map(|b| b.iter_all().map(|(_, f)| f.interval.start()))
            .min()
            .unwrap();
        // The split is sorted by start point: everything in the batches
        // starts at or after everything in the base.
        assert!(batch_min >= base_max);
    }

    #[test]
    fn nested_and_sparse_streams_split() {
        let s = nested_stream(
            12,
            &StreamConfig {
                batches: 3,
                batch_fraction: 0.1,
                ..StreamConfig::default()
            },
        );
        assert_eq!(s.batches.len(), 3);
        assert!(s.base.total_len() > 0);
        let sp = sparse_stream(
            &ClusteredConfig::default(),
            &StreamConfig {
                batches: 2,
                batch_fraction: 0.1,
                ..StreamConfig::default()
            },
        );
        assert_eq!(sp.batches.len(), 2);
        assert!(sp.mapping.st_tgds().len() == 1);
    }

    #[test]
    fn refines_close_committed_open_facts() {
        let w = EmploymentConfig {
            persons: 30,
            horizon: 30,
            seed: 4,
            ..EmploymentConfig::default()
        };
        let stream = employment_stream(
            &w,
            &StreamConfig {
                batches: 12,
                batch_fraction: 0.02,
                order: BatchOrder::TailLocal,
                seed: 4,
            },
        );
        let e = stream.mapping.source().rel_id("E".into()).unwrap();
        let steps = with_narrowing_refines(&stream, e, 3, 9);
        assert_eq!(steps, with_narrowing_refines(&stream, e, 3, 9), "seeded");
        let mut committed = stream.base.clone();
        let mut inserts = 0;
        for step in &steps {
            match step {
                StreamStep::Insert(b) => {
                    inserts += 1;
                    for (rel, f) in b.iter_all() {
                        committed.insert(rel, Arc::clone(&f.data), f.interval);
                    }
                }
                StreamStep::Refine(rel, row, iv) => {
                    assert_eq!(*rel, e);
                    assert_eq!(inserts % 3, 0, "a refine follows every third batch");
                    let open = Interval::from(iv.start());
                    assert!(
                        committed.contains(e, row, open),
                        "closes a committed open job"
                    );
                    assert!(!iv.is_unbounded() && iv.len() <= Some(3));
                }
            }
        }
        assert_eq!(inserts, stream.batches.len());
        assert!(steps.len() > inserts, "the stream has open jobs to close");
    }
}
