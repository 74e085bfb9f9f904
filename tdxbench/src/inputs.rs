//! Seeded inputs: the employment mapping with partial salary coverage (so
//! the chase creates nulls and the egd merges values), its fact files, the
//! update streams and the read mix.

use std::fmt::Write;
use std::sync::Arc;
use tdx_core::DeltaBatch;
use tdx_logic::{parse_query, parse_union_query, UnionQuery};
use tdx_storage::TemporalInstance;
use tdx_temporal::Interval;
use tdx_workload::{split_stream, BatchOrder, EmploymentConfig, EmploymentWorkload, StreamConfig};

/// The paper's employment mapping (Examples 1 and 6), as `tdx` reads it.
pub const MAPPING: &str = "\
source { E(name, company)  S(name, salary) }
target { Emp(name, company, salary) }
tgd st1: E(n,c) -> exists s . Emp(n,c,s)
tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)
egd fd: Emp(n,c,s) & Emp(n,c,s2) -> s = s2
";

/// An employment source of `persons` career histories over 60 time
/// points, 70% of salary segments recorded.
pub fn employment(persons: usize, seed: u64) -> TemporalInstance {
    EmploymentWorkload::generate(&EmploymentConfig {
        persons,
        companies: 12,
        horizon: 60,
        salary_coverage: 0.7,
        seed,
        ..EmploymentConfig::default()
    })
    .source
}

/// An instance in the `.facts` format `tdx` reads.
pub fn facts_text(inst: &TemporalInstance) -> String {
    let mut out = String::new();
    for (rel, f) in inst.iter_all() {
        let vals: Vec<String> = f.data.iter().map(|v| v.to_string()).collect();
        let name = inst.schema().relation(rel).name();
        let _ = writeln!(out, "{name}({}) @ {}", vals.join(", "), f.interval);
    }
    out
}

/// One commit of a stream.
pub enum Step {
    /// Source-fact insertions.
    Insert(DeltaBatch),
    /// A narrowing refine that closes an open-ended job.
    Refine(DeltaBatch),
}

/// A base instance and the commits that follow it.
pub struct Stream {
    pub base: TemporalInstance,
    pub steps: Vec<Step>,
}

/// SplitMix64: the benchmark's own seeded choices.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// Splits `src` into a base and `batches` insert batches of about
/// `per_batch` facts, and after every `refine_every`-th insert adds a
/// refine that closes one committed open-ended job (`E` fact on
/// `[s, ∞)`) to `[s, s+k)`. `refine_every = 0` adds none.
pub fn stream(
    src: &TemporalInstance,
    order: BatchOrder,
    batches: usize,
    per_batch: usize,
    refine_every: usize,
    seed: u64,
) -> Stream {
    let split = split_stream(
        tdx_workload::paper_mapping(),
        src,
        &StreamConfig {
            batches,
            batch_fraction: per_batch as f64 / src.total_len() as f64,
            order,
            seed,
        },
    );
    let e = src
        .schema()
        .rel_id(tdx_logic::Symbol::intern("E"))
        .expect("employment source has E");
    let note_open = |open: &mut Vec<(tdx_storage::Row, u64)>, inst: &TemporalInstance| {
        for f in inst.facts(e) {
            if f.interval.is_unbounded() {
                open.push((Arc::clone(&f.data), f.interval.start()));
            }
        }
    };
    let mut open = Vec::new();
    note_open(&mut open, &split.base);
    let mut rng = Rng::new(seed);
    let mut steps = Vec::new();
    for (i, b) in split.batches.iter().enumerate() {
        steps.push(Step::Insert(DeltaBatch::from_instance(b)));
        note_open(&mut open, b);
        if refine_every > 0 && (i + 1) % refine_every == 0 && !open.is_empty() {
            let (row, start) = open.swap_remove(rng.below(open.len()));
            let mut r = DeltaBatch::new();
            r.refine(
                e,
                row,
                Interval::new(start, start + 1 + rng.below(3) as u64),
            );
            steps.push(Step::Refine(r));
        }
    }
    Stream {
        base: split.base,
        steps,
    }
}

/// The read mix: a projection, the same-person join and a two-disjunct
/// union.
pub fn queries() -> Vec<(&'static str, UnionQuery)> {
    vec![
        (
            "proj",
            parse_query("Q(n, s) :- Emp(n, c, s)")
                .expect("valid query")
                .into(),
        ),
        (
            "join",
            parse_query("Q(n, c) :- Emp(n, c, s) & Emp(n, c2, s)")
                .expect("valid query")
                .into(),
        ),
        (
            "union",
            parse_union_query("Q(n) :- Emp(n, 'c0', s); Q(n) :- Emp(n, 'c1', s)")
                .expect("valid query"),
        ),
    ]
}
