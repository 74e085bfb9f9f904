//! Harness utilities shared by the `experiments` binary and the Criterion
//! benches: timing helpers, aligned tables, and simple growth-law fitting.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Runs `f` once and returns its result together with the wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    // tdx-lint: allow(wall-clock): this crate measures wall time; timings are reported, never folded into results
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration with sensible units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// An aligned text table (same layout as the paper-figure rendering in
/// `tdx_storage::display`).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        tdx_storage::display::render_table("", &self.headers, &self.rows)
            .trim_start_matches('\n')
            .to_string()
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Least-squares exponent fit of `y ≈ c·n^k` over `(n, y)` samples:
/// regression of `log y` on `log n`. Returns the exponent `k`.
pub fn growth_exponent(samples: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(n, y)| *n > 0.0 && *y > 0.0)
        .map(|(n, y)| (n.ln(), y.ln()))
        .collect();
    let m = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (m * sxy - sx * sy) / (m * sxx - sx * sx)
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    let line = "=".repeat(72);
    println!("\n{line}\n {id} — {title}\n{line}");
}

/// Prints a check line and returns the flag for summary accounting.
pub fn check(label: &str, ok: bool) -> bool {
    println!("  [{}] {label}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_recovers_quadratic() {
        let samples: Vec<(f64, f64)> = (3..10)
            .map(|n| {
                let n = n as f64;
                (n, 4.0 * n * n)
            })
            .collect();
        let k = growth_exponent(&samples);
        assert!((k - 2.0).abs() < 1e-9, "k = {k}");
    }

    #[test]
    fn growth_exponent_recovers_linearithmic_roughly() {
        let samples: Vec<(f64, f64)> = [16.0f64, 64.0, 256.0, 1024.0]
            .iter()
            .map(|&n| (n, n * n.ln()))
            .collect();
        let k = growth_exponent(&samples);
        assert!(k > 1.0 && k < 1.6, "k = {k}");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["n", "size"]);
        t.row(&["8".into(), "64".into()]);
        let s = t.render();
        assert!(s.contains("n"), "{s}");
        assert!(s.contains("64"), "{s}");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_millis(2500)), "2.50s");
    }
}

/// One benchmark case: an id suffix under its suite's group prefix and a
/// closure running one iteration of the measured work.
pub struct Case {
    /// Id suffix, e.g. `employment/indexed_semi_naive/100`.
    pub id: String,
    /// One iteration of the benchmark body.
    pub run: Box<dyn Fn() + Send + Sync>,
}

/// Whether this machine can actually run work in parallel. On a 1-core
/// box the `partitioned_parallel/4` rows would measure nothing but thread
/// scheduling overhead, so the suites skip them (the committed baselines
/// keep their rows; ids absent from a fresh run are simply not gated).
pub fn multicore() -> bool {
    std::thread::available_parallelism()
        .map(|n| n.get() >= 2)
        .unwrap_or(false)
}

/// Every `(full id, body)` pair the CI regression gate measures: the
/// engine ablation plus the incremental-session family, under their group
/// prefixes.
pub fn gated_cases() -> Vec<(String, Box<dyn Fn() + Send + Sync>)> {
    let mut out: Vec<(String, Box<dyn Fn() + Send + Sync>)> = Vec::new();
    for case in engine_suite::cases() {
        out.push((format!("{}/{}", engine_suite::GROUP, case.id), case.run));
    }
    for case in incremental_suite::cases() {
        out.push((
            format!("{}/{}", incremental_suite::GROUP, case.id),
            case.run,
        ));
    }
    for case in distributed_suite::cases() {
        out.push((
            format!("{}/{}", distributed_suite::GROUP, case.id),
            case.run,
        ));
    }
    for case in transport_suite::cases() {
        out.push((format!("{}/{}", transport_suite::GROUP, case.id), case.run));
    }
    for case in scaling_suite::cases() {
        out.push((format!("{}/{}", scaling_suite::GROUP, case.id), case.run));
    }
    for case in durability_suite::cases() {
        out.push((format!("{}/{}", durability_suite::GROUP, case.id), case.run));
    }
    for case in robustness_suite::cases() {
        out.push((format!("{}/{}", robustness_suite::GROUP, case.id), case.run));
    }
    for case in query_suite::cases() {
        out.push((format!("{}/{}", query_suite::GROUP, case.id), case.run));
    }
    out
}

/// The `c_chase/engine/*` benchmark suite, shared between the Criterion
/// bench (`benches/chase.rs`) and the CI regression gate
/// (`bin/bench_check.rs`) so both measure exactly the same work under the
/// same ids.
pub mod engine_suite {
    pub use crate::Case;
    use tdx_core::{c_chase_with, ChaseOptions};
    use tdx_workload::{
        clustered_instance, nested_mapping, ClusteredConfig, EmploymentConfig, EmploymentWorkload,
    };

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/engine";

    /// The engine ablation: indexed semi-naive vs the partitioned parallel
    /// engine at 1 and 4 workers, across the
    /// employment and nested workload families, plus the
    /// normalization-dominated clustered probe. The 4-worker rows are
    /// skipped on single-core machines (see [`crate::multicore`]).
    pub fn cases() -> Vec<Case> {
        let mut engines: Vec<(&'static str, ChaseOptions)> = vec![
            ("indexed_semi_naive", ChaseOptions::default()),
            (
                "partitioned_parallel/1",
                ChaseOptions::partitioned_parallel(1),
            ),
        ];
        if crate::multicore() {
            engines.push((
                "partitioned_parallel/4",
                ChaseOptions::partitioned_parallel(4),
            ));
        }
        let mut out = Vec::new();
        for persons in [50usize, 100] {
            let w = std::sync::Arc::new(EmploymentWorkload::generate(&EmploymentConfig {
                persons,
                horizon: 30,
                seed: 42,
                ..EmploymentConfig::default()
            }));
            for (label, opts) in &engines {
                let w = std::sync::Arc::clone(&w);
                let opts = opts.clone();
                out.push(Case {
                    id: format!("employment/{label}/{persons}"),
                    run: Box::new(move || {
                        c_chase_with(&w.source, &w.mapping, &opts).unwrap();
                    }),
                });
            }
        }
        for n in [16usize, 24] {
            let pair = std::sync::Arc::new(nested_mapping(n));
            for (label, opts) in &engines {
                let pair = std::sync::Arc::clone(&pair);
                let opts = opts.clone();
                out.push(Case {
                    id: format!("nested/{label}/{n}"),
                    run: Box::new(move || {
                        c_chase_with(&pair.1, &pair.0, &opts).unwrap();
                    }),
                });
            }
        }
        // Normalization-dominated: Algorithm 1 group discovery over
        // clustered intervals, which the interval-endpoint index
        // accelerates.
        for clusters in [10usize, 20] {
            let data = std::sync::Arc::new(clustered_instance(&ClusteredConfig {
                clusters,
                ..ClusteredConfig::default()
            }));
            for (label, use_indexes) in [("indexed", true), ("full_scan", false)] {
                let data = std::sync::Arc::clone(&data);
                out.push(Case {
                    id: format!("normalize_clustered/{label}/{clusters}"),
                    run: Box::new(move || {
                        tdx_core::normalize::normalize_with(
                            &data.0,
                            &[data.1.as_slice()],
                            tdx_storage::SearchOptions { use_indexes },
                        )
                        .unwrap();
                    }),
                });
            }
            // The public entry point: the session's sweep kernel.
            out.push(Case {
                id: format!("normalize_clustered/kernel/{clusters}"),
                run: Box::new(move || {
                    tdx_core::normalize::normalize(&data.0, &[data.1.as_slice()]).unwrap();
                }),
            });
        }
        out
    }
}

/// The `c_chase/distributed/*` suite: the partition-server engine at 1 and
/// 3 servers against the same workloads as the engine ablation, plus the
/// per-batch latency of a distributed incremental session. Unlike
/// `partitioned_parallel/4`, the 3-server rows are *not* skipped on
/// single-core machines: the servers' match enumeration is
/// request-response serialized behind the coordinator anyway, so the row
/// measures protocol overhead plus the same work — a meaningful number on
/// any machine. Shared between `benches/chase.rs` and the regression gate
/// like [`engine_suite`].
pub mod distributed_suite {
    pub use crate::Case;
    use std::sync::Arc;
    use tdx_core::{c_chase_with, ChaseOptions, DeltaBatch, IncrementalExchange};
    use tdx_workload::{
        employment_stream, BatchOrder, EmploymentConfig, EmploymentWorkload, StreamConfig,
    };

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/distributed";

    /// Per-family cases: `employment/{1s,3s}/{50,100}` full chases and
    /// `employment/incremental5pct/1s/100` (clone a seeded distributed
    /// session, absorb one 5% batch through the cluster).
    pub fn cases() -> Vec<Case> {
        let engines: Vec<(&'static str, ChaseOptions)> = vec![
            ("1s", ChaseOptions::distributed(1)),
            ("3s", ChaseOptions::distributed(3)),
        ];
        let mut out = Vec::new();
        for persons in [50usize, 100] {
            let w = Arc::new(EmploymentWorkload::generate(&EmploymentConfig {
                persons,
                horizon: 30,
                seed: 42,
                ..EmploymentConfig::default()
            }));
            for (label, opts) in &engines {
                let w = Arc::clone(&w);
                let opts = opts.clone();
                out.push(Case {
                    id: format!("employment/{label}/{persons}"),
                    run: Box::new(move || {
                        c_chase_with(&w.source, &w.mapping, &opts).unwrap();
                    }),
                });
            }
        }
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 100,
                horizon: 30,
                seed: 42,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 1,
                batch_fraction: 0.05,
                order: BatchOrder::Uniform,
                ..StreamConfig::default()
            },
        );
        let mut session =
            IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(1))
                .expect("valid scenario mapping");
        session
            .apply(&DeltaBatch::from_instance(&stream.base))
            .expect("consistent base instance");
        let session = Arc::new(session);
        let batch = Arc::new(DeltaBatch::from_instance(&stream.batches[0]));
        out.push(Case {
            id: "employment/incremental5pct/1s/100".to_string(),
            run: Box::new(move || {
                let mut s = (*session).clone();
                s.apply(&batch).unwrap();
            }),
        });
        out
    }
}

/// The `c_chase/distributed/scaling/*` suite: the same chase at 1, 2 and 4
/// servers over two workload families, sized so the servers' fused-round
/// work (local Algorithm-1 discovery + match enumeration, which runs
/// concurrently across servers inside each broadcast barrier) dominates
/// the protocol overhead. `employment` is the standard family at 200
/// persons; `boundary` turns the tenure and unbounded-interval knobs up so
/// a large share of facts cross coarsened-block boundaries — the
/// replica-dense regime where the v1 coordinator-funneled protocol scaled
/// *negatively*. The acceptance bar (enforced by `bench_check` on
/// multi-core machines) is a monotone non-negative speedup slope across
/// the server counts. Shared between `benches/chase.rs` and the regression
/// gate like [`engine_suite`].
pub mod scaling_suite {
    pub use crate::Case;
    use std::sync::Arc;
    use tdx_core::{c_chase_with, ChaseOptions};
    use tdx_workload::{EmploymentConfig, EmploymentWorkload};

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/distributed/scaling";

    /// Server counts every scaling family is measured at.
    pub const SERVERS: [usize; 3] = [1, 2, 4];

    /// The family names (id shape: `<family>/<n>s`).
    pub const FAMILIES: [&str; 2] = ["employment", "boundary"];

    /// See the module docs for the case list.
    pub fn cases() -> Vec<Case> {
        let employment = Arc::new(EmploymentWorkload::generate(&EmploymentConfig {
            persons: 200,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        }));
        let boundary = Arc::new(EmploymentWorkload::generate(&EmploymentConfig {
            persons: 150,
            horizon: 30,
            avg_tenure: 18,
            p_unbounded: 0.4,
            salary_coverage: 0.9,
            seed: 7,
            ..EmploymentConfig::default()
        }));
        let mut out = Vec::new();
        for (family, w) in [("employment", employment), ("boundary", boundary)] {
            for servers in SERVERS {
                let w = Arc::clone(&w);
                let opts = ChaseOptions::distributed(servers);
                out.push(Case {
                    id: format!("{family}/{servers}s"),
                    run: Box::new(move || {
                        c_chase_with(&w.source, &w.mapping, &opts).unwrap();
                    }),
                });
            }
        }
        out
    }
}

/// The `c_chase/transport/*` suite: the distributed engine's transport
/// ablation — the same chase over in-process channels vs loopback TCP
/// (`employment/{channel,tcp}/100`), plus one incremental 5% batch per
/// transport through a seeded distributed session
/// (`employment/incremental5pct/{channel,tcp}/100`, clone included as in
/// the incremental family). The channel/tcp gap is the carrier tax —
/// frame syscalls and loopback latency on top of the identical protocol
/// bytes; the incremental rows additionally show the delta-only watermark
/// shipping at work (without it the tcp row would scale with the store,
/// not the batch). Note the tcp rows measure the thread-backed loopback
/// server when no `tdx` binary is alongside the bench executable (the
/// usual case for `bench_check`), so they isolate socket transport cost
/// from process spawn cost. Shared between `benches/chase.rs` and the
/// regression gate like [`engine_suite`].
pub mod transport_suite {
    pub use crate::Case;
    use std::sync::Arc;
    use tdx_core::{c_chase_with, ChaseOptions, DeltaBatch, IncrementalExchange, TransportKind};
    use tdx_workload::{
        employment_stream, BatchOrder, EmploymentConfig, EmploymentWorkload, StreamConfig,
    };

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/transport";

    /// See the module docs for the case list.
    pub fn cases() -> Vec<Case> {
        let transports = [
            ("channel", TransportKind::Channel),
            ("tcp", TransportKind::Tcp),
        ];
        let mut out = Vec::new();
        let w = Arc::new(EmploymentWorkload::generate(&EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        }));
        for (label, kind) in transports {
            let w = Arc::clone(&w);
            let opts = ChaseOptions::distributed(1).on_transport(kind);
            out.push(Case {
                id: format!("employment/{label}/100"),
                run: Box::new(move || {
                    c_chase_with(&w.source, &w.mapping, &opts).unwrap();
                }),
            });
        }
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 100,
                horizon: 30,
                seed: 42,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 1,
                batch_fraction: 0.05,
                order: BatchOrder::Uniform,
                ..StreamConfig::default()
            },
        );
        for (label, kind) in transports {
            let mut session = IncrementalExchange::with_options(
                stream.mapping.clone(),
                ChaseOptions::distributed(1).on_transport(kind),
            )
            .expect("valid scenario mapping");
            session
                .apply(&DeltaBatch::from_instance(&stream.base))
                .expect("consistent base instance");
            let session = Arc::new(session);
            let batch = Arc::new(DeltaBatch::from_instance(&stream.batches[0]));
            out.push(Case {
                id: format!("employment/incremental5pct/{label}/100"),
                run: Box::new(move || {
                    let mut s = (*session).clone();
                    s.apply(&batch).unwrap();
                }),
            });
        }
        out
    }
}

/// The `c_chase/incremental/*` suite: per-batch latency of the stateful
/// [`IncrementalExchange`](tdx_core::IncrementalExchange) session against a
/// from-scratch re-chase of the same accumulated source. Shared between
/// `benches/chase.rs` and the regression gate like [`engine_suite`].
pub mod incremental_suite {
    pub use crate::Case;
    use std::sync::{Arc, Mutex};
    use tdx_core::{c_chase_with, ChaseOptions, DeltaBatch, IncrementalExchange};
    use tdx_workload::{
        employment_stream, late_salary_stream, nested_stream, sparse_stream,
        with_narrowing_refines, BatchOrder, ClusteredConfig, DeltaStream, EmploymentConfig,
        StreamConfig, StreamStep,
    };

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/incremental";

    /// Session sizes of the `employment/insert4/<persons>` and
    /// `employment/refine/<persons>` rows, smallest first; `bench_check`
    /// gates the largest against the smallest.
    pub const INSERT4_PERSONS: [usize; 2] = [50, 200];

    /// The `insert4` stream: the tdxbench `ingest` source shape (12
    /// companies, horizon 60, 70% salary coverage) split into a base and
    /// one 4-fact tail-local insert batch per person — a fifth of the
    /// source at either size.
    fn insert4(persons: usize) -> DeltaStream {
        let w = EmploymentConfig {
            persons,
            companies: 12,
            horizon: 60,
            salary_coverage: 0.7,
            seed: 3,
            ..EmploymentConfig::default()
        };
        let facts = tdx_workload::EmploymentWorkload::generate(&w)
            .source
            .total_len();
        employment_stream(
            &w,
            &StreamConfig {
                batches: persons,
                batch_fraction: 4.0 / facts as f64,
                order: BatchOrder::TailLocal,
                seed: 3,
            },
        )
    }

    /// The `late_salaries` row's stream: employment/100, salaries a batch
    /// after the jobs.
    fn late_salaries() -> DeltaStream {
        late_salary_stream(&EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        })
    }

    /// Seeds a session with the stream's base instance, returning it with
    /// the first update batch.
    fn seed(stream: &DeltaStream) -> (IncrementalExchange, DeltaBatch) {
        let mut session =
            IncrementalExchange::new(stream.mapping.clone()).expect("valid scenario mapping");
        session
            .apply(&DeltaBatch::from_instance(&stream.base))
            .expect("consistent base instance");
        (session, DeltaBatch::from_instance(&stream.batches[0]))
    }

    /// Per-family cases:
    ///
    /// * `<family>/batchNpct/<size>` — clone the seeded session and absorb
    ///   one batch (clone included: it is the cost a caller pays to keep a
    ///   rollback point, and it bounds the reported speedup from below);
    /// * `employment/clone/100` — the session clone alone, to make the
    ///   clone share of the batch rows visible;
    /// * `employment/from_scratch/100` — the partitioned engine (one batch
    ///   on a fresh session) re-chasing the same accumulated source from
    ///   scratch: the latency an incremental batch replaces;
    /// * `employment/late_salaries/100` — clone a session seeded with the
    ///   jobs of a [`late_salary_stream`] and absorb its salary batch: the
    ///   row that keeps the egd layer measured;
    /// * `employment/insert4/<persons>` — absorb the next 4-fact
    ///   tail-local insert into one long-lived session seeded with
    ///   `persons` persons (the `ingest` commit, without the WAL). After
    ///   its last batch the session restarts from the seeded one, whose
    ///   clone rebuilds its settled indexes on the next absorb: one
    ///   rebuild per `persons` runs is part of the row, the same share at
    ///   either size. An insert that cost the whole session would make
    ///   the 200 row ≈4× the 50 row;
    /// * `employment/refine/<persons>` — one narrowing refine (an
    ///   open-ended job closed to 1–3 points, drawn by
    ///   [`with_narrowing_refines`]) into one long-lived session holding
    ///   the whole `insert4` source: the `ingest` refine commit, without
    ///   the WAL. After the last refine the session restarts from the
    ///   seeded one, so one index rebuild per cycle is part of the row;
    ///   open jobs grow with the persons, so the share is the same at
    ///   either size. A refine that re-chased the whole state
    ///   (`from_scratch/100` prices that) would make the 200 row ≈4× the
    ///   50 row.
    pub fn cases() -> Vec<Case> {
        let mut out: Vec<Case> = Vec::new();
        for persons in INSERT4_PERSONS {
            let stream = insert4(persons);
            let (seeded, _) = seed(&stream);
            let batches: Vec<DeltaBatch> = stream
                .batches
                .iter()
                .map(DeltaBatch::from_instance)
                .collect();
            // The first absorb builds the settled indexes; do it here, so
            // the harness's calibration run times a plain insert.
            let mut warm = seeded.clone();
            warm.apply(&batches[0]).expect("consistent stream");
            let state = Mutex::new((warm, 1usize));
            out.push(Case {
                id: format!("employment/insert4/{persons}"),
                run: Box::new(move || {
                    let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                    let (session, next) = &mut *guard;
                    if *next == batches.len() {
                        *session = seeded.clone();
                        *next = 0;
                    }
                    session.apply(&batches[*next]).unwrap();
                    *next += 1;
                }),
            });
        }
        for persons in INSERT4_PERSONS {
            let stream = insert4(persons);
            let e = stream
                .mapping
                .source()
                .rel_id("E".into())
                .expect("employment source has E");
            let refines: Vec<DeltaBatch> = with_narrowing_refines(&stream, e, 1, 3)
                .into_iter()
                .filter_map(|step| match step {
                    StreamStep::Refine(rel, data, iv) => {
                        let mut b = DeltaBatch::new();
                        b.refine(rel, data, iv);
                        Some(b)
                    }
                    StreamStep::Insert(_) => None,
                })
                .collect();
            let mut seeded =
                IncrementalExchange::new(stream.mapping.clone()).expect("valid scenario mapping");
            seeded
                .apply(&DeltaBatch::from_instance(&stream.union()))
                .expect("consistent source");
            // The first refine builds the settled indexes (see insert4).
            let mut warm = seeded.clone();
            warm.apply(&refines[0]).expect("consistent refine");
            let state = Mutex::new((warm, 1usize));
            out.push(Case {
                id: format!("employment/refine/{persons}"),
                run: Box::new(move || {
                    let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                    let (session, next) = &mut *guard;
                    if *next == refines.len() {
                        *session = seeded.clone();
                        *next = 0;
                    }
                    session.apply(&refines[*next]).unwrap();
                    *next += 1;
                }),
            });
        }
        for persons in [50usize, 100] {
            let stream = employment_stream(
                &EmploymentConfig {
                    persons,
                    horizon: 30,
                    seed: 42,
                    ..EmploymentConfig::default()
                },
                &StreamConfig {
                    batches: 1,
                    batch_fraction: 0.05,
                    order: BatchOrder::Uniform,
                    ..StreamConfig::default()
                },
            );
            let union = Arc::new(stream.union());
            let mapping = Arc::new(stream.mapping.clone());
            let (session, batch) = seed(&stream);
            let session = Arc::new(session);
            let batch = Arc::new(batch);
            {
                let (session, batch) = (Arc::clone(&session), Arc::clone(&batch));
                out.push(Case {
                    id: format!("employment/batch5pct/{persons}"),
                    run: Box::new(move || {
                        let mut s = (*session).clone();
                        s.apply(&batch).unwrap();
                    }),
                });
            }
            if persons == 100 {
                let s2 = Arc::clone(&session);
                out.push(Case {
                    id: "employment/clone/100".to_string(),
                    run: Box::new(move || {
                        std::hint::black_box((*s2).clone());
                    }),
                });
                out.push(Case {
                    id: "employment/from_scratch/100".to_string(),
                    run: Box::new(move || {
                        c_chase_with(&union, &mapping, &ChaseOptions::partitioned_parallel(1))
                            .unwrap();
                    }),
                });
            }
        }
        {
            let (session, batch) = seed(&late_salaries());
            let (session, batch) = (Arc::new(session), Arc::new(batch));
            out.push(Case {
                id: "employment/late_salaries/100".to_string(),
                run: Box::new(move || {
                    let mut s = (*session).clone();
                    s.apply(&batch).unwrap();
                }),
            });
        }
        for (family, stream) in [
            (
                "nested",
                nested_stream(
                    16,
                    &StreamConfig {
                        batches: 1,
                        batch_fraction: 0.1,
                        ..StreamConfig::default()
                    },
                ),
            ),
            (
                "sparse",
                sparse_stream(
                    &ClusteredConfig {
                        clusters: 16,
                        ..ClusteredConfig::default()
                    },
                    &StreamConfig {
                        batches: 1,
                        batch_fraction: 0.1,
                        order: BatchOrder::TailLocal,
                        ..StreamConfig::default()
                    },
                ),
            ),
        ] {
            let (session, batch) = seed(&stream);
            let (session, batch) = (Arc::new(session), Arc::new(batch));
            out.push(Case {
                id: format!("{family}/batch10pct/16"),
                run: Box::new(move || {
                    let mut s = (*session).clone();
                    s.apply(&batch).unwrap();
                }),
            });
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use tdx_core::check_against_abstract_chase;

        #[test]
        fn late_salaries_batch_merges_nulls() {
            let (mut session, batch) = super::seed(&super::late_salaries());
            let stats = session.apply(&batch).unwrap();
            assert!(stats.egd_merges >= 1, "{stats:?}");
            check_against_abstract_chase(
                &session.source(),
                session.mapping(),
                Ok(&session.target()),
            )
            .unwrap();
        }
    }
}

/// The `c_chase/durability/*` suite: what durability adds to the
/// incremental session. `wal_append5pct` is the per-batch overhead a
/// durable apply pays over a non-durable one (the fsync'd WAL record —
/// compare `c_chase/incremental/employment/batch5pct/100`);
/// `durable_open` is recovery from a compacted snapshot alone;
/// `recovery_replay` additionally replays one 5% batch from the WAL —
/// compare both against `c_chase/incremental/employment/from_scratch/100`,
/// the latency a recovery replaces. `snapshot_now` is one compaction of
/// that base: encode, checksum, write + fsync + rename, WAL truncate.
/// Shared between `benches/chase.rs` and the regression gate like
/// [`engine_suite`].
pub mod durability_suite {
    pub use crate::Case;
    use std::path::PathBuf;
    use std::sync::Arc;
    use tdx_core::{ChaseOptions, DeltaBatch, DurableExchange};
    use tdx_storage::codec::encode;
    use tdx_storage::wal::Wal;
    use tdx_workload::{employment_stream, BatchOrder, EmploymentConfig, StreamConfig};

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/durability";

    /// A scratch directory under the target-adjacent temp root; recreated
    /// fresh so stale state from an earlier run can't leak in.
    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tdx-bench-durability-{tag}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("bench scratch dir");
        d
    }

    /// Per-family cases (employment/100, 5% batches — the incremental
    /// suite's headline workload):
    ///
    /// * `employment/wal_append5pct/100` — one fsync'd WAL append of the
    ///   encoded batch: the whole durability tax on the commit path;
    /// * `employment/durable_open/100` — `DurableExchange::open` against a
    ///   state directory holding the base in a compacted snapshot
    ///   (recovery with nothing to replay);
    /// * `employment/recovery_replay/100` — the same open when one 5%
    ///   batch sits in the WAL past the snapshot (snapshot restore + one
    ///   batch replayed);
    /// * `employment/snapshot_now/100` — `DurableExchange::snapshot_now`
    ///   on a session holding the compacted base: the snapshot commit a
    ///   durable apply pays every `snapshot_every` batches.
    pub fn cases() -> Vec<Case> {
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 100,
                horizon: 30,
                seed: 42,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 1,
                batch_fraction: 0.05,
                order: BatchOrder::Uniform,
                ..StreamConfig::default()
            },
        );
        let mapping = stream.mapping.clone();
        let base = DeltaBatch::from_instance(&stream.base);
        let batch = DeltaBatch::from_instance(&stream.batches[0]);

        // Snapshot-only state dir: base committed and compacted.
        let snap_dir = scratch("snapshot");
        let mut s = DurableExchange::open(mapping.clone(), ChaseOptions::default(), &snap_dir)
            .expect("open bench session")
            .snapshot_every(1);
        s.apply(&base).expect("seed base");
        drop(s);

        // Snapshot + one WAL record: the recovery-replay shape.
        let replay_dir = scratch("replay");
        let mut s = DurableExchange::open(mapping.clone(), ChaseOptions::default(), &replay_dir)
            .expect("open bench session")
            .snapshot_every(1);
        s.apply(&base).expect("seed base");
        let mut s = s.snapshot_every(usize::MAX);
        s.apply(&batch).expect("seed batch");
        drop(s);

        // A live session over the compacted base, re-compacted per run.
        let mut compact = DurableExchange::open(
            mapping.clone(),
            ChaseOptions::default(),
            scratch("snapshot_now"),
        )
        .expect("open bench session")
        .snapshot_every(1);
        compact.apply(&base).expect("seed base");
        let compact = std::sync::Mutex::new(compact);

        // The WAL-append payload a durable apply writes for this batch.
        let payload = Arc::new(encode(&(2u64, batch)));
        let wal_dir = scratch("append");

        let mapping = Arc::new(mapping);
        let mut out: Vec<Case> = Vec::new();
        {
            let payload = Arc::clone(&payload);
            let wal =
                std::sync::Mutex::new(Wal::open(wal_dir.join("wal.log")).expect("open bench wal"));
            out.push(Case {
                id: "employment/wal_append5pct/100".to_string(),
                run: Box::new(move || {
                    wal.lock().unwrap().append(&payload).expect("append");
                }),
            });
        }
        out.push(Case {
            id: "employment/snapshot_now/100".to_string(),
            run: Box::new(move || {
                compact.lock().unwrap().snapshot_now().expect("snapshot");
            }),
        });
        for (id, dir) in [
            ("employment/durable_open/100", snap_dir),
            ("employment/recovery_replay/100", replay_dir),
        ] {
            let mapping = Arc::clone(&mapping);
            out.push(Case {
                id: id.to_string(),
                run: Box::new(move || {
                    let s =
                        DurableExchange::open((*mapping).clone(), ChaseOptions::default(), &dir)
                            .expect("recover");
                    std::hint::black_box(s.committed());
                }),
            });
        }
        out
    }
}

/// The `c_chase/robustness/*` suite: what fail-slow tolerance costs.
///
/// * `employment/deadline_overhead/100` — the standard 3-server
///   distributed chase with a per-frame deadline explicitly armed: the
///   healthy-path price of bounding every transport wait. Compare against
///   `c_chase/distributed/employment/3s/100` (the same chase; deadlines
///   there resolve through the environment) — the gap is the deadline
///   plumbing itself and must stay within noise (<5%).
/// * `employment/degraded_batch/100` — the same chase when server 1 is
///   dead on arrival and stays dead: bounded respawns with backoff, then
///   quarantine and coordinator-local execution of the dead slot's
///   blocks. The price of graceful degradation, dominated by the backoff
///   sleeps and the local block evaluation.
pub mod robustness_suite {
    pub use crate::Case;
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;
    use tdx_core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, Transport, TransportKind, TransportSpawner,
    };
    use tdx_core::{c_chase_with, ChaseOptions};
    use tdx_workload::{EmploymentConfig, EmploymentWorkload};

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/robustness";

    /// A transport that errors on every frame — the incurable slot that
    /// drives the chase into quarantine and local degradation.
    struct StillbornTransport;
    impl Transport for StillbornTransport {
        fn send(&mut self, _frame: &[u8]) -> io::Result<()> {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partition server dead on arrival",
            ))
        }
        fn recv(&mut self) -> io::Result<Vec<u8>> {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partition server dead on arrival",
            ))
        }
        fn shutdown(&mut self) {}
    }

    /// Healthy channels everywhere except server 1, which never works.
    struct OneDeadSlot;
    impl TransportSpawner for OneDeadSlot {
        fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
            if server == 1 {
                Ok(Box::new(StillbornTransport))
            } else {
                ChannelSpawner.spawn(server)
            }
        }
        fn kind(&self) -> TransportKind {
            ChannelSpawner.kind()
        }
    }

    /// Per-family cases: `employment/{deadline_overhead,degraded_batch}/100`.
    pub fn cases() -> Vec<Case> {
        let w = Arc::new(EmploymentWorkload::generate(&EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        }));
        let mut out = Vec::new();
        {
            let w = Arc::clone(&w);
            let opts = ChaseOptions::distributed(3).with_frame_deadline(Duration::from_secs(10));
            out.push(Case {
                id: "employment/deadline_overhead/100".to_string(),
                run: Box::new(move || {
                    c_chase_with(&w.source, &w.mapping, &opts).unwrap();
                }),
            });
        }
        {
            let w = Arc::clone(&w);
            let opts = ChaseOptions::distributed(3);
            out.push(Case {
                id: "employment/degraded_batch/100".to_string(),
                run: Box::new(move || {
                    c_chase_distributed_with(
                        &w.source,
                        &w.mapping,
                        &opts,
                        3,
                        Arc::new(OneDeadSlot) as Arc<dyn TransportSpawner>,
                    )
                    .unwrap();
                }),
            });
        }
        out
    }
}

/// The `c_chase/query/*` suite: the compiled read path against the naïve
/// normalize-then-shared-`t` evaluator, on the chased employment/100
/// target. One iteration always evaluates the same three-query set
/// (projection, self-join, union), so the rows divide cleanly:
///
/// * `employment/naive_full/100` — the naïve oracle, re-normalizing the
///   instance on every call: the pre-compilation read latency;
/// * `employment/cold_compile/100` — plan + compile + execute against a
///   fresh snapshot, no caches: the first-query latency;
/// * `employment/warm_repeat/100` — a pre-warmed [`QueryService`]
///   (plans and fragments cached, nothing dirty): the steady-state
///   repeat-read latency. `bench_check` gates
///   `naive_full / warm_repeat ≥ 5×` on the same fresh run;
/// * `employment/post_batch_repeat/100` — each iteration publishes an
///   already-chased 5% batch result (fingerprint-diff invalidation) and
///   re-evaluates: repeat-read latency when only the dirty partitions'
///   fragments recompute.
pub mod query_suite {
    pub use crate::Case;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tdx_core::{
        compiled_eval, naive_eval_concrete, DeltaBatch, DirtySet, IncrementalExchange, QueryService,
    };
    use tdx_logic::{parse_query, parse_union_query, UnionQuery};
    use tdx_storage::StoreSnapshot;
    use tdx_temporal::{Breakpoints, TimelinePartition};
    use tdx_workload::{employment_stream, BatchOrder, EmploymentConfig, StreamConfig};

    /// The group prefix every case id lives under.
    pub const GROUP: &str = "c_chase/query";

    /// The measured query set: a projection, a same-company self-join, and
    /// a two-disjunct union — the three plan shapes the compiler handles.
    fn queries() -> Vec<UnionQuery> {
        vec![
            parse_query("Q(n, s) :- Emp(n, c, s)")
                .expect("valid query")
                .into(),
            parse_query("Q(a, b) :- Emp(a, c, s1) & Emp(b, c, s2)")
                .expect("valid query")
                .into(),
            parse_union_query("Q(n) :- Emp(n, c0, s); Q(n) :- Emp(n, c1, s)").expect("valid query"),
        ]
    }

    /// See the module docs for the case list.
    pub fn cases() -> Vec<Case> {
        let stream = employment_stream(
            &EmploymentConfig {
                persons: 100,
                horizon: 30,
                seed: 42,
                ..EmploymentConfig::default()
            },
            &StreamConfig {
                batches: 1,
                batch_fraction: 0.05,
                order: BatchOrder::TailLocal,
                ..StreamConfig::default()
            },
        );
        let mut session =
            IncrementalExchange::new(stream.mapping.clone()).expect("valid scenario mapping");
        session
            .apply(&DeltaBatch::from_instance(&stream.base))
            .expect("consistent base instance");
        let base_target = session.target();
        let mut after = session.clone();
        after
            .apply(&DeltaBatch::from_instance(&stream.batches[0]))
            .expect("consistent batch");
        let batch_target = after.target();
        let tp = TimelinePartition::new(&Breakpoints::from_points([8, 15, 23]));
        let queries = Arc::new(queries());

        let mut out: Vec<Case> = Vec::new();
        {
            let (target, queries) = (base_target.clone(), Arc::clone(&queries));
            out.push(Case {
                id: "employment/naive_full/100".to_string(),
                run: Box::new(move || {
                    for q in queries.iter() {
                        std::hint::black_box(naive_eval_concrete(&target, q).unwrap());
                    }
                }),
            });
        }
        {
            let snap = StoreSnapshot::latest(Arc::new(base_target.clone()));
            let queries = Arc::clone(&queries);
            out.push(Case {
                id: "employment/cold_compile/100".to_string(),
                run: Box::new(move || {
                    for q in queries.iter() {
                        std::hint::black_box(compiled_eval(&snap, q).unwrap());
                    }
                }),
            });
        }
        {
            let svc = QueryService::new(base_target.clone(), tp.clone());
            let queries = Arc::clone(&queries);
            for q in queries.iter() {
                svc.eval(q).expect("warmup eval"); // caches plans + fragments
            }
            out.push(Case {
                id: "employment/warm_repeat/100".to_string(),
                run: Box::new(move || {
                    for q in queries.iter() {
                        std::hint::black_box(svc.eval(q).unwrap());
                    }
                }),
            });
        }
        {
            let svc = QueryService::new(base_target.clone(), tp.clone());
            let queries = Arc::clone(&queries);
            for q in queries.iter() {
                svc.eval(q).expect("warmup eval");
            }
            let flip = AtomicBool::new(true);
            out.push(Case {
                id: "employment/post_batch_repeat/100".to_string(),
                run: Box::new(move || {
                    let next = if flip.fetch_xor(true, Ordering::Relaxed) {
                        &batch_target
                    } else {
                        &base_target
                    };
                    svc.publish(next.clone(), &tp, DirtySet::Diff);
                    for q in queries.iter() {
                        std::hint::black_box(svc.eval(q).unwrap());
                    }
                }),
            });
        }
        out
    }
}
