//! Benchmarks for Section 4.3: the c-chase end to end, plus the two design
//! ablations of `ChaseOptions` (`renormalize_between_egd_rounds` and
//! `naive_normalization`, documented in `crates/core/src/chase/concrete.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tdx_core::{c_chase_with, ChaseOptions};
use tdx_workload::{nested_mapping, EmploymentConfig, EmploymentWorkload};

fn bench_employment(c: &mut Criterion) {
    let mut group = c.benchmark_group("c_chase/employment");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for persons in [10usize, 25, 50] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("default", persons), &persons, |b, _| {
            b.iter(|| c_chase_with(&w.source, &w.mapping, &ChaseOptions::default()).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("paper_faithful", persons),
            &persons,
            |b, _| {
                b.iter(|| {
                    c_chase_with(&w.source, &w.mapping, &ChaseOptions::paper_faithful()).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive_normalization", persons),
            &persons,
            |b, _| {
                b.iter(|| {
                    c_chase_with(
                        &w.source,
                        &w.mapping,
                        &ChaseOptions {
                            naive_normalization: true,
                            ..ChaseOptions::default()
                        },
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_nested(c: &mut Criterion) {
    let mut group = c.benchmark_group("c_chase/nested");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [8usize, 16, 24] {
        let (mapping, src) = nested_mapping(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| c_chase_with(&src, &mapping, &ChaseOptions::default()).unwrap())
        });
    }
    group.finish();
}

/// The headline engine ablation: indexed semi-naive vs legacy full scan vs
/// the partitioned parallel engine (1 and 4 workers) across the workload
/// families. The case list is shared with the CI regression gate
/// (`cargo run -p tdx-bench --bin bench_check`) via
/// [`tdx_bench::engine_suite`], so the gate compares exactly what this
/// bench records. Acceptance bars: indexed ≥ 1.5× over scan, partitioned
/// at 4 workers ≥ 2× over indexed, both on employment/100.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::engine_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::engine_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// The distributed partition-server engine across cluster sizes, plus one
/// distributed incremental batch (`tdx_bench::distributed_suite`, shared
/// with the CI gate). Acceptance bar: the 1-server row stays within the
/// same order of magnitude as `partitioned_parallel/1` — the delta is the
/// cost of serializing every fact and match over the protocol.
fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::distributed_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::distributed_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// The scaling family: the same chase at {1, 2, 4} servers over the
/// employment and boundary-dense workloads (`tdx_bench::scaling_suite`,
/// shared with the CI gate). Acceptance bar: monotone non-negative speedup
/// slope across server counts on a multi-core box — the fused v2 protocol
/// must not reintroduce the v1 negative scaling.
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::scaling_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::scaling_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// The transport ablation: the distributed chase (and one incremental
/// batch) over in-process channels vs loopback TCP
/// (`tdx_bench::transport_suite`, shared with the CI gate). Acceptance
/// bar: the tcp rows stay within the same order of magnitude as their
/// channel counterparts — the gap is pure carrier cost, the protocol
/// bytes are identical.
fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::transport_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::transport_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// Per-batch latency of the incremental exchange session vs a from-scratch
/// re-chase of the same accumulated source (`tdx_bench::incremental_suite`,
/// shared with the CI gate). Acceptance bar: `employment/batch5pct/100` at
/// ≥5× lower latency than `employment/from_scratch/100`.
fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::incremental_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::incremental_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// What durability adds to the incremental session: the fsync'd WAL
/// append on the commit path, and snapshot-restore/WAL-replay recovery
/// (`tdx_bench::durability_suite`, shared with the CI gate). Acceptance
/// bars: `recovery_replay` well under `from_scratch` (recovery must beat
/// re-chasing), `wal_append5pct` small against `batch5pct` (the
/// durability tax stays a fraction of the batch it protects).
fn bench_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::durability_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::durability_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// What fail-slow tolerance costs (`tdx_bench::robustness_suite`, shared
/// with the CI gate): `deadline_overhead` is the 3-server chase with the
/// per-frame deadline explicitly armed — acceptance bar: within 5% of
/// `c_chase/distributed/employment/3s/100`, the same chase — and
/// `degraded_batch` is that chase with server 1 dead on arrival: bounded
/// backoff respawns, quarantine, and coordinator-local execution of the
/// dead slot's blocks.
fn bench_robustness(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::robustness_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::robustness_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

/// The compiled read path vs the naïve evaluator on the chased
/// employment/100 target (`tdx_bench::query_suite`, shared with the CI
/// gate). Acceptance bar: `warm_repeat` ≥ 5× faster than `naive_full` on
/// the same run — repeat reads must be as cheap as the write path's
/// per-batch work, not re-pay normalization per query.
fn bench_query_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group(tdx_bench::query_suite::GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for case in tdx_bench::query_suite::cases() {
        let run = case.run;
        group.bench_with_input(BenchmarkId::from(case.id.as_str()), &(), |b, _| {
            b.iter(&run)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_employment,
    bench_nested,
    bench_engines,
    bench_distributed,
    bench_scaling,
    bench_transport,
    bench_incremental,
    bench_durability,
    bench_robustness,
    bench_query_paths
);
criterion_main!(benches);
