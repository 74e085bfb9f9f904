//! Workload binary of the repository benchmark. `run.py` builds this
//! binary and the `tdx` CLI, then calls
//!
//! ```text
//! tdxbench ingest|serve --seed N --seconds S --trace 0|1 --work DIR
//! tdxbench batch-prep --seed N --trace 0|1 --work DIR
//! ```
//!
//! The stream workloads print their result as the last line of stdout.
//! `batch-prep` writes the `batch` workload's input files and prints the
//! library reference, output checks and (traced) layer timings, which
//! `run.py` combines with the `tdx exchange` processes it times itself.
//! See README.md for the workloads and metrics.

mod batch;
mod cluster;
mod ingest;
mod inputs;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tdx_core::{
    semantics, ChaseEngine, ChaseOptions, DeltaBatch, IncrementalExchange, TransportKind,
};
use tdx_storage::TemporalInstance;
use trace::Tracer;

/// Set-ups per run of the stream workloads; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Every per-layer metric with its unit. A workload reports all of them;
/// a layer that the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.source_ms", "ms"),
    ("normalize.source_ms", "ms"),
    ("normalize.fragments_per_fact", "ratio"),
    ("chase.exchange_ms", "ms"),
    ("chase.tgd_steps", "count"),
    ("chase.egd_merges", "count"),
    ("chase.nulls_created", "count"),
    ("incremental.full_apply_ms", "ms"),
    ("render.target_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("incremental.apply_ms", "ms"),
    ("incremental.step_ratio", "ratio"),
    ("incremental.dirty_share", "ratio"),
    ("incremental.rechase_ms", "ms"),
    ("incremental.full_rechases", "count"),
    ("incremental.recoarsens", "count"),
    ("durable.log_ms", "ms"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.write_amp", "ratio"),
    ("durable.snapshot_ms", "ms"),
    ("durable.snapshot_bytes", "bytes"),
    ("wal.replay_ms", "ms"),
    ("durable.open_ms", "ms"),
    ("durable.recovery_ms", "ms"),
    ("query.cold_read_ms", "ms"),
    ("query.publish_ms", "ms"),
    ("snapshot.build_us", "us"),
    ("query.compile_us.proj", "us"),
    ("query.compile_us.join", "us"),
    ("query.compile_us.union", "us"),
    ("query.exec_ms.proj", "ms"),
    ("query.exec_ms.join", "ms"),
    ("query.exec_ms.union", "ms"),
    ("query.service_ms.proj", "ms"),
    ("query.service_ms.join", "ms"),
    ("query.service_ms.union", "ms"),
    ("query.first_read_ms", "ms"),
    ("cache.fragment_reuse", "ratio"),
    ("cache.plans_per_eval", "ratio"),
    ("cluster.apply_ms", "ms"),
    ("cluster.round_trips_per_commit", "count"),
    ("cluster.bytes_per_commit", "bytes"),
    ("cluster.facts_shipped_per_commit", "count"),
    ("codec.batch_roundtrip_us", "us"),
    ("trace.overhead_pct", "%"),
];

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

/// What a stream workload measured: the latencies of its two operation
/// types, split into passes, and the failure accounting.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub aux_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Where each pass starts in `op_ms` and `aux_ms`.
    passes: Vec<(usize, usize)>,
    /// Primary-operation latencies of untraced and traced passes of a
    /// traced run, for the tracing overhead.
    pub untraced_op_ms: Vec<f64>,
    pub traced_op_ms: Vec<f64>,
}

impl Samples {
    /// Counts one operation; `Err` counts as failed.
    pub fn count<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("tdxbench: operation failed: {e}");
                None
            }
        }
    }

    /// Keeps a primary-operation latency of a traced run for the tracing
    /// overhead.
    pub fn overhead_sample(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced_op_ms.push(ms);
        } else {
            self.untraced_op_ms.push(ms);
        }
    }

    /// Marks the start of a pass.
    pub fn start_pass(&mut self) {
        self.passes.push((self.op_ms.len(), self.aux_ms.len()));
    }

    /// The median over passes of each pass's `q` quantile of `v`, whose
    /// passes start at `starts`: a burst of machine noise during one pass
    /// moves it less than it moves a quantile of all samples pooled.
    fn per_pass(v: &[f64], starts: impl Iterator<Item = usize>, q: f64) -> f64 {
        let mut bounds: Vec<usize> = starts.collect();
        bounds.push(v.len());
        let per: Vec<f64> = bounds
            .windows(2)
            .filter(|w| w[1] > w[0])
            .map(|w| quantile(&v[w[0]..w[1]], q))
            .collect();
        median(&per)
    }

    fn op_quantile(&self, q: f64) -> f64 {
        Self::per_pass(&self.op_ms, self.passes.iter().map(|p| p.0), q)
    }

    fn aux_median(&self) -> f64 {
        Self::per_pass(&self.aux_ms, self.passes.iter().map(|p| p.1), 0.5)
    }
}

/// Per-layer values by metric name; absent names print as 0.
pub type Layers = BTreeMap<String, f64>;

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples; 0 for
/// none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Adds the median of each named span's self times to `layers`, scaled
/// from milliseconds by `scale`.
pub fn span_medians(tr: &Tracer, layers: &mut Layers, names: &[(&str, &str, f64)]) {
    let spans = tr.self_ms();
    for (span, metric, scale) in names {
        if let Some(v) = spans.get(span) {
            layers.insert(metric.to_string(), median(v) * scale);
        }
    }
}

/// Applies `batch` to a mirror session inside span `name`; returns the
/// wall time in milliseconds.
pub fn mirror_apply(
    tr: &mut Tracer,
    name: &'static str,
    session: &mut IncrementalExchange,
    batch: &DeltaBatch,
) -> Result<f64, String> {
    let t = Instant::now();
    tr.span(name, || session.apply(batch))
        .map_err(|e| e.to_string())?;
    Ok(ms_since(t))
}

/// Commit latencies of a traced run's mirror sessions, for the layer
/// costs that are a difference between two sessions fed the same batches.
/// Each is a difference of medians over the commits, not a median of
/// per-commit differences.
#[derive(Default)]
pub struct CommitSplit {
    /// Insert commits on the plain session and on the one with a query
    /// service: `query.publish_ms`.
    pub plain_ms: Vec<f64>,
    pub served_ms: Vec<f64>,
    /// Durable insert commits that wrote no snapshot, and the plain
    /// session's commits of the same batches: `durable.log_ms`.
    pub logged_ms: Vec<f64>,
    pub logged_plain_ms: Vec<f64>,
}

impl CommitSplit {
    /// Adds the two differences, for the mirrors a workload ran.
    pub fn insert_into(&self, layers: &mut Layers) {
        if !self.served_ms.is_empty() {
            let ms = median(&self.served_ms) - median(&self.plain_ms);
            layers.insert("query.publish_ms".into(), ms);
        }
        if !self.logged_ms.is_empty() {
            let ms = median(&self.logged_ms) - median(&self.logged_plain_ms);
            layers.insert("durable.log_ms".into(), ms);
        }
    }
}

/// Corollary 20's relation between two concrete targets: their abstract
/// views are homomorphically equivalent. The homomorphism search recurses
/// once per fact, so it runs on a thread with a large stack.
pub fn hom_equivalent(a: &TemporalInstance, b: &TemporalInstance) -> bool {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(1 << 30)
            .spawn_scoped(s, || tdx_core::hom_equivalent(&semantics(a), &semantics(b)))
            .map(|h| h.join().unwrap_or(false))
            .unwrap_or(false)
    })
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File-system type of the mount holding `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Chase options of every session the benchmark opens: one worker
/// thread, so the figures do not depend on the machine's core count.
pub fn session_opts() -> ChaseOptions {
    ChaseOptions::partitioned_parallel(1)
}

/// Chase options of the `cluster` workload.
pub fn cluster_opts() -> ChaseOptions {
    ChaseOptions::distributed(2)
        .on_transport(TransportKind::Channel)
        .with_frame_deadline(std::time::Duration::from_secs(10))
}

pub fn describe(o: &ChaseOptions) -> String {
    match o.engine {
        ChaseEngine::PartitionedParallel { threads } => format!("partitioned threads={threads}"),
        ChaseEngine::Distributed { servers } => format!(
            "distributed servers={servers} transport={:?} deadline={:?} threads={}",
            o.transport,
            o.frame_deadline,
            tdx_core::worker_threads(0)
        ),
        e => format!("{e:?}"),
    }
}

/// Prints the pinned environment of a run.
pub fn print_config(workload: &str, cfg: &RunCfg, opts: &ChaseOptions, extra: &str) {
    println!(
        "# tdxbench {workload}: seed={} seconds={} trace={} engine=[{}] {extra} state_fs={}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        describe(opts),
        fs_type(&cfg.work)
    );
}

/// Times `n` runs of `setup`, keeping the last result.
pub fn timed_setups<T>(
    samples: &mut Samples,
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(setup()?);
        samples.setup_s.push(t.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The per-layer catalogue with the values in `layers`.
pub fn per_layer(layers: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u)| (*n, layers.get(*n).copied().unwrap_or(0.0), *u))
        .collect()
}

/// A JSON object with one `{"value": v, "unit": u}` per metric.
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the result line: the end-to-end metrics untraced, the per-layer
/// metrics traced.
pub fn print_result(cfg: &RunCfg, correct: bool, s: &Samples, mut layers: Layers) {
    let metrics = if cfg.trace {
        if !s.untraced_op_ms.is_empty() && !s.traced_op_ms.is_empty() {
            let base = median(&s.untraced_op_ms);
            layers.insert(
                "trace.overhead_pct".into(),
                (median(&s.traced_op_ms) - base) / base * 100.0,
            );
        }
        per_layer(&layers)
    } else {
        vec![
            ("setup_s", median(&s.setup_s), "s"),
            ("op_p50_ms", s.op_quantile(0.5), "ms"),
            ("op_p95_ms", s.op_quantile(0.95), "ms"),
            ("aux_p50_ms", s.aux_median(), "ms"),
            ("peak_rss_mb", s.peak_rss_mb, "MB"),
        ]
    };
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", quantile(&s.op_ms, d as f64 / 10.0)))
        .collect();
    println!(
        "# samples: op={} aux={} setups={} op deciles ms: {}",
        s.op_ms.len(),
        s.aux_ms.len(),
        s.setup_s.len(),
        deciles.join(" ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        s.attempted.max(1),
        s.failed,
        metrics_json(&metrics)
    );
}

struct Args {
    cmd: String,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().cloned().ok_or("missing workload")?;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = PathBuf::from(".bench_work");
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val} for {flag}");
        match flag.as_str() {
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => trace = val == "1",
            "--work" => work = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cmd,
        cfg: RunCfg {
            seed,
            seconds,
            trace,
            work,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = args.cfg;
    cfg.work = cfg.work.join(&args.cmd);
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("tdxbench: work dir {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let mut tr = Tracer::new(cfg.trace);
    let outcome = match args.cmd.as_str() {
        "batch-prep" => batch::prep(&cfg, &mut tr),
        "ingest" => ingest::run(&cfg, &mut tr),
        "serve" => serve::run(&cfg, &mut tr),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = tr.write_jsonl(&cfg.work.join("spans.jsonl")) {
        eprintln!("tdxbench: writing spans: {e}");
    }
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tdxbench: {}: {e}", args.cmd);
            ExitCode::from(2)
        }
    }
}
