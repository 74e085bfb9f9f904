//! `serve`: a plain session with its query service attached. Each
//! uniform-order batch (dirtying most timeline partitions) is followed by
//! a run of read rounds over the fixed mix; a round evaluates each query
//! shape once, so the first round after a commit pays the cache misses and
//! the rest mostly hit.
//!
//! Primary operation: a read round. Secondary: an insert commit (which
//! includes publishing the new version to the service).

use crate::inputs::{employment, facts_text, queries, stream, Step, MAPPING};
use crate::trace::Tracer;
use crate::{ms_since, session_opts, span_medians, Layers, RunCfg, Samples};
use std::sync::Arc;
use std::time::Instant;
use tdx_core::exchange::DataExchange;
use tdx_core::{naive_eval_concrete, CacheStats, CompiledQuery, DeltaBatch};
use tdx_logic::parse_mapping;
use tdx_storage::StoreSnapshot;
use tdx_workload::BatchOrder;

/// Small enough that the read path's working set stays in the core's own
/// caches: at 200 persons the read-round median drifted by up to 2× with
/// the load other tenants put on the shared cache, at 100 by about 6%.
const PERSONS: usize = 100;
const BATCHES: usize = 24;
const PER_BATCH: usize = 20;
/// Read rounds after each commit: the first misses, so 1 in 10 rounds is
/// a cold one and both percentiles sit inside one mode.
const ROUNDS: usize = 10;

const SERVICE: [&str; 3] = [
    "query.service.proj",
    "query.service.join",
    "query.service.union",
];
const COMPILE: [&str; 3] = [
    "query.compile.proj",
    "query.compile.join",
    "query.compile.union",
];
const EXEC: [&str; 3] = ["query.exec.proj", "query.exec.join", "query.exec.union"];

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Result<bool, String> {
    let mut s = Samples::default();
    let mapping = parse_mapping(MAPPING).map_err(|e| e.to_string())?;
    let engine = DataExchange::new(mapping).with_options(session_opts());
    let (st, base) = crate::timed_setups(&mut s, crate::SETUPS, || {
        let st = stream(
            &employment(PERSONS, cfg.seed),
            BatchOrder::Uniform,
            BATCHES,
            PER_BATCH,
            0,
            cfg.seed,
        );
        let path = cfg.work.join("base.facts");
        std::fs::write(&path, facts_text(&st.base)).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let src = engine.load_source(&text).map_err(|e| e.to_string())?;
        let mut session = engine.incremental().map_err(|e| e.to_string())?;
        session
            .apply(&DeltaBatch::from_instance(&src))
            .map_err(|e| e.to_string())?;
        Ok((st, session))
    })?;
    crate::print_config(
        "serve",
        cfg,
        engine.options(),
        &format!("query_service batches={BATCHES} rounds_per_commit={ROUNDS}"),
    );
    let qs = queries();
    let mut correct = true;
    let mut split = crate::CommitSplit::default();
    let (mut first_ms, mut build_us) = (vec![], vec![]);
    let (mut matches, mut steps, mut dirty, mut parts) = (0usize, 0usize, 0usize, 0usize);
    let mut cache = CacheStats::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass < 1 + cfg.trace as usize || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && pass % 2 == 1;
        let mut off = Tracer::new(false);
        let tr = if traced { &mut *tr } else { &mut off };
        s.start_pass();
        let mut session = base.clone();
        let svc = session.enable_query_service();
        let mut mirror = traced.then(|| base.clone());
        for (i, step) in st.steps.iter().enumerate() {
            let Step::Insert(batch) = step else {
                continue;
            };
            tr.next_op();
            // The plain mirror runs before the served commit on even steps
            // and after it on odd ones, as in `ingest`.
            let mut plain_ms = None;
            if let Some(plain) = mirror.as_mut().filter(|_| i % 2 == 0) {
                plain_ms = Some(crate::mirror_apply(tr, "incremental.apply", plain, batch)?);
            }
            let t = Instant::now();
            let r = tr.span("incremental.apply_served", || session.apply(batch));
            let dt = ms_since(t);
            let Some(stats) = s.count(r) else { continue };
            s.aux_ms.push(dt);
            if let Some(plain) = mirror.as_mut() {
                let plain_ms = match plain_ms {
                    Some(ms) => ms,
                    None => crate::mirror_apply(tr, "incremental.apply", plain, batch)?,
                };
                split.plain_ms.push(plain_ms);
                split.served_ms.push(dt);
                matches += stats.tgd_matches;
                steps += stats.tgd_steps;
                dirty += stats.dirty_partitions;
                parts += stats.partitions;
            }
            for round in 0..ROUNDS {
                tr.next_op();
                let t = Instant::now();
                for (k, (_, q)) in qs.iter().enumerate() {
                    let r = tr.span(SERVICE[k], || svc.eval(q));
                    s.count(r);
                }
                let dt = ms_since(t);
                s.op_ms.push(dt);
                if cfg.trace {
                    s.overhead_sample(traced, dt);
                }
                if traced && round == 0 {
                    first_ms.push(dt / qs.len() as f64);
                }
            }
            if traced {
                // The layers under the service, on a pinned snapshot of the
                // version just published.
                let target = Arc::new(session.target());
                let t = Instant::now();
                let snap = tr.span("snapshot.build", || {
                    StoreSnapshot::latest(Arc::clone(&target))
                });
                build_us.push(ms_since(t) * 1e3);
                for (k, (_, q)) in qs.iter().enumerate() {
                    let c = tr.span(COMPILE[k], || CompiledQuery::compile(&snap, q));
                    let c = c.map_err(|e| e.to_string())?;
                    std::hint::black_box(tr.span(EXEC[k], || c.eval(&snap)));
                }
            }
        }
        if pass == 0 {
            // Theorem 21 at a fixed version: the service's answers equal
            // naïve evaluation over the materialized target.
            let target = session.target();
            for (name, q) in &qs {
                let served = svc.eval(q).map_err(|e| e.to_string())?;
                let oracle = naive_eval_concrete(&target, q).map_err(|e| e.to_string())?;
                if served != oracle {
                    eprintln!("tdxbench: serve query {name} differs from the naive oracle");
                    correct = false;
                }
            }
        }
        if traced {
            let c = svc.stats();
            cache.evals += c.evals;
            cache.plans_compiled += c.plans_compiled;
            cache.fragments_reused += c.fragments_reused;
            cache.fragments_recomputed += c.fragments_recomputed;
        }
        pass += 1;
    }
    s.peak_rss_mb = crate::peak_rss_mb();

    let mut layers = Layers::new();
    if cfg.trace {
        span_medians(
            tr,
            &mut layers,
            &[
                ("incremental.apply", "incremental.apply_ms", 1.0),
                (COMPILE[0], "query.compile_us.proj", 1e3),
                (COMPILE[1], "query.compile_us.join", 1e3),
                (COMPILE[2], "query.compile_us.union", 1e3),
                (EXEC[0], "query.exec_ms.proj", 1.0),
                (EXEC[1], "query.exec_ms.join", 1.0),
                (EXEC[2], "query.exec_ms.union", 1.0),
                (SERVICE[0], "query.service_ms.proj", 1.0),
                (SERVICE[1], "query.service_ms.join", 1.0),
                (SERVICE[2], "query.service_ms.union", 1.0),
            ],
        );
        layers.insert("snapshot.build_us".into(), crate::median(&build_us));
        split.insert_into(&mut layers);
        layers.insert("query.first_read_ms".into(), crate::median(&first_ms));
        layers.insert(
            "incremental.step_ratio".into(),
            steps as f64 / matches.max(1) as f64,
        );
        layers.insert(
            "incremental.dirty_share".into(),
            dirty as f64 / parts.max(1) as f64,
        );
        let frags = (cache.fragments_reused + cache.fragments_recomputed).max(1);
        layers.insert(
            "cache.fragment_reuse".into(),
            cache.fragments_reused as f64 / frags as f64,
        );
        layers.insert(
            "cache.plans_per_eval".into(),
            cache.plans_compiled as f64 / cache.evals.max(1) as f64,
        );
    }
    crate::print_result(cfg, correct, &s, layers);
    Ok(correct)
}
