//! `batch`: the input files and library reference for the `tdx exchange`
//! processes that `run.py` times, the output check of Corollary 20, and,
//! traced, the in-process layer timings the process wall is split into.

use crate::inputs::{employment, facts_text, MAPPING};
use crate::trace::Tracer;
use crate::{median, ms_since, session_opts, span_medians, Layers, RunCfg, Samples};
use std::time::Instant;
use tdx_core::exchange::DataExchange;
use tdx_core::{normalize, ChaseOptions, DeltaBatch};
use tdx_logic::{parse_mapping, RelId};
use tdx_storage::display::render_temporal_relation;
use tdx_storage::TemporalInstance;

/// Persons in the generated source: about 12k facts.
const PERSONS: usize = 620;
/// Set-ups per run: each chases the whole source once, so fewer than the
/// stream workloads' nine.
const SETUPS: usize = 5;
/// In-process repetitions of the layer timings in a traced run.
const TRACE_REPS: usize = 8;

fn render_all(t: &TemporalInstance) -> usize {
    (0..t.schema().len())
        .map(|r| render_temporal_relation(t, RelId(r as u32)).len())
        .sum()
}

pub fn prep(cfg: &RunCfg, tr: &mut Tracer) -> Result<bool, String> {
    let map_path = cfg.work.join("employment.map");
    let facts_path = cfg.work.join("source.facts");
    let mapping = parse_mapping(MAPPING).map_err(|e| e.to_string())?;
    let engine = DataExchange::new(mapping.clone());
    // The set-up ends with the base load: the library reference, what the
    // CLI runs, on the file just written.
    let mut samples = Samples::default();
    let (text, src, reference) = crate::timed_setups(&mut samples, SETUPS, || {
        let text = facts_text(&employment(PERSONS, cfg.seed));
        std::fs::write(&map_path, MAPPING).map_err(|e| e.to_string())?;
        std::fs::write(&facts_path, text).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&facts_path).map_err(|e| e.to_string())?;
        let src = engine.load_source(&text).map_err(|e| e.to_string())?;
        let reference = engine.exchange(&src).map_err(|e| e.to_string())?;
        Ok((text, src, reference))
    })?;
    crate::print_config(
        "batch",
        cfg,
        &ChaseOptions::default(),
        "processes=tdx-exchange",
    );

    let normalized = normalize(&src, &mapping.tgd_bodies()).map_err(|e| e.to_string())?;

    // Corollary 20: a one-batch session reaches a hom-equivalent target.
    let mut session = DataExchange::new(mapping.clone())
        .with_options(session_opts())
        .incremental()
        .map_err(|e| e.to_string())?;
    session
        .apply(&DeltaBatch::from_instance(&src))
        .map_err(|e| e.to_string())?;
    let equivalent = crate::hom_equivalent(&reference.target, &session.target());
    if !equivalent {
        eprintln!("tdxbench: batch reference is not hom-equivalent to a one-batch session");
    }

    let mut layers = Layers::new();
    let mut layer_sum_ms = 0.0;
    if cfg.trace {
        // The process pipeline in-process, alternating untraced and traced
        // repetitions for the tracing overhead.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for rep in 0..2 * TRACE_REPS {
            let on = rep % 2 == 1;
            let mut t_ = Tracer::new(on);
            let tr = if on { &mut *tr } else { &mut t_ };
            tr.next_op();
            let t = Instant::now();
            tr.enter("batch.pipeline");
            let s = tr.span("parse.source", || engine.load_source(&text));
            let s = s.map_err(|e| e.to_string())?;
            let r = tr.span("chase.exchange", || engine.exchange(&s));
            let r = r.map_err(|e| e.to_string())?;
            std::hint::black_box(tr.span("render.target", || render_all(&r.target)));
            tr.exit();
            if on { &mut traced } else { &mut untraced }.push(ms_since(t));
            if on {
                tr.span("normalize.source", || normalize(&s, &mapping.tgd_bodies()))
                    .map_err(|e| e.to_string())?;
                let mut fresh = DataExchange::new(mapping.clone())
                    .with_options(session_opts())
                    .incremental()
                    .map_err(|e| e.to_string())?;
                let b = DeltaBatch::from_instance(&s);
                tr.span("incremental.full_apply", || fresh.apply(&b))
                    .map_err(|e| e.to_string())?;
            }
        }
        span_medians(
            tr,
            &mut layers,
            &[
                ("parse.source", "parse.source_ms", 1.0),
                ("normalize.source", "normalize.source_ms", 1.0),
                ("chase.exchange", "chase.exchange_ms", 1.0),
                ("incremental.full_apply", "incremental.full_apply_ms", 1.0),
                ("render.target", "render.target_ms", 1.0),
            ],
        );
        layer_sum_ms = ["parse.source_ms", "chase.exchange_ms", "render.target_ms"]
            .iter()
            .map(|k| layers.get(*k).copied().unwrap_or(0.0))
            .sum();
        let st = &reference.stats;
        layers.insert(
            "normalize.fragments_per_fact".into(),
            st.source_facts_normalized as f64 / st.source_facts_in.max(1) as f64,
        );
        layers.insert("chase.tgd_steps".into(), st.tgd_steps as f64);
        layers.insert("chase.egd_merges".into(), st.egd_merges as f64);
        layers.insert("chase.nulls_created".into(), st.nulls_created as f64);
        let base = median(&untraced);
        layers.insert(
            "trace.overhead_pct".into(),
            (median(&traced) - base) / base * 100.0,
        );
    }

    println!(
        "{{\"setup_s\": {}, \"mapping\": \"{}\", \"facts\": \"{}\", \"source_facts\": {}, \
         \"target_facts\": {}, \"nulls\": {}, \"normalized_facts\": {}, \"equivalent\": {equivalent}, \
         \"layer_sum_ms\": {layer_sum_ms}, \"layers\": {}}}",
        median(&samples.setup_s),
        map_path.display(),
        facts_path.display(),
        src.total_len(),
        reference.target.total_len(),
        reference.stats.nulls_created,
        normalized.total_len(),
        crate::metrics_json(&crate::per_layer(&layers))
    );
    Ok(equivalent)
}
