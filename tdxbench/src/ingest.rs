//! `ingest`: a durable session on disk (fsync on every commit, a snapshot
//! every 8 commits) receiving small tail-local insert batches, a narrowing
//! refine every 16th batch, and one cold read after each commit; each pass
//! ends with a crash and a reopen. After the timed loop the same stream
//! replays on a partition-server cluster (see `cluster.rs`).
//!
//! Primary operation: an insert commit. Secondary: a refine commit.

use crate::inputs::{employment, facts_text, queries, stream, Step, MAPPING};
use crate::trace::Tracer;
use crate::{ms_since, session_opts, span_medians, Layers, RunCfg, Samples};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tdx_core::exchange::DataExchange;
use tdx_core::{CompiledQuery, DeltaBatch, TemporalAnswers};
use tdx_logic::{parse_mapping, UnionQuery};
use tdx_storage::codec::{decode, encode};
use tdx_storage::{StoreSnapshot, TemporalInstance};
use tdx_workload::BatchOrder;

const PERSONS: usize = 200;
const BATCHES: usize = 240;
const PER_BATCH: usize = 4;
const REFINE_EVERY: usize = 16;
const SNAPSHOT_EVERY: usize = 8;

/// A read without a query service: materialize the target, snapshot it,
/// compile and execute.
pub fn cold_read(target: TemporalInstance, q: &UnionQuery) -> tdx_core::Result<TemporalAnswers> {
    let snap = StoreSnapshot::latest(Arc::new(target));
    CompiledQuery::compile(&snap, q).map(|c| c.eval(&snap))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Result<bool, String> {
    let mut s = Samples::default();
    let base_dir = cfg.work.join("base");
    let pass_dir = cfg.work.join("pass");
    let mapping = parse_mapping(MAPPING).map_err(|e| e.to_string())?;
    let engine = DataExchange::new(mapping.clone()).with_options(session_opts());
    let open = |dir: &Path| {
        engine
            .durable(dir)
            .map(|d| d.snapshot_every(SNAPSHOT_EVERY))
    };
    let st = crate::timed_setups(&mut s, crate::SETUPS, || {
        let st = stream(
            &employment(PERSONS, cfg.seed),
            BatchOrder::TailLocal,
            BATCHES,
            PER_BATCH,
            REFINE_EVERY,
            cfg.seed,
        );
        let path = cfg.work.join("base.facts");
        std::fs::write(&path, facts_text(&st.base)).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let base = engine.load_source(&text).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&base_dir);
        let mut d = open(&base_dir).map_err(|e| e.to_string())?;
        d.apply(&DeltaBatch::from_instance(&base))
            .map_err(|e| e.to_string())?;
        d.snapshot_now().map_err(|e| e.to_string())?;
        Ok(st)
    })?;
    crate::print_config(
        "ingest",
        cfg,
        engine.options(),
        &format!(
            "durable fsync=every-commit snapshot_every={SNAPSHOT_EVERY} batches={BATCHES} \
             refine_every={REFINE_EVERY} replay=[{}]",
            crate::describe(&crate::cluster_opts())
        ),
    );
    let qs = queries();
    let wal = pass_dir.join("wal.log");
    let mut correct = true;
    let mut last = None;
    let mut split = crate::CommitSplit::default();
    let mut snap_bytes = vec![];
    let (mut wal_bytes, mut amp, mut recovery_ms) = (vec![], vec![], vec![]);
    let (mut matches, mut steps, mut dirty, mut parts, mut rechases, mut recoarsens) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    let start = Instant::now();
    let mut pass = 0;
    while pass < 1 + cfg.trace as usize || start.elapsed().as_secs_f64() < cfg.seconds {
        // A traced run alternates untraced and traced passes.
        let traced = cfg.trace && pass % 2 == 1;
        let mut off = Tracer::new(false);
        let tr = if traced { &mut *tr } else { &mut off };
        s.start_pass();
        copy_dir(&base_dir, &pass_dir)?;
        let mut d = open(&pass_dir).map_err(|e| e.to_string())?;
        // Traced passes mirror each commit on plain sessions, with and
        // without a query service, to split the durable commit into layers.
        let mut mirrors = if traced {
            let mut plain = engine.incremental().map_err(|e| e.to_string())?;
            plain
                .apply(&DeltaBatch::from_instance(&st.base))
                .map_err(|e| e.to_string())?;
            let mut served = plain.clone();
            served.enable_query_service();
            Some((plain, served))
        } else {
            None
        };
        for (i, step) in st.steps.iter().enumerate() {
            tr.next_op();
            let (Step::Insert(batch) | Step::Refine(batch)) = step;
            let insert = matches!(step, Step::Insert(..));
            let plain_span = if insert {
                "incremental.apply"
            } else {
                "incremental.rechase"
            };
            // The plain mirror is subtracted from both the durable and the
            // served commit. It runs before them on even steps and after
            // them on odd ones, so neither side of a difference always runs
            // on the caches the other just warmed.
            let mut plain_ms = None;
            if let Some((plain, _)) = mirrors.as_mut().filter(|_| i % 2 == 0) {
                plain_ms = Some(crate::mirror_apply(tr, plain_span, plain, batch)?);
            }
            let wal_before = file_len(&wal);
            let t = Instant::now();
            let r = tr.span("durable.apply", || d.apply(batch));
            let dt = ms_since(t);
            let Some(stats) = s.count(r) else { continue };
            // A snapshot commit truncates the WAL.
            let snapshot = file_len(&wal) == 0;
            if insert {
                s.op_ms.push(dt);
            } else {
                s.aux_ms.push(dt);
            }
            if cfg.trace {
                s.overhead_sample(traced, dt);
            }
            if let Some((plain, served)) = mirrors.as_mut() {
                let served_ms = crate::mirror_apply(tr, "incremental.apply_served", served, batch)?;
                let plain_ms = match plain_ms {
                    Some(ms) => ms,
                    None => crate::mirror_apply(tr, plain_span, plain, batch)?,
                };
                if insert {
                    split.plain_ms.push(plain_ms);
                    split.served_ms.push(served_ms);
                    if !snapshot {
                        split.logged_ms.push(dt);
                        split.logged_plain_ms.push(plain_ms);
                        let bytes = encode(batch);
                        let grew = file_len(&wal).saturating_sub(wal_before) as f64;
                        wal_bytes.push(grew);
                        amp.push(grew / bytes.len() as f64);
                    }
                }
                tr.span("codec.batch_roundtrip", || {
                    decode::<DeltaBatch>(&encode(batch))
                })
                .map_err(|e| e.to_string())?;
                matches += stats.tgd_matches;
                steps += stats.tgd_steps;
                dirty += stats.dirty_partitions;
                parts += stats.partitions;
                rechases += stats.full_rechase as usize;
                recoarsens += stats.recoarsened as usize;
            }
            let (_, q) = &qs[i % qs.len()];
            let r = tr.span("query.cold_read", || cold_read(d.target(), q));
            s.count(r);
        }
        // Crash and recover: reopen the state dir, answer the first query.
        let before = d.state_bytes();
        d.simulate_crash();
        tr.next_op();
        if traced {
            tr.span("wal.replay", || tdx_storage::wal::replay(&wal))
                .map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        tr.enter("durable.recovery");
        let reopened = tr.span("durable.open", || open(&pass_dir));
        let answered = reopened
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|r| cold_read(r.target(), &qs[0].1).map_err(|e| e.to_string()));
        tr.exit();
        if traced {
            recovery_ms.push(ms_since(t));
        }
        if s.count(answered).is_some() {
            let mut r = reopened.map_err(|e| e.to_string())?;
            if r.state_bytes() != before {
                eprintln!("tdxbench: recovered state differs from the pre-crash state");
                correct = false;
            }
            if traced {
                for _ in 0..3 {
                    tr.span("durable.snapshot", || r.snapshot_now())
                        .map_err(|e| e.to_string())?;
                }
                snap_bytes.push(file_len(&pass_dir.join("snapshot.bin")) as f64);
            }
            last = Some(r);
        }
        pass += 1;
    }
    s.peak_rss_mb = crate::peak_rss_mb();

    // Corollary 20: the final target is hom-equivalent to a from-scratch
    // chase of the accumulated source.
    let r = last.ok_or("no pass recovered")?;
    let scratch = engine
        .exchange(&r.session().source())
        .map_err(|e| e.to_string())?;
    if !crate::hom_equivalent(&scratch.target, &r.target()) {
        eprintln!("tdxbench: ingest target is not hom-equivalent to a from-scratch chase");
        correct = false;
    }
    let mut layers = Layers::new();
    correct &= crate::cluster::replay(
        &mapping,
        &st.base,
        &st.steps,
        &r.target(),
        tr,
        &mut s,
        &mut layers,
    )?;

    if cfg.trace {
        span_medians(
            tr,
            &mut layers,
            &[
                ("incremental.apply", "incremental.apply_ms", 1.0),
                ("cluster.apply", "cluster.apply_ms", 1.0),
                ("incremental.rechase", "incremental.rechase_ms", 1.0),
                ("wal.replay", "wal.replay_ms", 1.0),
                ("durable.snapshot", "durable.snapshot_ms", 1.0),
                ("durable.open", "durable.open_ms", 1.0),
                ("query.cold_read", "query.cold_read_ms", 1.0),
                ("codec.batch_roundtrip", "codec.batch_roundtrip_us", 1e3),
            ],
        );
        split.insert_into(&mut layers);
        layers.insert("durable.recovery_ms".into(), crate::median(&recovery_ms));
        layers.insert("durable.snapshot_bytes".into(), crate::median(&snap_bytes));
        layers.insert("wal.bytes_per_commit".into(), crate::median(&wal_bytes));
        layers.insert("wal.write_amp".into(), crate::median(&amp));
        layers.insert(
            "incremental.step_ratio".into(),
            steps as f64 / matches.max(1) as f64,
        );
        layers.insert(
            "incremental.dirty_share".into(),
            dirty as f64 / parts.max(1) as f64,
        );
        let traced_passes = (pass / 2).max(1) as f64;
        layers.insert(
            "incremental.full_rechases".into(),
            rechases as f64 / traced_passes,
        );
        layers.insert(
            "incremental.recoarsens".into(),
            recoarsens as f64 / traced_passes,
        );
    }
    crate::print_result(cfg, correct, &s, layers);
    Ok(correct)
}
