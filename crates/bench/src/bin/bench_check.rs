//! CI bench-regression gate.
//!
//! ```text
//! cargo run --release -p tdx-bench --bin bench_check
//! cargo run --release -p tdx-bench --bin bench_check -- --baseline BENCH_chase.json \
//!     --out target/bench_check/BENCH_fresh.json
//! ```
//!
//! Runs the gated benchmark suites in fast mode — the engine ablation
//! (`c_chase/engine/*`), the incremental-session family
//! (`c_chase/incremental/*`), and the other gated families up through the
//! compiled-query read path (`c_chase/query/*`), the same cases
//! `cargo bench --bench chase` records via [`tdx_bench::gated_cases`] —
//! writes the fresh measurements
//! as JSON (uploaded as a workflow artifact), and compares them against the
//! committed `BENCH_chase.json` baselines.
//!
//! CI machines and the machine that recorded the baseline differ in raw
//! speed, so absolute comparison would be noise. The gate first estimates a
//! **calibration factor** — the median of `fresh/baseline` over all gated
//! ids — and then fails any id whose ratio exceeds `1.25 ×` that median:
//! a *relative* regression of more than 25% against the fleet-wide shift.
//! Ratios compare **medians** (the middle of 9 samples), not means: one
//! scheduler spike on a loaded CI box shifts a mean but not a median.
//! Rows whose baseline runs under ~0.5 ms are *reported but not gated* —
//! at that scale run-to-run scheduler drift on shared runners routinely
//! exceeds the 25% threshold, so gating them would only produce flakes.
//! The exit code is non-zero on regression, failing the workflow. A
//! failing run also reports how many gated rows ran below 0.8× their
//! baseline after calibration, naming the largest movers: a speed-up
//! across many rows pulls the calibration factor down, and untouched rows
//! then read as regressions.
//!
//! On single-core machines the `partitioned_parallel/4` rows are skipped by
//! the suite itself (they would measure pure thread overhead); baseline
//! rows without a fresh counterpart are simply not gated. The reverse — a
//! *measured* id with no committed baseline row — fails the gate with a
//! "missing baseline row" message listing the ids: a gated family whose
//! baseline was never committed would otherwise be silently exempt.
//!
//! Every baseline row must carry the **full schema** (`median_ns`,
//! `mean_ns`, `min_ns`, `samples`, `iters_per_sample`); a partial row fails
//! the gate instead of silently being anchored on a different statistic.
//! The fresh JSON this binary writes carries the same schema, so it can be
//! committed as the next baseline verbatim.
//!
//! Besides the cross-run calibration gate there is a **scaling smoke
//! gate** over the `c_chase/distributed/scaling/*` family: on the same
//! fresh run (no calibration needed), the {2,4}-server rows may not exceed
//! the 1-server row by more than the gate margin on a multi-core box —
//! catching a reintroduction of the v1 protocol's negative scaling. On
//! 1-core runners, where parallel speedup is physically impossible, the
//! check degrades to a parity check at twice the margin.

use std::time::{Duration, Instant};

struct Baseline {
    id: String,
    anchor_ns: f64,
}

/// Every field a baseline (and fresh) row must carry. Rows missing any of
/// them fail the gate outright: a partial row silently weakens the anchor
/// (an id gated on `mean_ns` because its `median_ns` was never written
/// compares a different statistic than the rest of the suite).
const REQUIRED_FIELDS: [&str; 5] = [
    "median_ns",
    "mean_ns",
    "min_ns",
    "samples",
    "iters_per_sample",
];

fn field(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\":"))?;
    let tail = &line[at + name.len() + 3..];
    let num: String = tail
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse::<f64>().ok()
}

/// Minimal parser for the flat `BENCH_chase.json` schema: one object per
/// line with `"id"` and the timing fields. The per-id anchor is
/// `median_ns` — the statistic the gate compares. Every row must carry the
/// full schema ([`REQUIRED_FIELDS`]); any partial row fails the gate with
/// the offending ids instead of silently passing on a different statistic.
fn parse_baseline(path: &str, text: &str) -> Vec<Baseline> {
    let mut out = Vec::new();
    let mut partial: Vec<String> = Vec::new();
    for line in text.lines() {
        let Some(id_at) = line.find("\"id\":") else {
            continue;
        };
        let rest = &line[id_at + 5..];
        let Some(q1) = rest.find('"') else { continue };
        let Some(q2) = rest[q1 + 1..].find('"') else {
            continue;
        };
        let id = rest[q1 + 1..q1 + 1 + q2].to_string();
        let missing: Vec<&str> = REQUIRED_FIELDS
            .iter()
            .filter(|name| field(line, name).is_none())
            .copied()
            .collect();
        if !missing.is_empty() {
            partial.push(format!("  {id}: missing {}", missing.join(", ")));
            continue;
        }
        out.push(Baseline {
            id,
            anchor_ns: field(line, "median_ns").expect("checked above"),
        });
    }
    if !partial.is_empty() {
        eprintln!("bench_check: FAILED — partial row(s) in {path}:");
        for line in &partial {
            eprintln!("{line}");
        }
        eprintln!(
            "bench_check: regenerate the baseline with this binary (--out) so every row \
             carries the full schema: {}",
            REQUIRED_FIELDS.join(", ")
        );
        std::process::exit(1);
    }
    out
}

/// One fresh measurement, full row schema.
struct Fresh {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
    iters_per_sample: u32,
}

/// Fast-mode measurement: scale the per-sample iteration count so every
/// sample runs ≥ ~10ms (microsecond-scale cases would otherwise be pure
/// scheduler noise), take 9 samples, and report the per-iteration
/// statistics. The gate rules on the median — robust against a single
/// noisy sample on a loaded CI runner.
fn measure(id: &str, run: &dyn Fn()) -> Fresh {
    // tdx-lint: allow(wall-clock): benchmark harness; wall time is the measurement itself
    let t0 = Instant::now();
    run(); // warmup doubles as the iteration-count calibration
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            // tdx-lint: allow(wall-clock): per-sample benchmark timer
            let t0 = Instant::now();
            for _ in 0..iters {
                run();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Fresh {
        id: id.to_string(),
        median_ns: samples[samples.len() / 2],
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        min_ns: samples[0],
        samples: samples.len(),
        iters_per_sample: iters,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path = "BENCH_chase.json".to_string();
    let mut out_path = "target/bench_check/BENCH_fresh.json".to_string();
    let mut threshold = 1.25f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline <path>"),
            "--out" => out_path = args.next().expect("--out <path>"),
            "--threshold" => {
                threshold = args
                    .next()
                    .expect("--threshold <ratio>")
                    .parse()
                    .expect("threshold is a number")
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baselines = parse_baseline(&baseline_path, &baseline_text);

    if !tdx_bench::multicore() {
        println!(
            "bench_check: single-core machine — partitioned_parallel/4 rows skipped \
             (they would measure thread overhead, not parallel speedup)"
        );
    }
    println!("bench_check: measuring c_chase/engine + c_chase/incremental (fast mode)");
    let cases = tdx_bench::gated_cases();
    let mut fresh: Vec<Fresh> = Vec::new();
    for (id, run) in &cases {
        let row = measure(id, &**run);
        println!("  {id:60} {:10.2} ms", row.median_ns / 1e6);
        fresh.push(row);
    }

    // Write the fresh JSON (workflow artifact), same full-schema shape the
    // baseline is required to carry — so a fresh file can be committed as
    // the next baseline verbatim.
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, row) in fresh.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            row.id,
            row.mean_ns,
            row.median_ns,
            row.min_ns,
            row.samples,
            row.iters_per_sample,
            if i + 1 < fresh.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("bench_check: wrote {out_path}");

    // Calibrate machine speed: median fresh/baseline ratio over the gated
    // suite. Sub-half-millisecond rows are excluded from both the
    // calibration sample and the verdict — their ratios are scheduler
    // noise and would pollute the median (see the module docs).
    const GATE_FLOOR_NS: f64 = 500_000.0;
    let mut ratios: Vec<(String, f64)> = Vec::new();
    let mut ungated: Vec<String> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    for row in &fresh {
        let id = &row.id;
        if let Some(base) = baselines.iter().find(|b| &b.id == id) {
            if base.anchor_ns >= GATE_FLOOR_NS {
                ratios.push((id.clone(), row.median_ns / base.anchor_ns));
            } else if base.anchor_ns > 0.0 {
                ungated.push(format!(
                    "  {id:60} {:6.3}x  [below {:.1}ms gate floor — not gated]",
                    row.median_ns / base.anchor_ns,
                    GATE_FLOOR_NS / 1e6
                ));
            }
        } else {
            // A gated family without a committed baseline row is a gap in
            // the gate, not a note: every measured id must be anchored, or
            // a regression in the new family would sail through unseen.
            missing.push(id.clone());
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "bench_check: FAILED — missing baseline row{} in {baseline_path} for:",
            if missing.len() == 1 { "" } else { "s" }
        );
        for id in &missing {
            eprintln!("  {id}");
        }
        eprintln!(
            "bench_check: run the suite on the baseline machine and commit the new rows \
             (the fresh measurements were written to {out_path})"
        );
        std::process::exit(1);
    }
    if ratios.is_empty() {
        println!("bench_check: no overlapping ids with the baseline — nothing to gate");
        return;
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let calibration = sorted[sorted.len() / 2];
    println!(
        "bench_check: calibration factor {calibration:.3} (this machine vs baseline machine), \
         gate at {threshold:.2}x"
    );

    // A true regression reproduces; a scheduler spike does not. Ids over
    // the threshold get re-measured (keeping their best showing) before
    // the gate rules.
    let mut failed: Vec<(String, f64)> = Vec::new();
    for (id, ratio) in ratios.iter_mut() {
        for _retry in 0..3 {
            if *ratio <= threshold * calibration {
                break;
            }
            let (_, run) = cases
                .iter()
                .find(|(cid, _)| cid == id)
                .expect("measured id comes from the suite");
            let remeasured = measure(id, &**run);
            let base = baselines
                .iter()
                .find(|b| &b.id == id)
                .expect("gated ids have baselines");
            *ratio = ratio.min(remeasured.median_ns / base.anchor_ns);
        }
        let relative = *ratio / calibration;
        let verdict = if *ratio > threshold * calibration {
            failed.push((id.clone(), relative));
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {id:60} {relative:6.3}x  [{verdict}]");
    }
    for line in &ungated {
        println!("{line}");
    }

    // Scaling smoke gate (same-run, no cross-machine calibration): the
    // `c_chase/distributed/scaling/*` rows compare an n-server chase
    // against the 1-server chase of the *same fresh run*, so the
    // machine-speed calibration factor cancels out entirely. On a
    // multi-core box no multi-server row may regress more than the gate
    // margin over its 1s sibling — that is exactly the negative-scaling
    // symptom the fused protocol exists to remove. A 1-core runner cannot
    // exhibit real parallel speedup (every "server" thread shares the one
    // core), so there the gate degrades to a parity check at twice the
    // margin.
    let mut scaling_failed: Vec<String> = Vec::new();
    let scaling_margin = if tdx_bench::multicore() {
        threshold
    } else {
        println!("bench_check: 1-core runner — scaling gate degraded to a parity check");
        2.0 * threshold
    };
    for family in tdx_bench::scaling_suite::FAMILIES {
        let median = |n: usize| {
            let id = format!("{}/{family}/{n}s", tdx_bench::scaling_suite::GROUP);
            fresh.iter().find(|r| r.id == id).map(|r| r.median_ns)
        };
        let points: Vec<(f64, f64)> = tdx_bench::scaling_suite::SERVERS
            .iter()
            .filter_map(|&n| median(n).map(|t| (n as f64, t)))
            .collect();
        let Some(&(_, t1)) = points.first().filter(|(n, _)| *n == 1.0) else {
            continue; // family not measured on this run
        };
        for &(n, t) in &points[1..] {
            let ratio = t / t1;
            let verdict = if ratio > scaling_margin {
                scaling_failed.push(format!(
                    "{}/{family}/{n:.0}s runs at {ratio:.3}x of the same-run 1s row \
                     (scaling gate {scaling_margin:.2}x)",
                    tdx_bench::scaling_suite::GROUP
                ));
                "NEGATIVE SCALING"
            } else {
                "ok"
            };
            println!("  scaling {family:24} {n:.0}s vs 1s {ratio:6.3}x  [{verdict}]");
        }
        let exponent = tdx_bench::growth_exponent(&points);
        println!(
            "  scaling {family:24} time-vs-servers exponent {exponent:+.3} \
             (negative = speedup)"
        );
    }

    // Commit scaling gates (same-run, like the scaling gate): a 4-fact
    // insert, and a narrowing refine, into a 200-person session may cost
    // at most twice the same commit into a 50-person one. A commit that
    // visits the whole settled state grows with it (≈6× for the insert,
    // ≈4× for a refine that re-chases everything); one proportional to
    // the batch, or to the refined person's component, stays flat up to
    // the indexes' own costs.
    const COMMIT_GATE: f64 = 2.0;
    for (row, what) in [
        ("insert4", "NOT PROPORTIONAL TO THE BATCH"),
        ("refine", "NOT PROPORTIONAL TO THE COMPONENT"),
    ] {
        let [small, large] = tdx_bench::incremental_suite::INSERT4_PERSONS;
        let median = |persons: usize| {
            let id = format!(
                "{}/employment/{row}/{persons}",
                tdx_bench::incremental_suite::GROUP
            );
            fresh.iter().find(|r| r.id == id).map(|r| r.median_ns)
        };
        if let (Some(t_small), Some(t_large)) = (median(small), median(large)) {
            let ratio = t_large / t_small;
            let verdict = if ratio > COMMIT_GATE {
                scaling_failed.push(format!(
                    "{}/employment/{row}/{large} runs at {ratio:.3}x of the same-run \
                     {row}/{small} row (scaling gate {COMMIT_GATE:.1}x)",
                    tdx_bench::incremental_suite::GROUP
                ));
                what
            } else {
                "ok"
            };
            println!("  scaling {row:7} {large} vs {small} persons {ratio:6.3}x  [{verdict}]");
        }
    }

    // Query-speedup smoke gate (same-run, like the scaling gate): the
    // compiled read path's warm repeat must beat the naïve evaluator by at
    // least 5× on the same fresh run — the whole point of plan + fragment
    // caching is that repeat reads stop re-paying normalization per query.
    // Machine speed cancels out, so the gate holds on any runner.
    const QUERY_SPEEDUP_GATE: f64 = 5.0;
    let mut query_failed: Vec<String> = Vec::new();
    {
        let median = |case: &str| {
            let id = format!("{}/employment/{case}/100", tdx_bench::query_suite::GROUP);
            fresh.iter().find(|r| r.id == id).map(|r| r.median_ns)
        };
        if let (Some(naive), Some(warm)) = (median("naive_full"), median("warm_repeat")) {
            let speedup = naive / warm;
            let verdict = if speedup < QUERY_SPEEDUP_GATE {
                query_failed.push(format!(
                    "{}/employment/warm_repeat/100 runs only {speedup:.2}x faster than the \
                     same-run naive_full row (query gate {QUERY_SPEEDUP_GATE:.1}x)",
                    tdx_bench::query_suite::GROUP
                ));
                "TOO SLOW"
            } else {
                "ok"
            };
            println!("  query   warm_repeat vs naive_full {speedup:10.2}x  [{verdict}]");
        }
    }

    if !failed.is_empty() || !scaling_failed.is_empty() || !query_failed.is_empty() {
        for (id, relative) in &failed {
            eprintln!(
                "bench_check: FAILED — {id} regressed to {relative:.3}x of its baseline median \
                 after machine calibration (calibration factor {calibration:.3}, \
                 gate {threshold:.2}x)"
            );
        }
        for msg in scaling_failed.iter().chain(&query_failed) {
            eprintln!("bench_check: FAILED — {msg}");
        }
        // When many rows speed up at once, they pull the calibration
        // factor down, and untouched rows then read as regressions. Name
        // the fast movers, so that case is told apart from a regression.
        let mut fast: Vec<(&str, f64)> = ratios
            .iter()
            .map(|(id, r)| (id.as_str(), r / calibration))
            .filter(|(_, relative)| *relative < 0.8)
            .collect();
        fast.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ratios"));
        eprintln!(
            "bench_check: {} of {} gated rows ran below 0.80x their baseline median after \
             calibration{}",
            fast.len(),
            ratios.len(),
            if fast.is_empty() {
                ""
            } else {
                "; the largest movers:"
            }
        );
        for (id, relative) in fast.iter().take(5) {
            eprintln!("  {id:60} {relative:6.3}x");
        }
        std::process::exit(1);
    }
    println!("bench_check: all gated benchmarks within the regression gate");
}
