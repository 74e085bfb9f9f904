//! `tdx` — a command-line front end for temporal data exchange.
//!
//! ```text
//! tdx exchange  --mapping paper.map --data figure4.facts [--coalesce] [--trace] [--core]
//! tdx normalize --mapping paper.map --data figure4.facts [--naive]
//! tdx query     --mapping paper.map --data figure4.facts --query 'Q(n,s) :- Emp(n,c,s)'
//!               [--state-dir DIR] [--repeat N] [--naive] [--explain]
//! tdx snapshots --mapping paper.map --data figure4.facts --from 2012 --to 2018
//! tdx check     --mapping paper.map --data figure4.facts --solution candidate.facts
//! ```
//!
//! Mapping files use the `source { … } target { … } tgd … egd …` syntax; data
//! files hold one fact per line: `E(Ada, IBM) @ [2012, 2014)`.
//! Try it on the shipped files:
//!
//! ```text
//! cargo run --bin tdx -- exchange --mapping examples/data/paper.map \
//!                                 --data examples/data/figure4.facts --trace
//! ```

use std::process::ExitCode;
use tdx::core::extension::cores::concrete_core;
use tdx::core::normalize::naive_normalize;
use tdx::core::normalize::normalize;
use tdx::storage::display::write_instance;
use tdx::{parse_mapping, parse_union_query, semantics, ChaseOptions, DataExchange};

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Every value of a repeatable flag, in order (`--batch a --batch b`).
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tdx <exchange|normalize|query|snapshots|check|incremental> --mapping FILE \
         --data FILE [options]\n\
         \n\
         exchange   materialize a concrete solution (c-chase)\n\
         \x20          --coalesce  coalesce the result   --trace  print chase steps\n\
         \x20          --core      reduce to the pointwise core\n\
         \x20          --paper-faithful  single target normalization (§4.3 exactly)\n\
         \x20          --engine indexed|partitioned[:THREADS]|distributed[:SERVERS]\n\
         \x20                       indexed, partitioned: the session kernel, one batch\n\
         \x20                       (partitioned pins the worker threads)\n\
         \x20          --servers N  partition servers for --engine distributed\n\
         \x20                       (0 or absent: TDX_CHASE_SERVERS, then 2)\n\
         \x20          --transport channel|tcp  partition-server transport\n\
         \x20                       (absent: TDX_CHASE_TRANSPORT, then channel)\n\
         \x20          --deadline-ms N  per-frame transport deadline, 0 = none\n\
         \x20                       (absent: TDX_CHASE_DEADLINE_MS, then 10000)\n\
         normalize  print the normalized source            --naive  endpoint-oblivious\n\
         query      certain answers (compiled read path)   --query 'Q(n) :- Emp(n,c,s)'\n\
         \x20          --data FILE | --state-dir DIR  chase the data, or query a\n\
         \x20                                         recovered durable session's target\n\
         \x20          --repeat N   re-evaluate to time the warm (plan-reused) path\n\
         \x20          --naive      normalize-then-evaluate oracle route\n\
         \x20          --explain    print the compiled plan\n\
         snapshots  print the abstract view                --from T --to T [--target]\n\
         check      verify a candidate solution            --solution FILE (nulls as _x)\n\
         incremental  replay a delta stream through a stateful session\n\
         \x20          --data BASE --batch FILE [--batch FILE ...]\n\
         \x20          --verify  check each batch against the paper's abstract\n\
         \x20                    chase of the accumulated source\n\
         \x20          --state-dir DIR  durable session: WAL + snapshots in DIR;\n\
         \x20                           rerunning recovers and skips committed batches"
    );
    ExitCode::from(2)
}

/// `tdx query`: certain answers over a chased target, evaluated through
/// the compiled read path by default (`--naive` runs the normalize-then-
/// shared-`t` oracle route instead). The target comes from chasing `--data`
/// or from a recovered `--state-dir` session; `--repeat N` re-evaluates to
/// show the warm (plan-reused) path.
fn run_query(engine: &DataExchange, args: &Args) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let query_usage = "usage: tdx query --mapping FILE (--data FILE | --state-dir DIR) \
                       --query 'Q(n) :- Emp(n,c,s)'\n\
                       \x20      [--repeat N] [--naive] [--table] [--explain]";
    let Some(q_text) = args.get("query") else {
        eprintln!("tdx query: no --query given; nothing to evaluate.\n{query_usage}");
        return Ok(ExitCode::from(2));
    };
    let q = parse_union_query(q_text)?;
    // The instance to query: chase --data from scratch, or pick up the
    // materialized target a durable incremental session left behind.
    let target = match (args.get("data"), args.get("state-dir")) {
        (Some(path), None) => {
            let source = engine.load_source(&std::fs::read_to_string(path)?)?;
            engine.exchange(&source)?.target
        }
        (None, Some(dir)) => {
            let d = engine.durable(dir)?;
            eprintln!("# recovered session: {} batches committed", d.committed());
            d.session().target()
        }
        (Some(_), Some(_)) => {
            eprintln!("tdx query: --data and --state-dir are mutually exclusive.\n{query_usage}");
            return Ok(ExitCode::from(2));
        }
        (None, None) => {
            eprintln!(
                "tdx query: no --data or --state-dir given; nothing to query.\n{query_usage}"
            );
            return Ok(ExitCode::from(2));
        }
    };
    let repeat: usize = match args.get("repeat") {
        Some(n) => n
            .parse()
            .map_err(|_| format!("bad repeat count {n}"))
            .and_then(|n: usize| {
                if n >= 1 {
                    Ok(n)
                } else {
                    Err("bad repeat count 0".to_owned())
                }
            })?,
        None => 1,
    };
    let answers = if args.has("naive") {
        // tdx-lint: allow(wall-clock): CLI timing report; elapsed time is printed, never fed back into evaluation
        let t0 = std::time::Instant::now();
        let answers = tdx::core::naive_eval_concrete(&target, &q)?;
        eprintln!("# naive eval: {:.2?}", t0.elapsed());
        for _ in 1..repeat {
            // tdx-lint: allow(wall-clock): CLI timing report; elapsed time is printed, never fed back into evaluation
            let t = std::time::Instant::now();
            tdx::core::naive_eval_concrete(&target, &q)?;
            eprintln!("# naive repeat: {:.2?}", t.elapsed());
        }
        answers
    } else {
        let snap = tdx::storage::StoreSnapshot::latest(std::sync::Arc::new(target));
        // tdx-lint: allow(wall-clock): CLI timing report; elapsed time is printed, never fed back into evaluation
        let t0 = std::time::Instant::now();
        let cq = tdx::core::CompiledQuery::compile(&snap, &q)?;
        let answers = cq.eval(&snap);
        let cold = t0.elapsed();
        if args.has("explain") {
            for line in cq.plan().explain().lines() {
                eprintln!("# {line}");
            }
        }
        let mut warm: Vec<std::time::Duration> = Vec::new();
        for _ in 1..repeat {
            // tdx-lint: allow(wall-clock): CLI timing report; elapsed time is printed, never fed back into evaluation
            let t = std::time::Instant::now();
            cq.eval(&snap);
            warm.push(t.elapsed());
        }
        if warm.is_empty() {
            eprintln!("# cold (compile+eval): {cold:.2?}");
        } else {
            warm.sort();
            eprintln!(
                "# cold (compile+eval): {:.2?}; warm median {:.2?} over {} repeats",
                cold,
                warm[warm.len() / 2],
                warm.len(),
            );
        }
        answers
    };
    if args.has("table") {
        let headers: Vec<String> = (1..=q.arity()).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print!("{}", answers.render_table(&refs));
    } else {
        print!("{answers}");
    }
    eprintln!("# {} certain tuples", answers.len());
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return Ok(usage());
    };
    let args = Args::parse(&argv[1..]);
    if cmd == "serve-partition" {
        // Hidden subcommand: host one partition server of a distributed
        // chase whose coordinator runs elsewhere. Two modes:
        //
        // * `--connect HOST:PORT` — dial the coordinator's rendezvous
        //   address and serve until the connection ends (the server's life
        //   is tied to that coordinator).
        // * `--listen HOST:PORT` — bind and *accept* coordinator
        //   connections, keeping state across them: a durable session's
        //   recovered coordinator reconnects here and resumes. The bound
        //   address (bind to port 0 for an ephemeral one) is published to
        //   `--addr-file`; `--idle-exit SECS` makes an abandoned server
        //   exit on its own.
        //
        // The chase configuration arrives over the wire as the Hello
        // handshake in both modes.
        if let Some(addr) = args.get("listen") {
            let addr_file = args.get("addr-file").map(std::path::Path::new);
            let idle_exit = match args.get("idle-exit") {
                Some(s) => Some(std::time::Duration::from_secs(
                    s.parse()
                        .map_err(|_| format!("bad idle-exit seconds {s}"))?,
                )),
                None => None,
            };
            tdx::core::chase::cluster::server::serve_listen(addr, addr_file, idle_exit)?;
            return Ok(ExitCode::SUCCESS);
        }
        let Some(addr) = args.get("connect") else {
            eprintln!(
                "usage: tdx serve-partition --connect HOST:PORT\n\
                 \x20      tdx serve-partition --listen HOST:PORT \
                 [--addr-file PATH] [--idle-exit SECS]"
            );
            return Ok(ExitCode::from(2));
        };
        tdx::core::chase::cluster::server::serve_connect(addr)?;
        return Ok(ExitCode::SUCCESS);
    }
    let Some(mapping_path) = args.get("mapping") else {
        return Ok(usage());
    };
    let mapping = parse_mapping(&std::fs::read_to_string(mapping_path)?)?;
    let mut options = ChaseOptions::default();
    if args.has("paper-faithful") {
        options = ChaseOptions::paper_faithful();
    }
    // Partition servers for the distributed engine: --servers N wins, then
    // the :N suffix, then 0 (resolved through TDX_CHASE_SERVERS — see
    // tdx_core::server_count). Parsed outside the engine block so that a
    // --servers flag without a distributed engine is rejected rather than
    // silently dropped.
    let servers_flag: Option<usize> = match args.get("servers") {
        Some(n) => Some(n.parse().map_err(|_| format!("bad server count {n}"))?),
        None => None,
    };
    if let Some(engine) = args.get("engine") {
        options.engine = match engine.split_once(':') {
            None => match engine {
                "indexed" => tdx::core::ChaseEngine::IndexedSemiNaive,
                // Bare "partitioned": threads from TDX_CHASE_THREADS or
                // the machine (see tdx_core::worker_threads).
                "partitioned" => tdx::core::ChaseEngine::PartitionedParallel { threads: 0 },
                "distributed" => tdx::core::ChaseEngine::Distributed {
                    servers: servers_flag.unwrap_or(0),
                },
                other => return Err(format!("unknown engine {other}").into()),
            },
            Some(("partitioned", n)) => tdx::core::ChaseEngine::PartitionedParallel {
                threads: n.parse().map_err(|_| format!("bad thread count {n}"))?,
            },
            Some(("distributed", n)) => tdx::core::ChaseEngine::Distributed {
                servers: match servers_flag {
                    Some(s) => s,
                    None => n.parse().map_err(|_| format!("bad server count {n}"))?,
                },
            },
            Some(_) => return Err(format!("unknown engine {engine}").into()),
        };
    }
    if servers_flag.is_some()
        && !matches!(options.engine, tdx::core::ChaseEngine::Distributed { .. })
    {
        return Err("--servers requires --engine distributed".into());
    }
    // Transport backend for the distributed engine: --transport wins, then
    // TDX_CHASE_TRANSPORT, then in-process channels. Like --servers, the
    // flag without a distributed engine is rejected rather than silently
    // dropped.
    if let Some(t) = args.get("transport") {
        let kind = tdx::core::TransportKind::parse(t)
            .ok_or_else(|| format!("unknown transport {t} (expected channel or tcp)"))?;
        if !matches!(options.engine, tdx::core::ChaseEngine::Distributed { .. }) {
            return Err("--transport requires --engine distributed".into());
        }
        options.transport = Some(kind);
    }
    // Per-frame transport deadline for the distributed engine: --deadline-ms
    // wins, then TDX_CHASE_DEADLINE_MS, then the 10 s default (see
    // tdx_core::chase::frame_deadline). `0` disables deadlines entirely —
    // note this differs from --servers, where 0 means auto-detect.
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad deadline milliseconds {ms}"))?;
        if !matches!(options.engine, tdx::core::ChaseEngine::Distributed { .. }) {
            return Err("--deadline-ms requires --engine distributed".into());
        }
        options.frame_deadline = Some(std::time::Duration::from_millis(ms));
    }
    options.coalesce_result = args.has("coalesce");
    options.record_trace = args.has("trace");
    options.naive_normalization |= args.has("naive");
    let engine = DataExchange::new(mapping).with_options(options);
    if cmd == "query" {
        return run_query(&engine, &args);
    }
    let Some(data_path) = args.get("data") else {
        return Ok(usage());
    };
    let source = engine.load_source(&std::fs::read_to_string(data_path)?)?;

    match cmd.as_str() {
        "exchange" => {
            let result = engine.exchange(&source)?;
            for line in &result.trace {
                eprintln!("# {line}");
            }
            let target = if args.has("core") {
                concrete_core(&result.target)
            } else {
                result.target
            };
            write_instance(&mut std::io::stdout().lock(), &target)?;
            eprintln!(
                "# {} source facts → {} target facts ({} tgd steps, {} egd rounds, {} nulls)",
                result.stats.source_facts_in,
                target.total_len(),
                result.stats.tgd_steps,
                result.stats.egd_rounds,
                result.stats.nulls_created,
            );
        }
        "normalize" => {
            let out = if args.has("naive") {
                naive_normalize(&source)
            } else {
                normalize(&source, &engine.mapping().tgd_bodies())?
            };
            write_instance(&mut std::io::stdout().lock(), &out)?;
            eprintln!("# {} facts → {} facts", source.total_len(), out.total_len());
        }
        "check" => {
            let Some(sol_path) = args.get("solution") else {
                return Ok(usage());
            };
            let candidate = engine.load_target(&std::fs::read_to_string(sol_path)?)?;
            if engine.verify_solution(&source, &candidate)? {
                println!("OK: the candidate is a solution for the given source");
            } else {
                println!("NOT A SOLUTION: some snapshot violates Σst ∪ Σeg");
                return Ok(ExitCode::FAILURE);
            }
        }
        "incremental" => {
            use tdx::core::check_against_abstract_chase;
            use tdx::DeltaBatch;
            // A replay without a single --batch is a misuse, not a
            // degenerate success: the command exists to exercise the
            // incremental path, and silently printing a zero-batch summary
            // (exit 0) hid forgotten flags from scripts.
            if args.get_all("batch").is_empty() {
                eprintln!(
                    "tdx incremental: no --batch files given; nothing to replay.\n\
                     usage: tdx incremental --mapping FILE --data BASE \
                     --batch FILE [--batch FILE ...] [--verify]"
                );
                return Ok(ExitCode::from(2));
            }
            // With --state-dir the session is durable: every committed
            // batch is write-ahead logged under the directory, and a rerun
            // of the same command recovers the session and *skips* the
            // inputs it already committed — kill the process mid-replay,
            // run it again, and it continues where it died.
            enum Session {
                Plain(tdx::core::IncrementalExchange),
                Durable(tdx::core::DurableExchange),
            }
            impl Session {
                fn apply(&mut self, b: &DeltaBatch) -> tdx::core::Result<tdx::core::BatchStats> {
                    match self {
                        Session::Plain(s) => s.apply(b),
                        Session::Durable(s) => s.apply(b),
                    }
                }
                fn inner(&self) -> &tdx::core::IncrementalExchange {
                    match self {
                        Session::Plain(s) => s,
                        Session::Durable(s) => s.session(),
                    }
                }
            }
            let (mut session, skip) = match args.get("state-dir") {
                Some(dir) => {
                    let d = engine.durable(dir)?;
                    let done = d.committed() as usize;
                    if done > 0 || d.resumed_servers() > 0 {
                        eprintln!(
                            "# recovered: {} batches already committed \
                             ({} replayed from log, {} servers resumed)",
                            done,
                            d.replayed(),
                            d.resumed_servers(),
                        );
                    }
                    (Session::Durable(d), done)
                }
                None => (Session::Plain(engine.incremental()?), 0),
            };
            let mut replay = |label: &str,
                              inst: &tdx::TemporalInstance|
             -> Result<(), Box<dyn std::error::Error>> {
                let (stats, elapsed) = {
                    // tdx-lint: allow(wall-clock): CLI progress reporting; elapsed time is printed, never fed back into the chase
                    let t0 = std::time::Instant::now();
                    let stats = session.apply(&DeltaBatch::from_instance(inst))?;
                    (stats, t0.elapsed())
                };
                eprintln!(
                    "# {label}: {} facts in {:.2?} — {} tgd steps, {} egd merges, \
                     {}/{} dirty partitions{}{} → {} target facts",
                    stats.batch_facts,
                    elapsed,
                    stats.tgd_steps,
                    stats.egd_merges,
                    stats.dirty_partitions,
                    stats.partitions,
                    if stats.recoarsened {
                        ", re-coarsened"
                    } else {
                        ""
                    },
                    if stats.full_rechase {
                        ", full re-chase"
                    } else {
                        ""
                    },
                    stats.target_facts,
                );
                if args.has("verify") {
                    // The oracle is the paper's abstract chase, not an
                    // engine: `engine.exchange` runs the session's own
                    // kernel and would agree by construction.
                    let inner = session.inner();
                    let (source, target) = (inner.source(), inner.target());
                    check_against_abstract_chase(&source, engine.mapping(), Ok(&target)).map_err(
                        |e| {
                            format!(
                                "{label}: incremental target diverged from the abstract chase: {e}"
                            )
                        },
                    )?;
                    eprintln!(
                        "# {label}: verified hom-equivalent to a from-scratch reference chase"
                    );
                }
                Ok(())
            };
            if skip == 0 {
                replay("base", &source)?;
            }
            for (i, path) in args.get_all("batch").iter().enumerate() {
                // Input i+1 in commit order (base is input 0): already
                // durable from a previous run ⇒ nothing to redo.
                if i + 1 < skip {
                    continue;
                }
                let batch = engine.load_source(&std::fs::read_to_string(path)?)?;
                replay(&format!("batch {}", i + 1), &batch)?;
            }
            write_instance(&mut std::io::stdout().lock(), &session.inner().target())?;
            let totals = session.inner().stats();
            eprintln!(
                "# session: {} batches, {} tgd steps, {} egd merges, {} nulls, {} full re-chases",
                totals.batches,
                totals.tgd_steps,
                totals.egd_merges,
                totals.nulls_created,
                totals.full_rechases,
            );
        }
        "snapshots" => {
            let from: u64 = args.get("from").unwrap_or("0").parse()?;
            let to: u64 = args.get("to").unwrap_or("10").parse()?;
            let ia = if args.has("target") {
                semantics(&engine.exchange(&source)?.target)
            } else {
                semantics(&source)
            };
            print!("{}", ia.render_window(from..=to));
        }
        _ => return Ok(usage()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tdx: {e}");
            ExitCode::FAILURE
        }
    }
}
