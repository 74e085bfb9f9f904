//! Integration tests for the `tdx` command-line front end, run against the
//! shipped paper files.

use std::process::Command;

fn tdx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdx"))
}

fn paper_args(cmd: &str) -> Vec<String> {
    vec![
        cmd.into(),
        "--mapping".into(),
        "examples/data/paper.map".into(),
        "--data".into(),
        "examples/data/figure4.facts".into(),
    ]
}

#[test]
fn exchange_reproduces_figure9() {
    let out = tdx().args(paper_args("exchange")).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("Ada  | IBM     | 18k    | [2013, 2014)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("Bob  | IBM     | 13k    | [2015, 2018)"),
        "{stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("5 target facts"), "{stderr}");
}

#[test]
fn exchange_trace_and_coalesce_flags() {
    let mut args = paper_args("exchange");
    args.push("--trace".into());
    args.push("--coalesce".into());
    let out = tdx().args(&args).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("tgd step"), "{stderr}");
}

#[test]
fn normalize_prints_figure5_sizes() {
    let out = tdx().args(paper_args("normalize")).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("5 facts → 9 facts"), "{stderr}");
    // Naïve variant gives Figure 6's 14 facts.
    let mut args = paper_args("normalize");
    args.push("--naive".into());
    let out = tdx().args(&args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("5 facts → 14 facts"), "{stderr}");
}

#[test]
fn query_prints_certain_answers() {
    let mut args = paper_args("query");
    args.push("--query".into());
    args.push("Q(n, s) :- Emp(n, c, s)".into());
    let out = tdx().args(&args).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(Ada, 18k) @ {[2013, ∞)}"), "{stdout}");
    assert!(stdout.contains("(Bob, 13k) @ {[2015, 2018)}"), "{stdout}");
}

#[test]
fn snapshots_render_abstract_views() {
    let mut args = paper_args("snapshots");
    args.extend(["--from".into(), "2013".into(), "--to".into(), "2013".into()]);
    let out = tdx().args(&args).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("{E(Ada, IBM), E(Bob, IBM), S(Ada, 18k)}"),
        "{stdout}"
    );
}

#[test]
fn check_accepts_figure9_and_rejects_truncations() {
    let mut args = paper_args("check");
    args.push("--solution".into());
    args.push("examples/data/figure9.facts".into());
    let out = tdx().args(&args).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("OK"), "{stdout}");
    // A truncated candidate is rejected.
    let dir = std::env::temp_dir().join("tdx-cli-check");
    std::fs::create_dir_all(&dir).unwrap();
    let partial = dir.join("partial.facts");
    std::fs::write(&partial, "Emp(Ada, IBM, 18k) @ [2013, 2014)").unwrap();
    let mut args = paper_args("check");
    args.push("--solution".into());
    args.push(partial.to_str().unwrap().into());
    let out = tdx().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("NOT A SOLUTION"), "{stdout}");
}

#[test]
fn exchange_engines_agree_from_the_cli() {
    // Every engine solves the paper example with the same five-fact
    // summary; the distributed engine's rendering is additionally
    // byte-identical across server counts.
    let mut distributed_outputs = Vec::new();
    for engine in [
        "indexed",
        "partitioned:2",
        "distributed", // servers via TDX_CHASE_SERVERS / default
        "distributed:1",
        "distributed:3",
    ] {
        let mut args = paper_args("exchange");
        args.push("--engine".into());
        args.push(engine.into());
        let out = tdx().args(&args).output().unwrap();
        assert!(out.status.success(), "engine {engine}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("5 target facts"),
            "engine {engine}: {stderr}"
        );
        if engine.starts_with("distributed") {
            distributed_outputs.push(String::from_utf8(out.stdout).unwrap());
        }
    }
    for o in &distributed_outputs[1..] {
        assert_eq!(*o, distributed_outputs[0], "server counts must agree");
    }
    // --servers overrides the :N suffix.
    let mut args = paper_args("exchange");
    args.extend(["--engine".into(), "distributed".into()]);
    args.extend(["--servers".into(), "2".into()]);
    let out = tdx().args(&args).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    // Garbage engine and server counts are rejected.
    let mut args = paper_args("exchange");
    args.extend(["--engine".into(), "distributed:x".into()]);
    let out = tdx().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bad server count"), "{stderr}");
    // --servers without a distributed engine is an error, not a silent
    // no-op.
    for extra in [vec![], vec!["--engine", "partitioned"]] {
        let mut args = paper_args("exchange");
        args.extend(extra.into_iter().map(String::from));
        args.extend(["--servers".into(), "3".into()]);
        let out = tdx().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("requires --engine distributed"), "{stderr}");
    }
}

#[test]
fn transport_flag_selects_a_byte_identical_carrier() {
    // The same distributed exchange over channels and over TCP child
    // processes (this binary hosts the servers via its hidden
    // serve-partition subcommand) renders byte-identically.
    let mut outputs = Vec::new();
    for transport in ["channel", "tcp"] {
        let mut args = paper_args("exchange");
        args.extend(["--engine".into(), "distributed:2".into()]);
        args.extend(["--transport".into(), transport.into()]);
        let out = tdx().args(&args).output().unwrap();
        assert!(out.status.success(), "transport {transport}: {out:?}");
        outputs.push(String::from_utf8(out.stdout).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "transports must agree");
    // Unknown transports are rejected.
    let mut args = paper_args("exchange");
    args.extend(["--engine".into(), "distributed".into()]);
    args.extend(["--transport".into(), "pigeon".into()]);
    let out = tdx().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown transport"), "{stderr}");
    // ... and the flag without a distributed engine is an error.
    let mut args = paper_args("exchange");
    args.extend(["--transport".into(), "tcp".into()]);
    let out = tdx().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("requires --engine distributed"), "{stderr}");
    // serve-partition without a rendezvous address is a usage error.
    let out = tdx().arg("serve-partition").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--connect"), "{stderr}");
}

#[test]
fn incremental_without_batches_is_a_usage_error() {
    // `tdx incremental` with zero --batch flags used to print a zero-batch
    // summary and exit 0 — scripts that forgot the flag saw success.
    let out = tdx().args(paper_args("incremental")).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no --batch files given"), "{stderr}");
    // With batches it still works, and --verify checks every input — the
    // base load, a batch that only adds a null, and one whose salary
    // merges into that null — against the reference chase.
    let dir = std::env::temp_dir().join("tdx-cli-incremental");
    std::fs::create_dir_all(&dir).unwrap();
    let batch1 = dir.join("batch1.facts");
    std::fs::write(&batch1, "E(Cyd, IBM) @ [2013, 2016)\n").unwrap();
    let batch2 = dir.join("batch2.facts");
    std::fs::write(&batch2, "S(Cyd, 15k) @ [2014, 2016)\n").unwrap();
    let mut args = paper_args("incremental");
    for batch in [&batch1, &batch2] {
        args.extend(["--batch".into(), batch.to_str().unwrap().into()]);
    }
    args.push("--verify".into());
    let out = tdx().args(&args).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for label in ["base", "batch 1", "batch 2"] {
        assert!(
            stderr.contains(&format!("# {label}: verified hom-equivalent")),
            "{label}: {stderr}"
        );
    }
    // Cyd's salary is known from 2014 on, unknown before.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("15k"), "{stdout}");
}

#[test]
fn missing_args_exit_with_usage() {
    let out = tdx().arg("exchange").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = tdx().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = tdx().args(paper_args("bogus-subcommand")).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // The usage header names every subcommand.
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(
        usage.contains("exchange|normalize|query|snapshots|check|incremental"),
        "{usage}"
    );
}

#[test]
fn the_removed_scan_engine_is_an_unknown_engine() {
    let mut args = paper_args("exchange");
    args.extend(["--engine".into(), "scan".into()]);
    let out = tdx().args(&args).output().unwrap();
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown engine scan"), "{stderr}");
}

#[test]
fn bad_data_reports_error() {
    let dir = std::env::temp_dir().join("tdx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.facts");
    std::fs::write(&bad, "Nope(x) @ [0, 5)").unwrap();
    let out = tdx()
        .args([
            "exchange",
            "--mapping",
            "examples/data/paper.map",
            "--data",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not in the source schema"), "{stderr}");
}

/// The runs whose full stdout is pinned in `tests/golden/<name>.stdout`.
const GOLDEN_RUNS: &[(&str, &[&str])] = &[
    (
        "figure4_exchange",
        &["exchange", "--data", "examples/data/figure4.facts"],
    ),
    (
        "figure4_exchange_coalesce",
        &[
            "exchange",
            "--data",
            "examples/data/figure4.facts",
            "--coalesce",
        ],
    ),
    (
        "figure4_normalize",
        &["normalize", "--data", "examples/data/figure4.facts"],
    ),
    (
        "figure4_normalize_naive",
        &[
            "normalize",
            "--data",
            "examples/data/figure4.facts",
            "--naive",
        ],
    ),
    (
        "figure9_check",
        &[
            "check",
            "--data",
            "examples/data/figure4.facts",
            "--solution",
            "examples/data/figure9.facts",
        ],
    ),
    (
        "employment40_exchange",
        &["exchange", "--data", "tests/data/employment40.facts"],
    ),
    (
        "employment40_exchange_coalesce",
        &[
            "exchange",
            "--data",
            "tests/data/employment40.facts",
            "--coalesce",
        ],
    ),
    (
        "employment40_normalize",
        &["normalize", "--data", "tests/data/employment40.facts"],
    ),
];

#[test]
fn golden_outputs_are_byte_identical() {
    // Regenerate a golden only for an intended output change:
    // `tdx <args> --mapping examples/data/paper.map > tests/golden/<name>.stdout`.
    for (name, args) in GOLDEN_RUNS {
        let out = tdx()
            .args(*args)
            .args(["--mapping", "examples/data/paper.map"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{name}: {out:?}");
        let path = format!("tests/golden/{name}.stdout");
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            out.stdout == golden,
            "{name}: stdout differs from {path}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn quoted_utf8_values_print_intact() {
    let dir = std::env::temp_dir().join("tdx-cli-utf8");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("zurich.facts");
    std::fs::write(&data, "E('Zürich AG', IBM) @ [0, 5)\n").unwrap();
    let run = |cmd: &str| {
        let out = tdx()
            .args([cmd, "--mapping", "examples/data/paper.map", "--data"])
            .arg(&data)
            .output()
            .unwrap();
        assert!(out.status.success(), "{cmd}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        run("exchange"),
        "Emp+\n \
         Name      | Company | Salary | Time\n \
         Zürich AG | IBM     | N0     | [0, 5)\n"
    );
    assert_eq!(
        run("normalize"),
        "E+\n \
         Name      | Company | Time\n \
         Zürich AG | IBM     | [0, 5)\n"
    );
}
