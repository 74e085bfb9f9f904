//! The paper reproduction as a test: runs every experiment of the
//! `experiments` binary, which exits non-zero when any check FAILs.

#[test]
fn every_paper_experiment_passes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("the experiments binary runs");
    assert!(
        out.status.success(),
        "experiments exited with {}:\n{}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
