//! Crash-recovery properties of durable sessions (`DurableExchange`): at
//! every kill point the recovered session is **byte-identical** to the one
//! that never crashed, a WAL truncated at *any* byte offset recovers
//! exactly the complete-record prefix, arbitrary byte corruption either
//! recovers a consistent prefix or errors cleanly (never panics, never
//! yields a state outside the committed history), and — on the TCP
//! transport — recovery re-attaches to surviving partition servers
//! instead of respawning them. See `docs/durability.md`.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use tdx::core::{DurableExchange, TransportKind};
use tdx::workload::{
    employment_stream, with_narrowing_refines, BatchOrder, EmploymentConfig, StreamConfig,
    StreamStep,
};
use tdx::{ChaseOptions, DeltaBatch, SchemaMapping};

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "tdx-durability-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small employment stream as a list of inputs in commit order
/// (base first, then the update batches).
fn inputs() -> (SchemaMapping, Vec<DeltaBatch>) {
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 6,
            horizon: 12,
            seed: 7,
            salary_coverage: 0.8,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.2,
            order: BatchOrder::Uniform,
            seed: 7,
        },
    );
    let mut batches = vec![DeltaBatch::from_instance(&stream.base)];
    batches.extend(stream.batches.iter().map(DeltaBatch::from_instance));
    (stream.mapping, batches)
}

/// An employment stream with a narrowing refine after every other batch,
/// as inputs in commit order (base first).
fn refine_inputs() -> (SchemaMapping, Vec<DeltaBatch>) {
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 8,
            horizon: 16,
            seed: 3,
            salary_coverage: 0.7,
            p_unbounded: 0.9,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 6,
            batch_fraction: 0.05,
            order: BatchOrder::TailLocal,
            seed: 3,
        },
    );
    let e = stream.mapping.source().rel_id("E".into()).unwrap();
    let mut batches = vec![DeltaBatch::from_instance(&stream.base)];
    for step in with_narrowing_refines(&stream, e, 2, 3) {
        batches.push(match step {
            StreamStep::Insert(inst) => DeltaBatch::from_instance(&inst),
            StreamStep::Refine(rel, data, iv) => {
                let mut b = DeltaBatch::new();
                b.refine(rel, data, iv);
                b
            }
        });
    }
    (stream.mapping, batches)
}

/// Canonical state encodings of every prefix of `batches`:
/// `states[k]` is the state after committing the first `k` inputs.
fn prefix_states(
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
    batches: &[DeltaBatch],
) -> Vec<Vec<u8>> {
    let dir = temp_dir("reference");
    let mut s = DurableExchange::open(mapping.clone(), opts.clone(), &dir).unwrap();
    let mut states = vec![s.state_bytes()];
    for b in batches {
        s.apply(b).unwrap();
        states.push(s.state_bytes());
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
    states
}

/// Tentpole property: kill the session after every commit point, recover
/// from the state directory, and the recovered canonical state equals the
/// uncrashed session's — byte for byte — and the stream can continue to
/// the same final state.
#[test]
fn every_crash_point_recovers_byte_identical() {
    let (mapping, batches) = inputs();
    every_crash_point(&mapping, &batches);
}

/// The same over a stream with narrowing refines: a replayed refine
/// re-chases its component on a session whose indexes the restore
/// rebuilt, and must land on the same bytes as the live one.
#[test]
fn every_crash_point_recovers_byte_identical_across_refines() {
    let (mapping, batches) = refine_inputs();
    let refines = batches.len() - 7;
    assert!(refines >= 2, "the stream narrows jobs: {refines} refines");
    let mut plain = tdx::IncrementalExchange::new(mapping.clone()).unwrap();
    for b in &batches {
        plain.apply(b).unwrap();
    }
    assert_eq!(
        plain.stats().full_rechases,
        0,
        "each refine re-chases one person"
    );
    every_crash_point(&mapping, &batches);
}

fn every_crash_point(mapping: &SchemaMapping, batches: &[DeltaBatch]) {
    let opts = ChaseOptions::default();
    let reference = prefix_states(mapping, &opts, batches);

    for crash_after in 1..=batches.len() {
        let dir = temp_dir("killpoint");
        // Cadence 2 so the sweep covers snapshot-only, WAL-only, and
        // snapshot+WAL recoveries across the crash points.
        let mut s = DurableExchange::open(mapping.clone(), opts.clone(), &dir)
            .unwrap()
            .snapshot_every(2);
        for b in &batches[..crash_after] {
            s.apply(b).unwrap();
        }
        s.simulate_crash();

        let mut recovered = DurableExchange::open(mapping.clone(), opts.clone(), &dir).unwrap();
        assert_eq!(recovered.committed(), crash_after as u64);
        assert_eq!(
            recovered.state_bytes(),
            reference[crash_after],
            "crash after input {crash_after}: recovered state diverged"
        );
        // The recovered session continues the stream seamlessly.
        for b in &batches[crash_after..] {
            recovered.apply(b).unwrap();
        }
        assert_eq!(
            recovered.state_bytes(),
            reference[batches.len()],
            "crash after input {crash_after}: resumed stream diverged"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The WAL record frame is `u32 len | u32 crc | payload`; the offsets at
/// which each record becomes complete.
fn record_ends(wal: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > wal.len() {
            break;
        }
        pos += 8 + len;
        ends.push(pos);
    }
    ends
}

/// A WAL cut at *every* byte offset — the torn-write sweep — recovers
/// exactly the complete-record prefix: `k` committed batches where `k` is
/// the number of records whose last byte survived the cut, with the state
/// byte-identical to the reference prefix state.
#[test]
fn wal_truncated_at_every_offset_recovers_the_complete_prefix() {
    let (mapping, batches) = inputs();
    let opts = ChaseOptions::default();
    let reference = prefix_states(&mapping, &opts, &batches);

    // Record the full WAL (cadence ∞ keeps every record in the log).
    let full_dir = temp_dir("fullwal");
    let mut s = DurableExchange::open(mapping.clone(), opts.clone(), &full_dir)
        .unwrap()
        .snapshot_every(usize::MAX);
    for b in &batches {
        s.apply(b).unwrap();
    }
    drop(s);
    let wal = std::fs::read(full_dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&full_dir);
    let ends = record_ends(&wal);
    assert_eq!(ends.len(), batches.len());

    let dir = temp_dir("torn");
    for cut in 0..=wal.len() {
        std::fs::write(dir.join("wal.log"), &wal[..cut]).unwrap();
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        let recovered = DurableExchange::open(mapping.clone(), opts.clone(), &dir)
            .unwrap_or_else(|e| panic!("cut at {cut}: torn tail must recover, got {e}"));
        assert_eq!(recovered.committed(), expect as u64, "cut at {cut}");
        assert_eq!(
            recovered.state_bytes(),
            reference[expect],
            "cut at {cut}: state diverged from the {expect}-batch prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fixture for the corruption sweep: a state directory with both a
/// snapshot (covering 3 inputs) and a WAL record past it (input 4), plus
/// every reference prefix state.
struct CorruptionFixture {
    mapping: SchemaMapping,
    opts: ChaseOptions,
    wal: Vec<u8>,
    snapshot: Vec<u8>,
    references: Vec<Vec<u8>>,
}

fn corruption_fixture() -> &'static CorruptionFixture {
    static FIXTURE: OnceLock<CorruptionFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (mapping, batches) = inputs();
        let opts = ChaseOptions::default();
        let references = prefix_states(&mapping, &opts, &batches);
        let dir = temp_dir("fixture");
        let mut s = DurableExchange::open(mapping.clone(), opts.clone(), &dir)
            .unwrap()
            .snapshot_every(3);
        for b in &batches {
            s.apply(b).unwrap();
        }
        drop(s);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        let snapshot = std::fs::read(dir.join("snapshot.bin")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!wal.is_empty() && !snapshot.is_empty());
        CorruptionFixture {
            mapping,
            opts,
            wal,
            snapshot,
            references,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Flipping any byte of the WAL or the snapshot never panics and
    /// never fabricates state: recovery either errors cleanly or lands
    /// byte-identical on some committed prefix of the history.
    #[test]
    fn corrupting_any_byte_recovers_a_prefix_or_errors_cleanly(
        in_snapshot in prop::bool::weighted(0.5),
        pos_seed in 0usize..1_000_000,
        flip in 1usize..256,
    ) {
        let fx = corruption_fixture();
        let mut wal = fx.wal.clone();
        let mut snapshot = fx.snapshot.clone();
        let file = if in_snapshot { &mut snapshot } else { &mut wal };
        let pos = pos_seed % file.len();
        file[pos] ^= flip as u8;

        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("wal.log"), &wal).unwrap();
        std::fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
        // A clean `Err` is an acceptable outcome for corruption the CRC
        // catches in the middle of the chain — what matters is that it is
        // *reported*, not silently absorbed as bogus state.
        if let Ok(recovered) = DurableExchange::open(fx.mapping.clone(), fx.opts.clone(), &dir) {
            let state = recovered.state_bytes();
            prop_assert!(
                fx.references.contains(&state),
                "corrupt byte {pos} (snapshot={in_snapshot}): recovered state \
                 matches no committed prefix"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Coordinator reconnect: with listen-mode TCP partition servers, killing
/// the coordinator and reopening the state directory re-attaches to the
/// surviving servers (Resume watermark adoption) rather than respawning
/// them — and the resumed session still tracks the uncrashed reference
/// byte-for-byte.
#[test]
fn tcp_recovery_resumes_surviving_servers() {
    let (mapping, batches) = inputs();
    let mut opts = ChaseOptions::distributed(2);
    opts.transport = Some(TransportKind::Tcp);
    let reference = prefix_states(&mapping, &opts, &batches);

    let dir = temp_dir("resume");
    // Cadence 1: recovery restores from the snapshot alone, so the only
    // cluster the reopened session builds is the resumed one.
    let mut s = DurableExchange::open(mapping.clone(), opts.clone(), &dir)
        .unwrap()
        .snapshot_every(1);
    s.apply(&batches[0]).unwrap();
    s.apply(&batches[1]).unwrap();
    s.simulate_crash(); // severs the carriers; the servers outlive us

    let mut recovered = DurableExchange::open(mapping.clone(), opts.clone(), &dir).unwrap();
    assert_eq!(
        recovered.resumed_servers(),
        2,
        "both surviving servers should be adopted via Resume"
    );
    assert_eq!(recovered.state_bytes(), reference[2]);
    for b in &batches[2..] {
        recovered.apply(b).unwrap();
    }
    assert_eq!(recovered.state_bytes(), reference[batches.len()]);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression test: a rendezvous (`--connect`) partition server whose
/// coordinator dies must exit when the control connection EOFs — not
/// linger as an orphan.
#[test]
fn serve_partition_exits_when_the_control_connection_drops() {
    use std::net::TcpListener;
    use std::process::Command;
    use std::time::{Duration, Instant};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_tdx"))
        .args(["serve-partition", "--connect", &addr.to_string()])
        .spawn()
        .unwrap();
    let (stream, _) = listener.accept().unwrap();

    // The server is up and waiting for protocol frames; it must not have
    // exited on its own.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        child.try_wait().unwrap().is_none(),
        "server died prematurely"
    );

    // Coordinator "crash": close the control connection without any
    // protocol shutdown. The server must notice the EOF and exit.
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "server exited with {status}");
            break;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve-partition --connect lingered after control-connection EOF");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The committed golden state directory: `inputs()`'s first two batches
/// compacted into `snapshot.bin`, the last two in `wal.log` past it.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_state")
}

/// Writes the golden state directory into `$TDX_GOLDEN_STATE_OUT`:
/// `cargo test --test durability -- --ignored write_golden_state_fixture`.
/// The committed copy was written by the code before the slicing-by-8
/// checksum and the span-sorted memo encoding; regenerating it with
/// later code re-pins the format, so do that only on a deliberate
/// format change (and a `STATE_VERSION` bump).
#[test]
#[ignore = "writes the golden fixture; run on a deliberate format change"]
fn write_golden_state_fixture() {
    let out = PathBuf::from(std::env::var("TDX_GOLDEN_STATE_OUT").unwrap());
    let _ = std::fs::remove_dir_all(&out);
    let (mapping, batches) = inputs();
    let mut s = DurableExchange::open(mapping, ChaseOptions::default(), &out).unwrap();
    s.apply(&batches[0]).unwrap();
    s.apply(&batches[1]).unwrap();
    assert!(s.session().stats().nulls_created > 0, "the state has nulls");
    s.snapshot_now().unwrap();
    s.apply(&batches[2]).unwrap();
    s.apply(&batches[3]).unwrap();
    drop(s);
}

/// The bytes on disk do not move: the golden directory (snapshot with
/// nulls and memo entries, two WAL records past it) opens under today's
/// checksum, replays both records, and its snapshot-only state
/// re-encodes — state bytes and the whole `snapshot.bin` envelope — to
/// exactly the committed bytes.
#[test]
fn golden_state_dir_opens_and_reencodes_byte_identically() {
    let (mapping, _) = inputs();
    let golden = golden_dir();
    let snapshot = std::fs::read(golden.join("snapshot.bin")).unwrap();

    let dir = temp_dir("golden");
    std::fs::copy(golden.join("snapshot.bin"), dir.join("snapshot.bin")).unwrap();
    std::fs::copy(golden.join("wal.log"), dir.join("wal.log")).unwrap();
    let s = DurableExchange::open(mapping.clone(), ChaseOptions::default(), &dir).unwrap();
    assert_eq!(s.replayed(), 2);
    assert_eq!(s.committed(), 4);
    drop(s);

    // Snapshot only: `TDXSNAP1 | len | crc | seq | state`.
    let snap_dir = temp_dir("golden-snapshot");
    std::fs::copy(golden.join("snapshot.bin"), snap_dir.join("snapshot.bin")).unwrap();
    let mut s = DurableExchange::open(mapping, ChaseOptions::default(), &snap_dir).unwrap();
    assert_eq!((s.replayed(), s.committed()), (0, 2));
    assert_eq!(s.state_bytes(), snapshot[24..]);
    s.snapshot_now().unwrap();
    assert_eq!(
        std::fs::read(snap_dir.join("snapshot.bin")).unwrap(),
        snapshot
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
}
