//! Durable incremental exchange sessions: a write-ahead log of committed
//! batches, periodic compacted snapshots, and crash recovery that restarts
//! byte-identical to the session that never crashed.
//!
//! [`DurableExchange`] wraps an [`IncrementalExchange`] and pins its state
//! to a **state directory**:
//!
//! * `wal.log` — a [`tdx_storage::wal::Wal`] of committed
//!   [`DeltaBatch`]es, one CRC-guarded, fsync'd record per successful
//!   [`apply`](DurableExchange::apply). A record is written only *after*
//!   the batch commits in memory, so the log is exactly the acknowledged
//!   history: a crash mid-append leaves a torn tail that replay drops —
//!   the corresponding `apply` never returned `Ok`, so nothing
//!   acknowledged is lost.
//! * `snapshot.bin` — a compacted snapshot of the session's full chase
//!   state (accumulated source, timeline partition, normalized source,
//!   materialized target, memo tables, null counter, session counters) in
//!   the canonical encoding of `IncrementalExchange::encode_state`,
//!   written atomically every [`snapshot_every`](DurableExchange::snapshot_every)
//!   batches (or on [`snapshot_now`](DurableExchange::snapshot_now)),
//!   after which the WAL is truncated. The snapshot payload carries the
//!   sequence number it covers, so replay skips WAL records the snapshot
//!   already contains — a crash between snapshot write and WAL truncation
//!   only makes replay skip, never double-apply.
//! * `server-{s}.addr` — with the TCP transport, where each listen-mode
//!   partition server can be re-reached (see
//!   [`DurableTcpSpawner`]): recovery re-attaches to surviving servers
//!   and adopts their retained images when the `Resume` watermark digests
//!   match, instead of respawning and re-shipping.
//!
//! # Why recovery is byte-identical
//!
//! [`IncrementalExchange::apply`] is deterministic: given equal session
//! state and an equal batch, it performs identical work (hash sets are
//! only membership-probed; every order-sensitive enumeration sorts
//! first). The snapshot restores equal state by construction, and the WAL
//! replays the acknowledged batches in commit order — so the recovered
//! session's canonical state encoding equals the uncrashed session's,
//! byte for byte (`tests/durability.rs` asserts exactly this at every
//! crash point). See `docs/durability.md`.

use crate::chase::cluster::{DurableTcpSpawner, TransportKind};
use crate::chase::concrete::ChaseOptions;
use crate::chase::incremental::{BatchStats, DeltaBatch, IncrementalExchange};
use crate::error::{Result, TdxError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tdx_logic::SchemaMapping;
use tdx_storage::codec::{decode, encode, ByteWriter};
use tdx_storage::wal::{read_snapshot, replay, write_snapshot, Wal};

/// Default snapshot cadence: compact after this many WAL'd batches.
const DEFAULT_SNAPSHOT_EVERY: usize = 8;

fn durable_err(what: &str, e: impl std::fmt::Display) -> TdxError {
    TdxError::Invalid(format!("durable session: {what}: {e}"))
}

/// A crash-safe [`IncrementalExchange`]: every committed batch is
/// write-ahead logged, state is periodically compacted into an atomic
/// snapshot, and [`open`](DurableExchange::open) recovers by loading the
/// snapshot and replaying the log — reconnecting to surviving partition
/// servers on the TCP transport. See the module docs.
pub struct DurableExchange {
    inner: IncrementalExchange,
    state_dir: PathBuf,
    wal: Wal,
    snapshot_every: usize,
    /// Sequence number of the last committed batch.
    seq: u64,
    /// Highest sequence number the on-disk snapshot covers.
    snapshot_seq: u64,
    /// WAL records since that snapshot.
    since_snapshot: usize,
    /// Batches replayed from the WAL by this `open`.
    replayed: usize,
    /// Partition servers adopted (not respawned) by this `open`.
    resumed_servers: usize,
}

impl DurableExchange {
    /// Opens (or recovers) a durable session in `state_dir`, which is
    /// created if absent. An empty directory starts a fresh session; a
    /// directory with prior state restores its snapshot, replays the WAL
    /// past it, and — on the TCP transport — re-attaches to surviving
    /// partition servers. The mapping must be the one the state was
    /// recorded under (checked by fingerprint).
    pub fn open(
        mapping: SchemaMapping,
        opts: ChaseOptions,
        state_dir: impl Into<PathBuf>,
    ) -> Result<DurableExchange> {
        let state_dir = state_dir.into();
        std::fs::create_dir_all(&state_dir).map_err(|e| durable_err("state dir", e))?;
        let mut inner = IncrementalExchange::with_options(mapping, opts)?;

        // Snapshot first: it compacts a WAL prefix.
        let mut seq = 0u64;
        let mut snapshot_seq = 0u64;
        let snap_path = state_dir.join("snapshot.bin");
        if let Some(payload) = read_snapshot(&snap_path).map_err(|e| durable_err("snapshot", e))? {
            let Some((head, state)) = payload.split_first_chunk::<8>() else {
                return Err(durable_err("snapshot", "payload shorter than its header"));
            };
            snapshot_seq = u64::from_le_bytes(*head);
            inner.restore_state(state)?;
            seq = snapshot_seq;
        }

        // Then the log: apply every committed batch past the snapshot.
        let wal_path = state_dir.join("wal.log");
        let log = replay(&wal_path).map_err(|e| durable_err("WAL replay", e))?;
        let mut replayed = 0usize;
        for record in &log.records {
            let (rec_seq, batch) =
                decode::<(u64, DeltaBatch)>(record).map_err(|e| durable_err("WAL record", e))?;
            if rec_seq <= snapshot_seq {
                // Compacted into the snapshot; the crash hit between
                // snapshot write and WAL truncation.
                continue;
            }
            if rec_seq != seq + 1 {
                return Err(durable_err(
                    "WAL replay",
                    format!("sequence gap: expected {}, found {rec_seq}", seq + 1),
                ));
            }
            inner.apply(&batch)?;
            seq = rec_seq;
            replayed += 1;
        }
        let mut wal = Wal::open(&wal_path).map_err(|e| durable_err("WAL open", e))?;
        if log.torn {
            // Cut the torn tail so appends extend the valid prefix.
            wal.truncate_to(log.valid_len)
                .map_err(|e| durable_err("WAL truncate", e))?;
        }

        // Coordinator reconnect: with listen-mode TCP servers, adopt
        // survivors whose Resume watermarks match the recovered state.
        let mut resumed_servers = 0;
        if inner.server_count() > 0 && inner.transport_kind() == TransportKind::Tcp {
            resumed_servers = inner.resume_cluster(Arc::new(DurableTcpSpawner::new(&state_dir)))?;
        }

        Ok(DurableExchange {
            inner,
            state_dir,
            wal,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            seq,
            snapshot_seq,
            since_snapshot: (seq - snapshot_seq) as usize,
            replayed,
            resumed_servers,
        })
    }

    /// Overrides the snapshot cadence: compact after every `k` batches
    /// (`k` is clamped to at least 1).
    pub fn snapshot_every(mut self, k: usize) -> DurableExchange {
        self.snapshot_every = k.max(1);
        self
    }

    /// Applies one batch durably: the in-memory commit first, then one
    /// fsync'd WAL append. `Ok` means the batch survives any crash from
    /// here on; a failed (rolled-back) batch is not logged, so replay sees
    /// exactly the acknowledged history.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<BatchStats> {
        let stats = self.inner.apply(batch)?;
        self.seq += 1;
        self.wal
            .append(&encode(&(self.seq, batch.clone())))
            .map_err(|e| durable_err("WAL append", e))?;
        self.since_snapshot += 1;
        if self.since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(stats)
    }

    /// Compacts now: writes the canonical state snapshot atomically
    /// (temp file + rename), then truncates the WAL it subsumes.
    pub fn snapshot_now(&mut self) -> Result<()> {
        let mut payload = ByteWriter::new();
        payload.u64(self.seq);
        self.inner.encode_state_into(&mut payload);
        write_snapshot(&self.state_dir.join("snapshot.bin"), &payload.into_bytes())
            .map_err(|e| durable_err("snapshot write", e))?;
        self.snapshot_seq = self.seq;
        self.wal
            .truncate()
            .map_err(|e| durable_err("WAL truncate", e))?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// The wrapped incremental session (target, stats, traffic counters).
    pub fn session(&self) -> &IncrementalExchange {
        &self.inner
    }

    /// The materialized solution (see [`IncrementalExchange::target`]).
    pub fn target(&self) -> tdx_storage::TemporalInstance {
        self.inner.target()
    }

    /// The session's canonical state encoding — what snapshots store and
    /// what the crash-recovery property tests compare byte-for-byte.
    pub fn state_bytes(&self) -> Vec<u8> {
        self.inner.encode_state()
    }

    /// The state directory this session persists into.
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// Sequence number of the last committed batch.
    pub fn committed(&self) -> u64 {
        self.seq
    }

    /// Batches replayed from the WAL when this session was opened.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Partition servers adopted (rather than respawned) when this
    /// session was opened — always 0 on the channel transport.
    pub fn resumed_servers(&self) -> usize {
        self.resumed_servers
    }

    /// Abandons the session the way `kill -9` would: partition-server
    /// carriers are severed with no protocol shutdown (listen-mode
    /// servers keep their state for the next `open`'s `Resume`
    /// handshake), and nothing further is written to the state
    /// directory. Test support for crash recovery.
    pub fn simulate_crash(mut self) {
        self.inner.sever_cluster();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::incremental::tests::{batch, other_mapping, paper_mapping};
    use tdx_temporal::Interval;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "tdx-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn fresh_open_apply_reopen_recovers_identically() {
        let dir = temp_dir("roundtrip");
        let mapping = paper_mapping();
        let mut s = DurableExchange::open(mapping.clone(), ChaseOptions::default(), &dir)
            .unwrap()
            .snapshot_every(2);
        s.apply(&batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(0, 10))]))
            .unwrap();
        s.apply(&batch(&mapping, &[("S", &["Ada", "18k"][..], iv(2, 8))]))
            .unwrap();
        s.apply(&batch(&mapping, &[("E", &["Bob", "SAP"][..], iv(5, 15))]))
            .unwrap();
        let reference = s.state_bytes();
        let target = s.target();
        assert_eq!(s.committed(), 3);
        s.simulate_crash();

        let recovered =
            DurableExchange::open(mapping.clone(), ChaseOptions::default(), &dir).unwrap();
        // Snapshot at batch 2 + one WAL record replayed past it.
        assert_eq!(recovered.replayed(), 1);
        assert_eq!(recovered.committed(), 3);
        assert_eq!(recovered.state_bytes(), reference);
        assert_eq!(recovered.target(), target);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_continues_the_null_counter_and_stats() {
        let dir = temp_dir("counters");
        let mapping = paper_mapping();
        let mut s = DurableExchange::open(mapping.clone(), ChaseOptions::default(), &dir).unwrap();
        s.apply(&batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(0, 10))]))
            .unwrap();
        let stats_before = s.session().stats();
        s.simulate_crash();

        let mut recovered =
            DurableExchange::open(mapping.clone(), ChaseOptions::default(), &dir).unwrap();
        assert_eq!(recovered.session().stats(), stats_before);
        // Further batches continue seamlessly on the recovered state.
        recovered
            .apply(&batch(&mapping, &[("E", &["Bob", "SAP"][..], iv(3, 7))]))
            .unwrap();
        assert_eq!(recovered.committed(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_mapping_is_rejected() {
        let dir = temp_dir("mismatch");
        let mapping = paper_mapping();
        let mut s = DurableExchange::open(mapping.clone(), ChaseOptions::default(), &dir).unwrap();
        s.apply(&batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(0, 10))]))
            .unwrap();
        s.snapshot_now().unwrap();
        drop(s);

        let err = match DurableExchange::open(other_mapping(), ChaseOptions::default(), &dir) {
            Err(e) => e,
            Ok(_) => panic!("open under a different mapping must fail"),
        };
        assert!(
            format!("{err}").contains("different schema mapping"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
