//! The distributed partition-server c-chase
//! (`ChaseEngine::Distributed { servers }`), as a layered cluster
//! subsystem.
//!
//! A shared-interval match binds every atom to one interval, so it lives
//! in one timeline partition, and rounds ship their changes as delta
//! blocks (`chase/partitioned.rs`); this subsystem distributes those partitions
//! across **partition servers** and turns the remaining coupling into an
//! explicit message protocol over pluggable carriers. The layers, bottom
//! up:
//!
//! * [`protocol`] — the message shapes and their byte codec
//!   ([`tdx_storage::codec`]): `Hello` (the [`ServerConfig`] handshake),
//!   delta-only `ApplyDelta` against a retained-prefix watermark,
//!   `RunTgdRound`/`RunLocalEgdRound`, `Snapshot`, `Ping`, `Shutdown`.
//! * [`server`] — the server state machine and its carrier loops: behind
//!   an in-process channel pair, or behind a TCP connection (the
//!   `tdx serve-partition` subcommand).
//! * [`transport`] — how frames travel: the [`Transport`] trait with
//!   [`ChannelTransport`] (in-process actors) and [`TcpTransport`] (real
//!   child processes over loopback TCP) backends, plus the
//!   [`FaultInjector`] test harness.
//! * [`chaos`] — the seeded fail-slow fault harness: [`ChaosSpawner`] /
//!   `ChaosTransport` replay a [`FaultPlan`] of delays, hangs, drops,
//!   corruption, duplicates and partial writes against any inner
//!   transport.
//! * [`coordinator`] — the global chase state: the coordinator kernel
//!   (restricted checks + union-find folds shared with the partitioned
//!   engine and the incremental session), [`DistributedCluster`] with
//!   heartbeat/retry, backoff + quarantine ([`ServerHealth`]) and
//!   delta-only shipping, and the batch engine loop.
//!
//! See `docs/distributed.md` for the protocol and equivalence argument,
//! `docs/transport.md` for the transport layer and the watermark
//! invariant, and `docs/robustness.md` for the failure model.

pub mod chaos;
pub mod coordinator;
pub mod protocol;
pub mod server;
pub mod transport;

pub use chaos::{ChaosSpawner, FaultKind, FaultPlan, FaultSpec};
pub use coordinator::{
    c_chase_distributed_with, snapshot_consistent, DistributedCluster, ServerHealth, TrafficStats,
};
pub use protocol::{
    config_digest, image_digest, Hom, MergeOp, Message, Response, ServerConfig, StoreKind, WireHom,
};
pub use server::serve_listen;
pub use transport::{
    resolve_transport, spawner_for, ChannelSpawner, ChannelTransport, DurableTcpSpawner,
    FaultInjector, TcpSpawner, TcpTransport, Transport, TransportKind, TransportSpawner,
};

pub(crate) use coordinator::{
    classify_check, fire_order, fold_merge_ops, for_each_memo_key, is_transport_error,
    memo_probe_key, register_memo, Check, MemoTable,
};
