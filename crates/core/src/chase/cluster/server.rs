//! The partition-server side of the protocol: decode a request, update the
//! retained fact image or enumerate matches, encode the response.
//!
//! [`ServerState`] is carrier-agnostic — the same state machine runs behind
//! an in-process channel pair ([`serve_channel`]) and a TCP stream
//! ([`serve_stream`], reached from the hidden `tdx serve-partition`
//! subcommand via [`serve_connect`], or from its durable `--listen` mode
//! via [`serve_listen`], which retains the state across successive control
//! connections so a restarted coordinator can [`Message::Resume`]). A
//! server starts *unconfigured* and must receive [`Message::Hello`] before
//! any store traffic; that keeps the channel and process lifecycles
//! identical — spawn is always "start a blank peer, then configure it over
//! the wire".
//!
//! # Retained images
//!
//! Per store the server keeps the **retained image**: the concatenated
//! pre + delta fact lists as of the last `ApplyDelta`, per relation. An
//! `ApplyDelta` replays the shipped [`SyncOp`] program against it —
//! keeping runs of retained facts in order, inserting only the shipped
//! ones — and rebuilds the local [`ShardedFactStore`] from the
//! reconstructed list split at the shipped pre/delta boundary. The
//! rebuild is local CPU; only genuinely new facts cross the wire.

use super::protocol::{
    config_digest, image_digest, FactLists, ImagePair, Message, PartitionHoms, PartitionMerges,
    RelationSync, Response, ServerConfig, StoreKind, SyncOp, WireHom,
};
use crate::chase::partitioned::{sweep_images, sweep_specs, unpack_ref};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use tdx_storage::codec::{decode, encode, read_frame, write_frame};
use tdx_storage::{PartScope, ShardedFactStore, TemporalMode};

/// The server state machine: configuration, retained images, and the
/// stores built from them.
pub(crate) struct ServerState {
    cfg: Option<ServerConfig>,
    /// Retained image per store (concatenated pre + delta lists), indexed
    /// by [`StoreKind::idx`].
    image: [FactLists; 2],
    /// Pre/delta boundary of the last `ApplyDelta`, per store, per
    /// relation.
    splits: [Vec<usize>; 2],
    stores: [Option<ShardedFactStore>; 2],
}

impl ServerState {
    pub(crate) fn new() -> ServerState {
        ServerState {
            cfg: None,
            image: [Vec::new(), Vec::new()],
            splits: [Vec::new(), Vec::new()],
            stores: [None, None],
        }
    }

    fn cfg(&self) -> Result<&ServerConfig, String> {
        self.cfg
            .as_ref()
            .ok_or_else(|| "request before Hello".into())
    }

    /// Handles one decoded request. An `Err` is a protocol violation —
    /// fatal for this server, surfaced to the carrier loop.
    pub(crate) fn handle(&mut self, msg: Message) -> Result<Response, String> {
        match msg {
            Message::Ping => Ok(Response::Pong),
            Message::Shutdown => Ok(Response::Stopped),
            Message::Resume => {
                // Carrier-level like Ping: report what this server still
                // holds, as digests, without touching it. A fresh spawn
                // answers `configured: false` and the coordinator falls
                // back to the Hello path.
                let (configured, config, images) = match &self.cfg {
                    Some(cfg) => (
                        true,
                        config_digest(cfg),
                        [image_digest(&self.image[0]), image_digest(&self.image[1])],
                    ),
                    None => (false, 0, [0, 0]),
                };
                Ok(Response::ResumeState {
                    configured,
                    config,
                    images,
                })
            }
            Message::Hello(cfg) => {
                // (Re)configure; any retained image belongs to the old
                // configuration.
                self.image = [
                    vec![Vec::new(); cfg.src_schema.len()],
                    vec![Vec::new(); cfg.tgt_schema.len()],
                ];
                self.splits = [vec![0; cfg.src_schema.len()], vec![0; cfg.tgt_schema.len()]];
                self.stores = [None, None];
                self.cfg = Some(cfg);
                Ok(Response::Ready)
            }
            Message::ApplyDelta { store, sync } => {
                self.apply_sync(store, sync)?;
                Ok(Response::Applied)
            }
            Message::RunTgdRound => Ok(Response::Homs(self.tgd_homs()?)),
            Message::RunLocalEgdRound => Ok(Response::Merges(self.egd_merges()?)),
            Message::TgdRoundFused {
                sync,
                fresh,
                discover,
            } => {
                // The fused v2 round: sync, (optionally) discover, and
                // enumerate — one barrier on the coordinator.
                self.apply_sync(StoreKind::Source, sync)?;
                let images = if discover {
                    self.discover_pairs(StoreKind::Source, &fresh)?
                } else {
                    Vec::new()
                };
                Ok(Response::TgdFused {
                    homs: self.tgd_homs()?,
                    images,
                })
            }
            Message::EgdRoundFused {
                sync,
                fresh,
                discover,
            } => {
                self.apply_sync(StoreKind::Target, sync)?;
                let images = if discover {
                    self.discover_pairs(StoreKind::Target, &fresh)?
                } else {
                    Vec::new()
                };
                Ok(Response::EgdFused {
                    merges: self.egd_merges()?,
                    images,
                })
            }
            Message::Snapshot { store } => {
                let cfg = self.cfg()?;
                let (store_opt, schema) = match store {
                    StoreKind::Source => (&self.stores[0], &cfg.src_schema),
                    StoreKind::Target => (&self.stores[1], &cfg.tgt_schema),
                };
                let nrels = schema.len();
                let mut owned: FactLists = vec![Vec::new(); nrels];
                let mut replicas: FactLists = vec![Vec::new(); nrels];
                if let Some(s) = store_opt {
                    // Every shipped fact lands in the local partition owning
                    // its start point; the ones in owned partitions are this
                    // server's owner facts, the rest are boundary replicas.
                    for (rel, _, fact) in s.iter_all() {
                        let p = cfg.tp.part_of(fact.interval.start());
                        if cfg.owned.binary_search(&p).is_ok() {
                            owned[rel.0 as usize].push(fact.clone());
                        } else {
                            replicas[rel.0 as usize].push(fact.clone());
                        }
                    }
                }
                Ok(Response::Facts { owned, replicas })
            }
        }
    }

    /// Replays a sync program against the retained image of `store` and
    /// rebuilds its local match store — the body of `ApplyDelta` and the
    /// sync half of every fused round. A program that reproduces the
    /// retained image verbatim (one full keep run, same split) skips the
    /// store rebuild: fused fixpoint iterations re-sync every relation,
    /// and most relations don't change between cuts.
    fn apply_sync(&mut self, store: StoreKind, sync: Vec<RelationSync>) -> Result<(), String> {
        let (schema, tp) = {
            let cfg = self.cfg()?;
            let schema = match store {
                StoreKind::Source => Arc::clone(&cfg.src_schema),
                StoreKind::Target => Arc::clone(&cfg.tgt_schema),
            };
            (schema, cfg.tp.clone())
        };
        let nrels = schema.len();
        if sync.len() != nrels {
            return Err(format!(
                "ApplyDelta relation count mismatch: got {}, schema has {nrels}",
                sync.len()
            ));
        }
        let image = &mut self.image[store.idx()];
        let splits = &mut self.splits[store.idx()];
        let unchanged = self.stores[store.idx()].is_some()
            && sync.iter().enumerate().all(|(r, rs)| {
                rs.split as usize == splits[r]
                    && match rs.ops.as_slice() {
                        [] => image[r].is_empty(),
                        [SyncOp::Keep { skip: 0, take }] => *take as usize == image[r].len(),
                        _ => false,
                    }
            });
        if unchanged {
            return Ok(());
        }
        for (r, rs) in sync.into_iter().enumerate() {
            let old = &image[r];
            // Size hint only — fold saturating and clamp so corrupt
            // run lengths reach the checked validation below
            // instead of a capacity-overflow panic here.
            let kept: usize = rs
                .ops
                .iter()
                .fold(0usize, |acc, op| {
                    acc.saturating_add(match op {
                        SyncOp::Keep { take, .. } => *take as usize,
                        SyncOp::Insert(facts) => facts.len(),
                    })
                })
                .min(old.len().saturating_add(1 << 16));
            let mut new_list: Vec<_> = Vec::with_capacity(kept);
            let mut at = 0usize;
            for op in rs.ops {
                match op {
                    SyncOp::Keep { skip, take } => {
                        // `skip`/`take` come off the wire; checked
                        // arithmetic turns a corrupt-but-decodable
                        // frame into the protocol error below, not
                        // an overflow panic.
                        let end = usize::try_from(skip)
                            .ok()
                            .and_then(|skip| at.checked_add(skip))
                            .and_then(|start| {
                                at = start;
                                start.checked_add(usize::try_from(take).ok()?)
                            })
                            .filter(|&end| end <= old.len())
                            .ok_or_else(|| {
                                format!(
                                    "ApplyDelta keep run (skip {skip}, take {take}) at \
                                     {at} beyond retained image of {} facts \
                                     (relation {r}) — coordinator and server diverged",
                                    old.len()
                                )
                            })?;
                        new_list.extend_from_slice(&old[at..end]);
                        at = end;
                    }
                    SyncOp::Insert(facts) => new_list.extend(facts),
                }
            }
            let split = rs.split as usize;
            if split > new_list.len() {
                return Err(format!(
                    "ApplyDelta split {split} beyond reconstructed list of {} \
                     facts (relation {r})",
                    new_list.len()
                ));
            }
            image[r] = new_list;
            splits[r] = split;
        }
        let (image, splits) = (&self.image[store.idx()], &self.splits[store.idx()]);
        let built = ShardedFactStore::build_with_delta(schema, tp, false, |rel| {
            let r = rel.0 as usize;
            image[r].split_at(splits[r])
        });
        self.stores[store.idx()] = Some(built);
        Ok(())
    }

    /// Enumerates the delta-touching tgd body matches of the owned
    /// partitions.
    fn tgd_homs(&self) -> Result<Vec<PartitionHoms>, String> {
        let cfg = self.cfg()?;
        let store = self.stores[StoreKind::Source.idx()]
            .as_ref()
            .ok_or("RunTgdRound before ApplyDelta")?;
        let mut out: Vec<PartitionHoms> = Vec::new();
        for &p in &cfg.owned {
            let view = store.part(p);
            if !view.has_delta() {
                continue; // nothing new can match here
            }
            let mut per_tgd: Vec<Vec<WireHom>> = Vec::new();
            for body in &cfg.tgd_bodies {
                let mut homs: Vec<WireHom> = Vec::new();
                view.find_matches(
                    body,
                    TemporalMode::Shared,
                    &[],
                    None,
                    cfg.sopts,
                    PartScope::OwnerDelta,
                    &mut |m| {
                        homs.push((
                            m.bindings()
                                .into_iter()
                                .map(|(v, val)| (v.name().to_string(), val))
                                .collect(),
                            m.shared_interval().expect("temporal store binds t"),
                        ));
                        true
                    },
                )
                .map_err(|e| e.to_string())?;
                per_tgd.push(homs);
            }
            if per_tgd.iter().any(|h| !h.is_empty()) {
                out.push((p as u64, per_tgd));
            }
        }
        Ok(out)
    }

    /// Enumerates the delta-touching egd body matches of the owned
    /// partitions.
    fn egd_merges(&self) -> Result<Vec<PartitionMerges>, String> {
        let cfg = self.cfg()?;
        let store = self.stores[StoreKind::Target.idx()]
            .as_ref()
            .ok_or("RunLocalEgdRound before ApplyDelta")?;
        let mut out: Vec<PartitionMerges> = Vec::new();
        for &p in &cfg.owned {
            let view = store.part(p);
            if !view.has_delta() {
                continue;
            }
            let mut ops: Vec<super::protocol::MergeOp> = Vec::new();
            for (ei, (body, lhs, rhs)) in cfg.egds.iter().enumerate() {
                view.find_matches(
                    body,
                    TemporalMode::Shared,
                    &[],
                    None,
                    cfg.sopts,
                    PartScope::OwnerDelta,
                    &mut |m| {
                        let iv = m.shared_interval().expect("temporal store binds t");
                        let a = m.value(*lhs).expect("egd lhs in body");
                        let b = m.value(*rhs).expect("egd rhs in body");
                        if a != b {
                            ops.push((ei as u32, a, b, iv));
                        }
                        true
                    },
                )
                .map_err(|e| e.to_string())?;
            }
            if !ops.is_empty() {
                out.push((p as u64, ops));
            }
        }
        Ok(out)
    }

    /// Server-side Algorithm-1 discovery: the two-atom overlap sweep over
    /// this server's retained lists, semi-naive-restricted by the shipped
    /// fresh flags. Any overlapping pair's intersection lands in some
    /// partition both facts were shipped to (replicas included), so the
    /// union of every server's local pairs is exactly the global pair set
    /// — the coordinator dedups multi-visible pairs after translating the
    /// local gids.
    fn discover_pairs(
        &self,
        store: StoreKind,
        fresh: &[Vec<bool>],
    ) -> Result<Vec<ImagePair>, String> {
        let cfg = self.cfg()?;
        let (schema, bodies): (_, Vec<&[tdx_logic::Atom]>) = match store {
            StoreKind::Source => (
                &cfg.src_schema,
                cfg.tgd_bodies.iter().map(|b| b.as_slice()).collect(),
            ),
            StoreKind::Target => (
                &cfg.tgt_schema,
                cfg.egds.iter().map(|(b, _, _)| b.as_slice()).collect(),
            ),
        };
        let specs = sweep_specs(schema, &bodies)
            .ok_or("discovery requested for bodies the sweep cannot compile")?;
        let image = &self.image[store.idx()];
        let splits = &self.splits[store.idx()];
        if fresh.len() != image.len()
            || fresh
                .iter()
                .zip(image.iter().zip(splits.iter()))
                .any(|(f, (list, &s))| f.len() != list.len() - s)
        {
            return Err("fresh flags do not match the delta blocks".into());
        }
        let pre: FactLists = image
            .iter()
            .zip(splits.iter())
            .map(|(list, &s)| list[..s].to_vec())
            .collect();
        let delta: FactLists = image
            .iter()
            .zip(splits.iter())
            .map(|(list, &s)| list[s..].to_vec())
            .collect();
        Ok(sweep_images(&pre, &delta, Some(fresh), &specs, 1, None)
            .into_iter()
            .map(|(ka, kb)| {
                let ((ra, ga), (rb, gb)) = (unpack_ref(ka), unpack_ref(kb));
                (ra.0, ga, rb.0, gb)
            })
            .collect())
    }

    /// Test/audit access: the retained image of `store`, per relation.
    #[cfg(test)]
    pub(crate) fn retained(&self, store: StoreKind) -> &FactLists {
        &self.image[store.idx()]
    }
}

/// Why one carrier loop ended: a protocol `Shutdown` (the server should
/// exit) versus a dead carrier (`recv` returned `None` / `send` returned
/// `false` — the coordinator is gone). Rendezvous servers treat both as
/// exit; a listen-mode server survives a disconnect, retains its images,
/// and waits for a reconnecting coordinator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LoopEnd {
    /// A protocol `Shutdown` was acknowledged.
    Shutdown,
    /// The carrier closed without a `Shutdown` (coordinator death or a
    /// failed send).
    Disconnected,
}

/// The carrier-agnostic server loop over an existing (possibly already
/// configured) state: frames in, frames out, until `Shutdown`, a closed
/// carrier, or a protocol violation (`Err`).
pub(crate) fn serve_state_loop(
    state: &mut ServerState,
    mut recv: impl FnMut() -> Option<Vec<u8>>,
    mut send: impl FnMut(&[u8]) -> bool,
) -> Result<LoopEnd, String> {
    while let Some(bytes) = recv() {
        let msg = decode::<Message>(&bytes).map_err(|e| e.to_string())?;
        let stop = matches!(msg, Message::Shutdown);
        let resp = state.handle(msg)?;
        let sent = send(&encode(&resp));
        if stop {
            return Ok(LoopEnd::Shutdown);
        }
        if !sent {
            return Ok(LoopEnd::Disconnected);
        }
    }
    Ok(LoopEnd::Disconnected)
}

/// [`serve_state_loop`] over a fresh state, for rendezvous carriers whose
/// state dies with the connection. Exits on disconnect — a `--connect`
/// child whose coordinator was killed must not linger as an orphan.
pub(crate) fn serve_loop(
    recv: impl FnMut() -> Option<Vec<u8>>,
    send: impl FnMut(&[u8]) -> bool,
) -> Result<(), String> {
    serve_state_loop(&mut ServerState::new(), recv, send).map(|_| ())
}

/// Serves one in-process channel pair (the body of a
/// [`ChannelTransport`](super::transport::ChannelTransport) server thread).
/// A protocol violation panics the thread — the coordinator observes the
/// closed channel and runs its retry path.
pub(crate) fn serve_channel(rx: Receiver<Vec<u8>>, tx: Sender<Vec<u8>>) {
    if let Err(e) = serve_loop(|| rx.recv().ok(), |b| tx.send(b.to_vec()).is_ok()) {
        panic!("partition server: {e}");
    }
}

/// Serves one TCP connection until shutdown or disconnect: length-prefixed
/// [`tdx_storage::codec`] frames in both directions.
pub fn serve_stream(stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    serve_loop(
        || read_frame(&mut reader).ok(),
        |b| write_frame(&mut writer, b).is_ok(),
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("partition server: {e}")))
}

/// The `tdx serve-partition --connect ADDR` entry point: dial the
/// coordinator's rendezvous listener and serve the connection until it
/// shuts us down. The process holds no state beyond the connection — its
/// whole configuration arrives as the `Hello` handshake. The connection
/// EOF-ing without a `Shutdown` (the coordinator process was killed) also
/// exits the process: a rendezvous child has no way to be found again, so
/// lingering would only leak it.
pub fn serve_connect(addr: &str) -> io::Result<()> {
    serve_stream(TcpStream::connect(addr)?)
}

/// The `tdx serve-partition --listen ADDR` entry point — the durable-
/// session variant. Binds `addr` (port 0 picks a free port), optionally
/// publishes the actual bound address to `addr_file` (written atomically:
/// temp file + rename), then accepts control connections **one at a time,
/// retaining the server state across them**: a coordinator crash EOFs the
/// connection, the images survive, and a restarted coordinator reconnects
/// and `Resume`s. The process exits on a protocol `Shutdown`, on a
/// protocol violation, or — when `idle_exit` is set — after that long
/// without a connected coordinator, so leaked servers self-reap in CI.
pub fn serve_listen(
    addr: &str,
    addr_file: Option<&std::path::Path>,
    idle_exit: Option<std::time::Duration>,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    if let Some(path) = addr_file {
        publish_addr(&listener, path)?;
    }
    serve_listener(listener, idle_exit)
}

/// Atomically publishes a listener's actual bound address to `path` (temp
/// file + rename), so a spawner polling the file never reads a partial
/// write.
pub(crate) fn publish_addr(listener: &TcpListener, path: &std::path::Path) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, listener.local_addr()?.to_string())?;
    std::fs::rename(&tmp, path)
}

/// The accept loop of [`serve_listen`] over an already-bound listener —
/// also the body of the in-process durable fallback thread (no `tdx`
/// binary found), which pre-binds to learn the address.
pub(crate) fn serve_listener(
    listener: TcpListener,
    idle_exit: Option<std::time::Duration>,
) -> io::Result<()> {
    if idle_exit.is_some() {
        listener.set_nonblocking(true)?;
    }
    let mut state = ServerState::new();
    loop {
        let stream = match idle_exit {
            None => listener.accept()?.0,
            Some(limit) => {
                // tdx-lint: allow(wall-clock): idle-exit accept timeout; bounds how long a server lingers, never what it computes
                let deadline = std::time::Instant::now() + limit;
                loop {
                    match listener.accept() {
                        Ok((s, _)) => break s,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            // tdx-lint: allow(wall-clock): polls the idle-exit deadline above
                            if std::time::Instant::now() >= deadline {
                                return Ok(());
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        };
        // The accepted stream may inherit the listener's nonblocking mode.
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let end = serve_state_loop(
            &mut state,
            || read_frame(&mut reader).ok(),
            |b| write_frame(&mut writer, b).is_ok(),
        )
        .map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("partition server: {e}"))
        })?;
        match end {
            LoopEnd::Shutdown => return Ok(()),
            LoopEnd::Disconnected => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::cluster::protocol::RelationSync;
    use tdx_logic::parse_mapping;
    use tdx_storage::{row, SearchOptions, TemporalFact, Value};
    use tdx_temporal::{Breakpoints, Interval, TimelinePartition};

    fn config() -> ServerConfig {
        let mapping = parse_mapping(
            "source { E(name, company). S(name, salary). }\n\
             target { Emp(name, company, salary). }\n\
             tgd E(n,c) & S(n,s) -> Emp(n,c,s)\n\
             egd Emp(n,c,s) & Emp(n,c,s2) -> s = s2",
        )
        .unwrap();
        let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20]));
        ServerConfig::for_server(&mapping, &tp, 0, 1, SearchOptions::default())
    }

    fn fact(name: &str, company: &str, iv: Interval) -> TemporalFact {
        TemporalFact {
            data: row([Value::str(name), Value::str(company)]),
            interval: iv,
        }
    }

    #[test]
    fn requests_before_hello_are_rejected() {
        let mut s = ServerState::new();
        assert!(s.handle(Message::RunTgdRound).is_err());
        // Ping and Shutdown are carrier-level and work unconfigured.
        assert_eq!(s.handle(Message::Ping), Ok(Response::Pong));
        assert_eq!(s.handle(Message::Shutdown), Ok(Response::Stopped));
    }

    fn ship(ops: Vec<SyncOp>, split: u64) -> Message {
        Message::ApplyDelta {
            store: StoreKind::Source,
            sync: vec![
                RelationSync { ops, split },
                RelationSync {
                    ops: vec![],
                    split: 0,
                },
            ],
        }
    }

    #[test]
    fn sync_program_reconstructs_the_retained_image() {
        let mut s = ServerState::new();
        assert_eq!(s.handle(Message::Hello(config())), Ok(Response::Ready));
        let a = fact("Ada", "IBM", Interval::new(1, 5));
        let b = fact("Bob", "IBM", Interval::new(2, 8));
        let c = fact("Cyd", "ACME", Interval::new(3, 9));
        // Full ship: one insert run.
        s.handle(ship(vec![SyncOp::Insert(vec![a.clone(), b.clone()])], 2))
            .unwrap();
        assert_eq!(s.retained(StoreKind::Source)[0], vec![a.clone(), b.clone()]);
        // Steady-state ship: retain everything, append one fact.
        s.handle(ship(
            vec![
                SyncOp::Keep { skip: 0, take: 2 },
                SyncOp::Insert(vec![c.clone()]),
            ],
            2,
        ))
        .unwrap();
        assert_eq!(
            s.retained(StoreKind::Source)[0],
            vec![a.clone(), b.clone(), c.clone()]
        );
        // Mid-list deletion: skip the second fact, keep the rest.
        s.handle(ship(
            vec![
                SyncOp::Keep { skip: 0, take: 1 },
                SyncOp::Keep { skip: 1, take: 1 },
            ],
            2,
        ))
        .unwrap();
        assert_eq!(s.retained(StoreKind::Source)[0], vec![a, c]);
        // A keep run beyond the image is a protocol violation.
        assert!(s
            .handle(ship(vec![SyncOp::Keep { skip: 0, take: 99 }], 0))
            .is_err());
        // Corrupt-but-decodable runs near u64::MAX must error, not
        // overflow-panic (the codec hardening standard, upheld here too).
        for (skip, take) in [(u64::MAX, 1), (1, u64::MAX), (u64::MAX, u64::MAX)] {
            assert!(
                s.handle(ship(vec![SyncOp::Keep { skip, take }], 0))
                    .is_err(),
                "skip {skip} take {take}"
            );
        }
        // So is a split beyond the reconstructed list.
        assert!(s
            .handle(ship(vec![SyncOp::Keep { skip: 0, take: 1 }], 5))
            .is_err());
        // Relation-count mismatch too.
        assert!(s
            .handle(Message::ApplyDelta {
                store: StoreKind::Source,
                sync: vec![RelationSync {
                    ops: vec![],
                    split: 0
                }],
            })
            .is_err());
    }

    #[test]
    fn resume_reports_configuration_and_image_digests() {
        let mut s = ServerState::new();
        // Unconfigured: carrier-level, answers without erroring.
        assert_eq!(
            s.handle(Message::Resume),
            Ok(Response::ResumeState {
                configured: false,
                config: 0,
                images: [0, 0],
            })
        );
        let cfg = config();
        s.handle(Message::Hello(cfg.clone())).unwrap();
        let empty_src: FactLists = vec![Vec::new(); cfg.src_schema.len()];
        let empty_tgt: FactLists = vec![Vec::new(); cfg.tgt_schema.len()];
        assert_eq!(
            s.handle(Message::Resume),
            Ok(Response::ResumeState {
                configured: true,
                config: config_digest(&cfg),
                images: [image_digest(&empty_src), image_digest(&empty_tgt)],
            })
        );
        // After a ship, the source digest tracks the retained image.
        let a = fact("Ada", "IBM", Interval::new(1, 5));
        s.handle(ship(vec![SyncOp::Insert(vec![a.clone()])], 1))
            .unwrap();
        let shipped: FactLists = vec![vec![a], Vec::new()];
        assert_eq!(
            s.handle(Message::Resume),
            Ok(Response::ResumeState {
                configured: true,
                config: config_digest(&cfg),
                images: [image_digest(&shipped), image_digest(&empty_tgt)],
            })
        );
    }

    #[test]
    fn hello_resets_the_retained_images() {
        let mut s = ServerState::new();
        s.handle(Message::Hello(config())).unwrap();
        s.handle(ship(
            vec![SyncOp::Insert(vec![fact(
                "Ada",
                "IBM",
                Interval::new(1, 5),
            )])],
            1,
        ))
        .unwrap();
        s.handle(Message::Hello(config())).unwrap();
        assert!(s.retained(StoreKind::Source)[0].is_empty());
        // After a reset, a keep run no longer verifies.
        assert!(s
            .handle(ship(vec![SyncOp::Keep { skip: 0, take: 1 }], 0))
            .is_err());
    }
}
