//! In-memory relational storage and the conjunctive-match engine.
//!
//! The chase and the normalization algorithms of *Temporal Data Exchange*
//! are defined in terms of **homomorphisms from conjunctions of atoms to
//! instances**. This crate supplies the machinery:
//!
//! * [`Value`] — constants and labeled nulls (naïve-table values); nulls in
//!   temporal facts are *interval-annotated* implicitly: the paper's
//!   invariant that a null's annotation equals its fact's time interval is
//!   baked in, so only the base [`NullId`] is stored;
//! * [`Instance`] — a relational snapshot (sets of tuples per relation);
//! * [`TemporalInstance`] — a concrete temporal instance (tuples time-stamped
//!   with [`Interval`](tdx_temporal::Interval)s over the implicit `R⁺`
//!   schema);
//! * [`FactStore`] — the indexed storage engine underneath: eager
//!   per-column value indexes, interval-endpoint indexes (exact and overlap
//!   probes), and a generation/delta log for watermark reads;
//! * [`codec`] — a plain byte codec (bincode-style) for the distributed
//!   chase's wire protocol: values, rows, intervals and facts serialize to
//!   transport-neutral frames (string constants travel as text, never as
//!   process-local intern ids);
//! * [`wal`] — a CRC-guarded write-ahead log and atomic snapshot store for
//!   durable incremental-exchange sessions (torn tails drop cleanly on
//!   replay; corrupt snapshots fail loudly);
//! * [`matcher`] — a backtracking conjunctive matcher with the three
//!   temporal modes the paper needs: ignore time, one shared interval
//!   variable `t` (the `φ⁺(x̄, t)` forms of Definition 16), or one interval
//!   variable per atom with a non-empty common intersection (the `N(Φ⁺)`
//!   forms of Algorithm 1).

#![warn(missing_docs)]

pub mod codec;
pub mod display;
pub mod fact_store;
pub mod fxhash;
pub mod instance;
pub mod matcher;
pub mod sharded;
pub mod snapshot;
pub mod temporal_instance;
pub mod value;
pub mod wal;

pub use codec::{ByteReader, ByteWriter, CodecError, Wire};
pub use fact_store::{FactStore, Generation};
pub use instance::Instance;
pub use matcher::{check_conjunction, Match, MatchError, SearchOptions, TemporalMode};
pub use sharded::{PartScope, PartView, ShardedFactStore};
pub use snapshot::StoreSnapshot;
pub use temporal_instance::{TemporalFact, TemporalInstance};
pub use value::{row, NullGen, NullId, Row, Value};
