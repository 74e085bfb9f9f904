//! Schemas, dependencies and queries for temporal data exchange.
//!
//! This crate provides the logical language of the paper (Section 2):
//!
//! * [`Schema`] — relational schemas `R(A₁, …, Aₙ)`; the corresponding
//!   concrete schema `R⁺(A₁, …, Aₙ, T)` is implicit (every relation gains a
//!   temporal attribute when stored in a temporal instance);
//! * [`Tgd`] — source-to-target tuple generating dependencies
//!   `∀x̄ φ(x̄) → ∃ȳ ψ(x̄, ȳ)`;
//! * [`Egd`] — equality generating dependencies `∀x̄ φ(x̄) → x₁ = x₂`;
//! * [`SchemaMapping`] — a validated data exchange setting
//!   `M = (R_S, R_T, Σ_st, Σ_eg)`;
//! * [`ConjunctiveQuery`] / [`UnionQuery`] — (unions of) conjunctive queries
//!   over the target schema;
//! * [`parser`] — a small text syntax for all of the above;
//! * [`facts`] — the one-pass reader for `.facts` data files.
//!
//! Dependencies and queries are written **non-temporally**, exactly as in the
//! paper: the universally quantified interval variable `t` that turns `φ(x̄)`
//! into `φ⁺(x̄, t)` is added mechanically by the evaluation layers, never
//! spelled out in the AST.

#![warn(missing_docs)]

pub mod atom;
pub mod constant;
pub mod dependency;
pub mod facts;
pub mod parser;
pub mod query;
pub mod schema;
pub mod symbol;
pub mod temporal_dependency;
pub mod term;

pub use atom::Atom;
pub use constant::Constant;
pub use dependency::{Dependency, Egd, SchemaMapping, Tgd};
pub use facts::{parse_fact, parse_facts, scan_facts, FactTerm, ParsedFact, ScannedFact};
pub use parser::{
    parse_egd, parse_mapping, parse_query, parse_schema, parse_temporal_tgd, parse_tgd,
    parse_union_query, ParseError,
};
pub use query::{ConjunctiveQuery, UnionQuery};
pub use schema::{RelId, RelationSchema, Schema};
pub use symbol::Symbol;
pub use temporal_dependency::{Modality, TemporalTgd};
pub use term::{Term, Var};
