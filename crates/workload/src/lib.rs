//! Synthetic workloads for temporal data exchange.
//!
//! The paper evaluates nothing on public data — its figures are worked
//! examples and its performance claims are analytic. This crate synthesizes
//! the inputs the experiment harness and benchmarks need:
//!
//! * [`employment`] — populations of career histories over the paper's
//!   running `E`/`S` → `Emp` mapping (Figures 1–9 writ large), with optional
//!   injected salary conflicts to exercise chase failure;
//! * [`random`] — random schemas, mappings and temporal instances for
//!   property-style validation of Corollary 20 on inputs nobody hand-picked;
//! * [`adversarial`] — the nested-interval family realizing Theorem 13's
//!   `O(n²)` normalization blow-up;
//! * [`sparse`] — clustered workloads where schema-aware normalization
//!   (Algorithm 1) fragments little while naïve normalization fragments
//!   everything (the Section 4.2 trade-off).
//!
//! All generators are deterministic given their seed.

#![warn(missing_docs)]

pub mod adversarial;
pub mod employment;
pub mod random;
pub mod sparse;
pub mod stream;

pub use adversarial::{nested_intervals, nested_mapping};
pub use employment::{figure4_source, paper_mapping, EmploymentConfig, EmploymentWorkload};
pub use random::{RandomConfig, RandomWorkload};
pub use sparse::{clustered_instance, ClusteredConfig};
pub use stream::{
    employment_stream, late_salary_stream, nested_stream, random_stream, sparse_stream,
    split_stream, with_narrowing_refines, BatchOrder, DeltaStream, StreamConfig, StreamStep,
};
