//! Error types for temporal data exchange.

use std::fmt;
use tdx_storage::MatchError;
use tdx_temporal::Interval;

/// Any failure surfaced by the data exchange algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdxError {
    /// A dependency or query did not fit the instance's schema.
    Match(MatchError),
    /// An egd chase step tried to equate two distinct constants — the chase
    /// fails and, by Proposition 4(2) / Theorem 19(2), **no solution
    /// exists** for this source instance.
    ChaseFailure {
        /// Which dependency failed (name or rendered form).
        dependency: String,
        /// The first constant.
        left: String,
        /// The second, different constant.
        right: String,
        /// The interval `h(t)` of the failing concrete step (`None` for
        /// snapshot/abstract chase failures).
        interval: Option<Interval>,
    },
    /// A structural problem (bad schema combination, incomplete source, …).
    Invalid(String),
    /// A temporal (modal) dependency cannot be satisfied by *any* target
    /// instance — e.g. a `◇⁻` (sometime-in-the-past) obligation whose
    /// support includes time point 0, which has no past (Section 7
    /// extension).
    TemporalUnsatisfiable {
        /// Which temporal dependency is unsatisfiable.
        dependency: String,
        /// Why.
        detail: String,
    },
}

impl fmt::Display for TdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdxError::Match(e) => write!(f, "{e}"),
            TdxError::ChaseFailure {
                dependency,
                left,
                right,
                interval,
            } => {
                write!(
                    f,
                    "chase failure: egd {dependency} equates distinct constants {left} ≠ {right}"
                )?;
                if let Some(iv) = interval {
                    write!(f, " on {iv}")?;
                }
                Ok(())
            }
            TdxError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            TdxError::TemporalUnsatisfiable { dependency, detail } => {
                write!(
                    f,
                    "temporal dependency {dependency} is unsatisfiable: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for TdxError {}

impl From<MatchError> for TdxError {
    fn from(e: MatchError) -> Self {
        TdxError::Match(e)
    }
}

impl From<tdx_logic::ParseError> for TdxError {
    fn from(e: tdx_logic::ParseError) -> Self {
        TdxError::Invalid(e.to_string())
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, TdxError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = TdxError::ChaseFailure {
            dependency: "fd".into(),
            left: "18k".into(),
            right: "20k".into(),
            interval: Some(Interval::new(3, 5)),
        };
        assert_eq!(
            e.to_string(),
            "chase failure: egd fd equates distinct constants 18k ≠ 20k on [3, 5)"
        );
        let e = TdxError::Match(MatchError("x".into()));
        assert!(e.to_string().contains("match error"));
        let e = TdxError::Invalid("nope".into());
        assert!(e.to_string().contains("nope"));
    }
}
