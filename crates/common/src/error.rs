//! Error type shared across the workspace's substrate layer.

use std::fmt;

/// Workspace result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by the substrate types.
#[derive(Debug)]
pub enum Error {
    /// A parser rejected its input.
    Parse(String),
    /// `ItemSet::from_sorted` was handed an unsorted or duplicated vector.
    Unsorted,
    /// A pattern asserted and negated the same item.
    OverlappingPattern,
    /// A lattice operation required `I ⊆ J` and it did not hold.
    NotSubset,
    /// A publish was requested before the sliding window filled.
    PartialWindow {
        /// Transactions currently in the window.
        have: usize,
        /// Window capacity that must be reached before publishing.
        need: usize,
    },
    /// A defense claiming the Butterfly contract produced a release that
    /// fails the audit; the release is withheld.
    ContractViolation {
        /// Stream position of the withheld window.
        stream_len: u64,
        /// Entries of that release outside their legal region.
        violations: usize,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Unsorted => write!(f, "itemset vector is not strictly sorted"),
            Error::OverlappingPattern => {
                write!(f, "pattern asserts and negates the same item")
            }
            Error::NotSubset => write!(f, "lattice bounds must satisfy I ⊆ J"),
            Error::PartialWindow { have, need } => {
                write!(f, "partial window: {have} of {need} transactions")
            }
            Error::ContractViolation {
                stream_len,
                violations,
            } => write!(
                f,
                "contract violation: release at {stream_len} withheld, {violations} entries fail the audit"
            ),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<Error> = vec![
            Error::Parse("x".into()),
            Error::Unsorted,
            Error::OverlappingPattern,
            Error::NotSubset,
            Error::PartialWindow { have: 3, need: 10 },
            Error::ContractViolation {
                stream_len: 2000,
                violations: 1,
            },
            Error::Io(std::io::Error::other("boom")),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_preserves_source() {
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
