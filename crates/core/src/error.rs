//! Error type for the algebra layer.

use std::fmt;

use bda_storage::StorageError;

/// Errors raised while type-checking, lowering, or evaluating algebra plans.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying storage error.
    Storage(StorageError),
    /// A plan failed schema inference / type checking.
    Plan(String),
    /// A scalar expression was ill-typed.
    Expr(String),
    /// A named dataset was not found in the catalog in scope.
    UnknownDataset(String),
    /// An intent operator could not be lowered (shape prerequisites unmet).
    Lower(String),
    /// A provider was asked to execute an operator outside its capabilities.
    Unsupported {
        /// Provider name.
        provider: String,
        /// Description of the rejected operator.
        op: String,
    },
    /// Control iteration exceeded its iteration bound without converging.
    NoConvergence {
        /// The bound that was exceeded.
        max_iters: usize,
    },
    /// A network transport failed (connection, timeout, framing). These
    /// are *transient* by definition: the protocol's requests are
    /// idempotent, so a retry after a transport fault is always safe.
    Net(String),
    /// A remote peer executed the request and reported a non-transient
    /// failure (e.g. an unknown dataset or a plan error on the server).
    /// Unlike [`CoreError::Net`] this is *permanent*: retrying the same
    /// request against the same server will fail the same way.
    Remote {
        /// `host:port` of the server that reported the error.
        addr: String,
        /// The server's error message.
        msg: String,
    },
    /// An explicitly transient error: the wrapped failure is expected to
    /// go away on retry (injected faults, overload, timeouts observed
    /// above the transport layer). The fault-tolerance machinery retries
    /// these and treats everything else as permanent.
    Transient(Box<CoreError>),
    /// The durability layer failed: a WAL append or fsync did not reach
    /// disk, a snapshot could not be written, or recovery found
    /// corruption it refuses to skip. Permanent — the mutation was *not*
    /// acknowledged, and retrying against the same disk will fail the
    /// same way (a replica with healthy storage is the recovery path).
    Durability(String),
}

impl CoreError {
    /// Wrap an error as explicitly transient.
    pub fn transient(e: CoreError) -> CoreError {
        match e {
            already @ CoreError::Transient(_) => already,
            other => CoreError::Transient(Box::new(other)),
        }
    }

    /// Is a retry of the failed operation expected to help?
    ///
    /// The taxonomy: transport faults ([`CoreError::Net`]) and explicit
    /// [`CoreError::Transient`] wrappers are transient; everything else —
    /// type errors, missing datasets, capability mismatches, corrupt
    /// bytes, server-reported failures ([`CoreError::Remote`]) — is
    /// permanent and retrying is wasted work.
    pub fn is_transient(&self) -> bool {
        matches!(self, CoreError::Net(_) | CoreError::Transient(_))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Plan(msg) => write!(f, "plan error: {msg}"),
            CoreError::Expr(msg) => write!(f, "expression error: {msg}"),
            CoreError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            CoreError::Lower(msg) => write!(f, "lowering error: {msg}"),
            CoreError::Unsupported { provider, op } => {
                write!(f, "provider `{provider}` does not support {op}")
            }
            CoreError::NoConvergence { max_iters } => {
                write!(
                    f,
                    "iteration did not converge within {max_iters} iterations"
                )
            }
            CoreError::Net(msg) => write!(f, "network error: {msg}"),
            CoreError::Remote { addr, msg } => write!(f, "remote `{addr}`: {msg}"),
            CoreError::Transient(inner) => write!(f, "transient: {inner}"),
            CoreError::Durability(msg) => write!(f, "durability: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Transient(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_errors_convert() {
        let e: CoreError = StorageError::UnknownField("x".into()).into();
        assert!(matches!(e, CoreError::Storage(_)));
        assert!(e.to_string().contains("unknown field"));
    }

    #[test]
    fn taxonomy_classifies_transience() {
        // Transport faults and explicit wrappers are transient.
        assert!(CoreError::Net("connection reset".into()).is_transient());
        assert!(CoreError::transient(CoreError::Plan("overload".into())).is_transient());
        // Semantic errors are permanent.
        assert!(!CoreError::Plan("bad plan".into()).is_transient());
        assert!(!CoreError::UnknownDataset("t".into()).is_transient());
        assert!(!CoreError::Storage(StorageError::Corrupt("bytes".into())).is_transient());
        assert!(!CoreError::Durability("wal append failed".into()).is_transient());
        assert!(!CoreError::Remote {
            addr: "127.0.0.1:7401".into(),
            msg: "unknown dataset".into(),
        }
        .is_transient());
        // Wrapping is idempotent and preserves the inner message.
        let e = CoreError::transient(CoreError::transient(CoreError::Net("x".into())));
        assert!(matches!(&e, CoreError::Transient(inner) if matches!(**inner, CoreError::Net(_))));
        assert!(e.to_string().contains("x"), "{e}");
    }

    #[test]
    fn unsupported_names_provider() {
        let e = CoreError::Unsupported {
            provider: "relstore".into(),
            op: "MatMul".into(),
        };
        let s = e.to_string();
        assert!(s.contains("relstore") && s.contains("MatMul"), "{s}");
    }
}
