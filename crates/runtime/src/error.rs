//! Runtime error type.

use std::fmt;
use std::sync::Arc;

/// An error raised while lowering or executing a compiled network.
#[derive(Debug, Clone)]
pub enum RuntimeError {
    /// A statement references a buffer missing from the buffer table.
    UnknownBuffer {
        /// The missing buffer's name.
        name: String,
    },
    /// An alias chain points at a missing or later-declared buffer.
    BadAlias {
        /// The aliasing buffer.
        name: String,
        /// The missing target.
        target: String,
    },
    /// An extern statement names an unregistered kernel.
    UnknownExtern {
        /// The kernel name.
        op: String,
    },
    /// Input data does not match the destination buffer.
    InputShape {
        /// The input buffer.
        buffer: String,
        /// Explanation.
        detail: String,
    },
    /// A statement is malformed for execution (e.g. index uses an unbound
    /// variable).
    Malformed {
        /// Explanation.
        detail: String,
    },
    /// A runtime component was configured inconsistently (zero batch,
    /// empty dataset, bad fault-tolerance policy, …).
    InvalidConfig {
        /// Explanation.
        detail: String,
    },
    /// An I/O operation failed (checkpoint read/write, dataset access).
    ///
    /// Carries the originating [`std::io::Error`] when one exists, so
    /// callers can walk [`std::error::Error::source`] chains.
    Io {
        /// What the runtime was doing when the failure occurred.
        detail: String,
        /// The underlying OS-level error, if any.
        source: Option<Arc<std::io::Error>>,
    },
    /// Execution was interrupted by a (possibly injected) fault; the
    /// supervisor treats this as a recoverable crash.
    Interrupted {
        /// What fault fired.
        detail: String,
    },
    /// A numerical-health guard tripped: a NaN/Inf sentinel, a
    /// non-finite loss, or a diverging trajectory. Deliberately *not*
    /// recoverable by a plain restart (the same data and weights would
    /// reproduce it); the supervisor recovers only through its rollback
    /// budget, quarantining or re-tuning along the way.
    Numerical {
        /// Which guard tripped, where, and on what.
        detail: String,
    },
    /// A distributed-transport operation failed terminally: handshake
    /// rejected, every peer evicted, the comm thread lost, or a wire
    /// error that retries and ring healing could not absorb.
    Transport {
        /// What failed and why.
        detail: String,
    },
}

impl RuntimeError {
    /// Wraps an I/O error with context about the failed operation.
    pub fn io(detail: impl Into<String>, source: std::io::Error) -> Self {
        RuntimeError::Io {
            detail: detail.into(),
            source: Some(Arc::new(source)),
        }
    }

    /// A numerical-guard trip with context.
    pub fn numerical(detail: impl Into<String>) -> Self {
        RuntimeError::Numerical {
            detail: detail.into(),
        }
    }
}

/// Renders a thread panic payload for error messages (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

impl PartialEq for RuntimeError {
    fn eq(&self, other: &Self) -> bool {
        use RuntimeError::*;
        match (self, other) {
            (UnknownBuffer { name: a }, UnknownBuffer { name: b }) => a == b,
            (
                BadAlias {
                    name: a,
                    target: ta,
                },
                BadAlias {
                    name: b,
                    target: tb,
                },
            ) => a == b && ta == tb,
            (UnknownExtern { op: a }, UnknownExtern { op: b }) => a == b,
            (
                InputShape {
                    buffer: a,
                    detail: da,
                },
                InputShape {
                    buffer: b,
                    detail: db,
                },
            ) => a == b && da == db,
            (Malformed { detail: a }, Malformed { detail: b }) => a == b,
            (InvalidConfig { detail: a }, InvalidConfig { detail: b }) => a == b,
            // I/O errors compare by context and OS error kind; the
            // underlying error object itself is not comparable.
            (
                Io {
                    detail: a,
                    source: sa,
                },
                Io {
                    detail: b,
                    source: sb,
                },
            ) => a == b && sa.as_ref().map(|e| e.kind()) == sb.as_ref().map(|e| e.kind()),
            (Interrupted { detail: a }, Interrupted { detail: b }) => a == b,
            (Numerical { detail: a }, Numerical { detail: b }) => a == b,
            (Transport { detail: a }, Transport { detail: b }) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownBuffer { name } => {
                write!(f, "statement references unknown buffer `{name}`")
            }
            RuntimeError::BadAlias { name, target } => {
                write!(f, "buffer `{name}` aliases unknown buffer `{target}`")
            }
            RuntimeError::UnknownExtern { op } => {
                write!(f, "no extern kernel registered for `{op}`")
            }
            RuntimeError::InputShape { buffer, detail } => {
                write!(f, "bad input for buffer `{buffer}`: {detail}")
            }
            RuntimeError::Malformed { detail } => write!(f, "malformed program: {detail}"),
            RuntimeError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            RuntimeError::Io { detail, source } => match source {
                Some(e) => write!(f, "i/o failure: {detail}: {e}"),
                None => write!(f, "i/o failure: {detail}"),
            },
            RuntimeError::Interrupted { detail } => {
                write!(f, "execution interrupted: {detail}")
            }
            RuntimeError::Numerical { detail } => {
                write!(f, "numerical fault: {detail}")
            }
            RuntimeError::Transport { detail } => {
                write!(f, "transport failure: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Io {
                source: Some(e), ..
            } => Some(e.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::UnknownExtern {
            op: "softmax_forward".into(),
        };
        assert!(e.to_string().contains("softmax_forward"));
    }

    #[test]
    fn io_errors_chain_their_source() {
        let os = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        let e = RuntimeError::io("loading checkpoint `w.bin`", os);
        assert!(e.to_string().contains("loading checkpoint"));
        let src = e.source().expect("source present");
        assert!(src.to_string().contains("short read"));
        let plain = RuntimeError::Malformed { detail: "x".into() };
        assert!(plain.source().is_none());
    }

    #[test]
    fn io_errors_compare_by_context_and_kind() {
        let a = RuntimeError::io("x", std::io::Error::new(std::io::ErrorKind::NotFound, "a"));
        let b = RuntimeError::io("x", std::io::Error::new(std::io::ErrorKind::NotFound, "b"));
        let c = RuntimeError::io(
            "x",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "a"),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
