//! Structured serving errors.
//!
//! Every failure a client can observe is a variant here — the server
//! never panics outward and never queues without bound; overload and
//! replica death surface as data.

use std::fmt;

/// A serving-layer failure, returned from submission or through a
/// [`Ticket`](crate::Ticket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request: the number of admitted but
    /// unfinished requests already equals the configured capacity. This
    /// is the slow-client backpressure path — the queue is bounded, so a
    /// client that stops draining responses sees structured rejection
    /// instead of unbounded memory growth.
    Overloaded {
        /// Admitted-but-unfinished requests at rejection time.
        depth: usize,
        /// The configured admission capacity
        /// ([`ServeConfig::queue_cap`](crate::ServeConfig::queue_cap)).
        capacity: usize,
    },
    /// The server has shut down: a ticket whose server dropped it
    /// unanswered, or a submit that raced shutdown's drain.
    Closed,
    /// The request does not match the model's input signature.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// Model compilation or plan lowering failed.
    Compile {
        /// The underlying compiler/runtime diagnostic.
        detail: String,
    },
    /// Batch execution failed at runtime.
    Execution {
        /// The underlying runtime diagnostic.
        detail: String,
    },
    /// The request's micro-batch died with a replica and the retry
    /// budget is exhausted: it was retried `retries` times, each attempt
    /// landing on a replica that crashed mid-batch.
    ReplicaFailed {
        /// The last crash's diagnostic.
        detail: String,
        /// Retry attempts consumed before giving up.
        retries: u32,
    },
    /// A bounded [`Ticket::wait_timeout`](crate::Ticket::wait_timeout)
    /// expired before the response arrived.
    WaitTimeout,
    /// The request's client-supplied deadline had already passed — at
    /// admission (the request never occupied a queue slot) or at batch
    /// flush (the request was shed before execution). Either way the
    /// work was never run: a caller that can no longer use the answer
    /// must not cost the server a batch slot.
    DeadlineExceeded {
        /// How far past the deadline the request was when rejected/shed.
        late_by: std::time::Duration,
    },
    /// The server is draining for graceful shutdown: admission is
    /// stopped, but every previously admitted request will still be
    /// answered before the server exits.
    Draining,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "overloaded: {depth} requests in flight (capacity {capacity})"
                )
            }
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Compile { detail } => write!(f, "model compilation failed: {detail}"),
            ServeError::Execution { detail } => write!(f, "batch execution failed: {detail}"),
            ServeError::ReplicaFailed { detail, retries } => {
                write!(f, "replica failed after {retries} retries: {detail}")
            }
            ServeError::WaitTimeout => write!(f, "timed out waiting for a response"),
            ServeError::DeadlineExceeded { late_by } => {
                write!(f, "request deadline exceeded ({late_by:?} late)")
            }
            ServeError::Draining => write!(f, "server is draining for shutdown"),
        }
    }
}

impl std::error::Error for ServeError {}
