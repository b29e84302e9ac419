//! # latte-serve
//!
//! A dynamic-batching inference server over the Latte runtime.
//!
//! Latte's compiler amortizes its work across a whole batch — but an
//! inference service receives *single samples*. This crate bridges the
//! two: requests are coalesced into micro-batches (flushed on size or
//! deadline, whichever comes first), executed on a supervised pool of
//! replicas, each holding one [`Executor`](latte_runtime::Executor) sized
//! to the largest batch it has seen. A model is compiled once and
//! lowered once; every micro-batch size's handle on that plan is cached
//! by `(net fingerprint, batch)` so tail batches build nothing.
//!
//! * [`Model`] — one compiled program (the factory's batch-1 net) plus
//!   the request signature read off it.
//! * [`Batcher`] — the pure, clock-parametric size-or-deadline
//!   coalescer.
//! * [`PlanCache`] — lowered [`CompiledProgram`](latte_runtime::CompiledProgram)s
//!   keyed by `(fingerprint, batch)`, with hit/miss counters.
//! * [`Server`] — bounded admission, replica threads that take flushed
//!   batches straight from the batcher's lock, crash supervision with
//!   bounded retries, per-request [`Ticket`]s.
//! * [`SeqModel`] / [`SeqServer`] — dynamic shapes: variable-length
//!   requests padded into a power-of-two bucket ladder (one server per
//!   bucket over one shared plan cache), with bucket-spill
//!   accounting — odd lengths and tail batches build nothing after the
//!   ladder is warm.
//! * [`net`] — the fault-hardened framed-TCP front-end: versioned
//!   handshake, CRC-sealed frames, wire deadlines, slow-loris timeouts,
//!   bounded reply backpressure, and graceful drain (the `latte-served`
//!   binary wraps it).
//! * [`loadgen`] — the seeded adversarial-client vocabulary
//!   ([`loadgen::Misbehavior`]) for reproducible chaos runs.
//! * [`zoo`] — demo models the binary and the tests
//!   serve out of the box.
//!
//! The serving guarantee the test suite pins down: a sample served in
//! *any* micro-batch is **bit-identical** to the same sample run alone
//! through a plain executor — batching is a scheduling decision, never
//! a numerics decision.

#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod error;
pub mod loadgen;
pub mod model;
pub mod net;
pub mod replica;
pub mod seq;
pub mod server;
pub mod zoo;

pub use batcher::{Batcher, FlushReason};
pub use cache::PlanCache;
pub use error::ServeError;
pub use loadgen::Misbehavior;
pub use model::{Model, NetFactory};
pub use net::{Client, HealthReport, NetConfig, NetError, NetFrontend, NetReply, WireError};
pub use replica::{BatchAction, BatchEngine, FaultHooks, GateHooks, NoHooks, ReplicaHooks};
pub use seq::{Route, SeqModel, SeqNetFactory, SeqRequest, SeqServer, SeqTicket};
pub use server::{ReplyMeta, Request, Response, ServeConfig, Server, StatsSnapshot, Ticket};
