//! # latte-runtime
//!
//! The Latte runtime: buffer allocation, kernel lowering ("code
//! generation"), the execution engine, solvers, data pipelines, and the
//! replicated-training machinery of the paper's Section 6 — one ring
//! all-reduce, one distributed trainer. Models of hardware this crate
//! does not run on (the Fig 17 coprocessor, the Fig 18–19 cluster) live
//! in `latte-bench`, beside the figures that use them.
//!
//! * [`Executor`] — lowers a `latte_core::CompiledNet` to native kernels
//!   and runs forward/backward passes over an allocated buffer store.
//! * [`ExecutionPlan`] — the lowered kernel groups of both phases; every
//!   alias class of the compiler's buffer plan is one storage.
//! * [`solver`] — SGD (+momentum, LR policies), RMSProp, AdaGrad,
//!   AdaDelta, the `solve` training loop, and gradient hygiene.
//! * [`data`] — synthetic datasets and the double-buffered input loader.
//! * [`pool`] — the persistent worker pool (the paper's
//!   `schedule(static, 1)` OpenMP team): per-worker GEMM engines,
//!   pool-owned gradient-lane scratch, deterministic static interleaving.
//! * [`cluster`] — `train_replicated`, the serial oracle the
//!   distributed trainer is bit-identical to.
//! * [`frame`] — the shared wire-framing conventions (CRC32-sealed
//!   payloads behind a length prefix) used by both the training
//!   transport and the `latte-serve` network front-end, and the one
//!   bounds-checked byte reader every decoder parses with.
//! * [`transport`] — the real communicator layer: framed, CRC-checked,
//!   deadline-bounded gradient exchange behind the `Transport` trait,
//!   with an in-process channel backend (deterministic tests) and a TCP
//!   backend (true multi-process rings).
//! * [`ring`] — ring all-reduce over a `Transport`: overlapped
//!   reduce-scatter/all-gather with retries, exponential backoff, EWMA
//!   straggler detection, and ring healing into the lossy mode.
//! * [`dist`] — the one replicated trainer: layer-by-layer gradient
//!   streaming into a background comm thread, bit-identical to the
//!   serial oracle in synchronized mode; in-process over
//!   `transport::channel_group`, multi-process over TCP.
//! * [`fault`] — deterministic, seedable fault injection (crashes,
//!   stragglers, transfer drops/corruption, I/O errors, process death,
//!   and the numerical NaN batch / gradient glitch / learning-rate
//!   spike), including `FaultyTransport` to replay fault plans against
//!   the real transport.
//! * [`supervisor`] — the fault-tolerant training loop: periodic atomic
//!   checkpoints, crash detection, and resume-from-checkpoint with a
//!   loss-continuity check; with a `HealthConfig`, also the numerical
//!   guardrails below.
//! * [`health`] — numerical-health guardrails: a NaN/Inf sentinel over
//!   the value buffers after every forward pass, loss-anomaly
//!   classification (non-finite / spike), and the quarantine / LR-cut /
//!   rollback reaction policies the supervisor applies.
//! * [`checkpoint`] — crash-safe (atomic, CRC-verified) checkpoints of
//!   weights, training position and solver state.
//! * [`metrics`] — evaluation helpers and the fault-event counters.
//! * [`registry`] — extern kernels for normalization ensembles.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cluster;
pub mod data;
pub mod dist;
mod elem;
pub mod error;
pub mod fault;
pub mod frame;
pub mod health;
pub mod metrics;
mod exec;
mod lower;
pub mod pool;
pub mod registry;
pub mod ring;
pub mod solver;
mod store;
pub mod supervisor;
mod transfer;
pub mod transport;
pub mod tune;

pub use error::RuntimeError;
pub use exec::{CompiledProgram, ExecConfig, Executor, GradBucket};
pub use lower::ExecutionPlan;
pub use tune::{TuneError, Tuner, TunerStats};
