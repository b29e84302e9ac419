//! # latte
//!
//! Facade crate for the Latte workspace — a Rust reproduction of
//! *"Latte: A Language, Compiler, and Runtime for Elegant and Efficient
//! Deep Neural Networks"* (Truong et al., PLDI 2016).
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single crate. See the individual crates
//! for the full API:
//!
//! * [`tensor`] — dense tensors, GEMM, convolution primitives.
//! * [`ir`] — the compiler's expression and loop-nest IR.
//! * [`core`] — the DSL (neurons, ensembles, connections) and compiler.
//! * [`runtime`] — executor, solvers, checkpoints, the ring all-reduce and
//!   the distributed trainer.
//! * [`nn`] — the standard library of layers and model zoo.
//! * [`baselines`] — Caffe-style and Mocha-style reference stacks.

pub use latte_baselines as baselines;
pub use latte_core as core;
pub use latte_ir as ir;
pub use latte_nn as nn;
pub use latte_runtime as runtime;
pub use latte_tensor as tensor;
