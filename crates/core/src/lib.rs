//! # latte-core
//!
//! The Latte language and compiler — the primary contribution of
//! *"Latte: A Language, Compiler, and Runtime for Elegant and Efficient
//! Deep Neural Networks"* (PLDI 2016), reproduced in Rust.
//!
//! * [`dsl`] — the language: neurons, ensembles, connections, networks.
//! * [`analysis`] — shared-variable analysis over mapping functions.
//! * [`synth`] — program synthesis: data copies + SoA compute nests.
//! * [`opt`] — GEMM pattern matching, loop tiling, cross-layer fusion,
//!   parallelization.
//! * `program` — the compiled program ([`CompiledNet`]) handed to
//!   `latte-runtime`.
//!
//! The entry point is [`compile`]:
//!
//! ```
//! use latte_core::{compile, OptLevel};
//! use latte_core::dsl::{Ensemble, Mapping, Net};
//! use latte_core::dsl::stdlib::weighted_neuron;
//! use latte_tensor::{init, Tensor};
//!
//! let mut net = Net::new(4);
//! let data = net.add(Ensemble::data("data", vec![8]));
//! let fc = net.add(
//!     Ensemble::new("fc1", vec![2], weighted_neuron())
//!         .with_field("weights", vec![false], init::xavier(vec![2, 8], 8, 0))
//!         .with_field("bias", vec![false], Tensor::zeros(vec![2, 1]))
//!         .with_param("weights", 1.0)
//!         .with_param("bias", 2.0),
//! );
//! net.connect(data, fc, Mapping::all_to_all(vec![8]));
//! let compiled = compile(&net, &OptLevel::full())?;
//! assert_eq!(compiled.forward.len(), 1);
//! # Ok::<(), latte_core::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod compile;
pub mod dsl;
mod error;
pub mod names;
pub mod opt;
mod program;
pub mod synth;

pub use compile::{compile, OptLevel};
pub use error::CompileError;
pub use program::{
    render_program, CompileStats, CompiledNet, Group, GroupMeta, InputBinding, ParamBinding,
    PassStat, Phase, Upstream,
};
