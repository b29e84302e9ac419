//! The compiler-correctness harness: every optimization the Latte
//! compiler performs is checked against a slow, obviously-correct oracle.
//!
//! The paper's claim (Truong et al., PLDI 2016, Section 7) is that the
//! aggressive transformations — AoS→SoA rewriting, GEMM pattern-matching,
//! tiling, cross-layer fusion, parallelization — preserve the per-neuron
//! semantics the user wrote. This crate *proves* it for this
//! reproduction, playing the role Caffe/Mocha reference outputs play in
//! the paper's evaluation:
//!
//! * [`interp`] — a tree-walking reference interpreter executing the
//!   synthesized loop nests directly over named buffers, with none of the
//!   executor's lowering, fast paths, hoisting, or threading;
//! * [`diff`] — a differential harness compiling one network under every
//!   meaningful [`latte_core::OptLevel`] combination and comparing every
//!   activation, activation-gradient, and parameter-gradient buffer (plus
//!   the loss) against the interpreter within a tolerance budget,
//!   producing structured [`diff::Mismatch`] reports on divergence;
//! * [`gradcheck`] — a central finite-difference gradient checker
//!   validating the *synthesized backward pass itself* against numeric
//!   derivatives of the forward pass;
//! * [`randnet`] — a seeded random-network generator feeding the
//!   differential harness as property tests.

pub mod diff;
pub mod gradcheck;
pub mod interp;
pub mod randnet;

pub use diff::{
    diff_against_oracle, diff_compiled, standard_configs, DiffError, DiffReport, Mismatch,
    Tolerance,
};
pub use gradcheck::{check_gradients, GradCheckConfig, GradCheckReport, GradMismatch};
pub use interp::Interpreter;
pub use randnet::{random_net, RandomNet};
