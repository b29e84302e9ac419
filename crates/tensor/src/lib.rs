//! # latte-tensor
//!
//! Dense-tensor substrate for the Latte workspace: shapes, `f32` tensors,
//! deterministic initializers, a GEMM at fixed block sizes (the stand-in
//! for MKL's `sgemm` that both Latte and the Caffe-style baseline call:
//! one dispatch over four kernels, each pinned bit for bit to its
//! contract, see [`gemm`]), and
//! convolution/pooling primitives used by the baselines and as test oracles.
//!
//! This crate deliberately knows nothing about neurons, ensembles, or the
//! compiler — it is the numeric floor everything else stands on.
//!
//! # Examples
//!
//! ```
//! use latte_tensor::{Tensor, gemm::{Gemm, Transpose}};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
//! let mut c = Tensor::zeros(vec![2, 2]);
//! Gemm::new().compute(
//!     Transpose::No, Transpose::No, 2, 2, 3,
//!     a.as_slice(), b.as_slice(), c.as_mut_slice(),
//! );
//! assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
//! ```

#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
pub mod init;
mod shape;
mod tensor;

pub use shape::{Indices, Shape};
pub use tensor::Tensor;
