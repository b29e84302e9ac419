//! # latte-tensor
//!
//! Dense-tensor substrate for the Latte workspace: shapes, `f32` tensors,
//! deterministic initializers, the one multiply-accumulate rule ([`mac`]),
//! a GEMM at fixed block sizes (the stand-in for MKL's `sgemm` that both
//! Latte and the Caffe-style baseline call: one dispatch over four
//! kernels, each bit for bit [`mac`] in ascending `k`, see [`gemm`]), and
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

/// The one multiply-accumulate rule: `dest += x * y` is `x * y + dest`
/// rounded once, a fused multiply-add. The IR's product-accumulating
/// assignment means this, and every GEMM kernel, element program and the
/// reference interpreter compute it so (or by an instruction with its
/// bits), so a result depends only on the program and its inputs: not on
/// the ISA, the block sizes, the thread count or an optimization pass.
#[inline(always)]
pub fn mac(dest: f32, x: f32, y: f32) -> f32 {
    x.mul_add(y, dest)
}

/// Whether the host has AVX2 and FMA (x86-64 only): the one test that
/// picks the `vfmadd` copies of [`mac`]'s callers, asked by
/// [`gemm::Gemm::new`] and once per element program when it is built.
pub fn detect_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
