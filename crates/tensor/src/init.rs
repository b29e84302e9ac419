//! Deterministic parameter initialization schemes.
//!
//! The paper's standard library initializes fully-connected and convolution
//! weights with the Xavier scheme (Glorot & Bengio). All initializers here
//! take an explicit seed so experiments are reproducible run-to-run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;
use crate::Shape;

/// Xavier (Glorot) uniform initialization.
///
/// Samples from `U(-b, b)` with `b = sqrt(3 / fan_in)`, the variant used by
/// Caffe and by the paper's `xavier_init`.
///
/// # Examples
///
/// ```
/// use latte_tensor::init::xavier;
///
/// let w = xavier(vec![10, 20], 10, 42);
/// assert!(w.as_slice().iter().all(|&x| x.abs() <= (3.0f32 / 10.0).sqrt()));
/// ```
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn xavier(shape: impl Into<Shape>, fan_in: usize, seed: u64) -> Tensor {
    assert!(fan_in > 0, "fan_in must be non-zero");
    let bound = (3.0f32 / fan_in as f32).sqrt();
    uniform(shape, -bound, bound, seed)
}

/// Uniform initialization on `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(lo < hi, "empty uniform range [{lo}, {hi})");
    let shape = shape.into();
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let a = xavier(vec![50, 50], 50, 7);
        let b = xavier(vec![50, 50], 50, 7);
        assert_eq!(a, b);
        let bound = (3.0f32 / 50.0).sqrt();
        assert!(a.as_slice().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn different_seeds_differ() {
        let a = xavier(vec![16], 16, 1);
        let b = xavier(vec![16], 16, 2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "fan_in")]
    fn xavier_rejects_zero_fan_in() {
        xavier(vec![2], 0, 0);
    }
}
