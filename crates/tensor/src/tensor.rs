//! A dense, row-major, `f32` tensor.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::shape::Shape;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the single storage type shared by the Latte runtime, the
/// standard-library layers, and the baseline stacks. Deep-learning state in
/// this reproduction is always single precision, as in the paper.
///
/// # Examples
///
/// ```
/// use latte_tensor::Tensor;
///
/// let mut t = Tensor::zeros(vec![2, 3]);
/// t[&[1, 2][..]] = 5.0;
/// assert_eq!(t.sum(), 5.0);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements of
    /// `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Creates a tensor whose elements are produced by `f` applied to each
    /// multi-dimensional index in row-major order.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        for idx in shape.indices() {
            data.push(f(&idx));
        }
        Tensor { shape, data }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: tensors hold at least one element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying data in row-major order, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Extracts the underlying data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into shape {}",
            self.data.len(),
            shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// The sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// The maximum element, or `f32::NEG_INFINITY` for hypothetical empty
    /// data (which cannot occur).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `scale`.
    pub fn scale(&mut self, scale: f32) {
        for a in &mut self.data {
            *a *= scale;
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// The largest absolute difference between two tensors.
    ///
    /// Useful in tests comparing optimized and reference kernels.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f32;

    fn index(&self, index: &[usize]) -> &f32 {
        &self.data[self.shape.offset(index)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, index: usize) -> &f32 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        &mut self.data[index]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{}, {}, {}, ...; {} elements])",
                self.data[0],
                self.data[1],
                self.data[2],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(vec![2, 2]);
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(vec![2, 2], 3.0);
        assert_eq!(f.sum(), 12.0);
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let t = Tensor::from_fn(vec![2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn indexing_reads_and_writes() {
        let mut t = Tensor::zeros(vec![3, 4]);
        t[&[2, 3][..]] = 7.0;
        assert_eq!(t.at(&[2, 3]), 7.0);
        assert_eq!(t[11], 7.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(vec![4], 1.0);
        let b = Tensor::full(vec![4], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0; 4]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![3], vec![1.0, 2.5, 3.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]);
        let r = t.map(|x| x.max(0.0));
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
