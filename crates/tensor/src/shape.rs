//! Shapes and row-major index arithmetic for dense tensors.

use std::fmt;

/// The shape of a dense, row-major tensor.
///
/// A `Shape` records the extent of each dimension. Strides are always the
/// contiguous row-major strides for those extents; Latte's compiler reasons
/// about buffer sharing at a higher level (dimension *dropping*) rather than
/// through general strided views, so keeping shapes contiguous keeps every
/// downstream kernel simple and fast.
///
/// # Examples
///
/// ```
/// use latte_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), &[12, 4, 1]);
/// assert_eq!(s.offset(&[1, 2, 3]), 23);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// A zero-dimensional shape (`vec![]`) describes a scalar with one
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape extents must be non-zero, got {dims:?}"
        );
        let strides = contiguous_strides(&dims);
        Shape { dims, strides }
    }

    /// The extents of each dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The row-major strides of each dimension.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// The number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds no... never: shapes always hold at least one
    /// element, so this is always `false`. Provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// The linear (flat) offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut off = 0;
        for (axis, (&i, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} of extent {d}"
            );
            off += i * self.strides[axis];
        }
        off
    }

    /// The multi-dimensional index corresponding to a flat offset.
    ///
    /// Inverse of [`Shape::offset`] for contiguous shapes.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= self.len()`.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        assert!(offset < self.len(), "offset {offset} out of bounds");
        let mut index = vec![0; self.dims.len()];
        for (slot, &stride) in index.iter_mut().zip(&self.strides) {
            *slot = offset / stride;
            offset %= stride;
        }
        index
    }

    /// Iterates over every multi-dimensional index in row-major order.
    pub fn indices(&self) -> Indices<'_> {
        Indices {
            shape: self,
            next: Some(vec![0; self.dims.len()]),
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

/// Iterator over all indices of a [`Shape`] in row-major order.
///
/// Produced by [`Shape::indices`].
#[derive(Debug)]
pub struct Indices<'a> {
    shape: &'a Shape,
    next: Option<Vec<usize>>,
}

impl Iterator for Indices<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        let mut axis = self.shape.rank();
        loop {
            if axis == 0 {
                self.next = None;
                break;
            }
            axis -= 1;
            succ[axis] += 1;
            if succ[axis] < self.shape.dims[axis] {
                self.next = Some(succ);
                break;
            }
            succ[axis] = 0;
        }
        Some(current)
    }
}

fn contiguous_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; dims.len()];
    for axis in (0..dims.len().saturating_sub(1)).rev() {
        strides[axis] = strides[axis + 1] * dims[axis + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(vec![3, 5, 7]);
        for flat in 0..s.len() {
            let idx = s.unravel(flat);
            assert_eq!(s.offset(&idx), flat);
        }
    }

    #[test]
    fn indices_cover_all_in_order() {
        let s = Shape::new(vec![2, 3]);
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        Shape::new(vec![2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        Shape::new(vec![2, 0]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(vec![3, 224, 224]).to_string(), "3x224x224");
    }
}
