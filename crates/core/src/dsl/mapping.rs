//! Connection mapping functions.
//!
//! A mapping specifies, for every neuron in the sink ensemble, the
//! rectangular region of source-ensemble neurons it consumes — exactly the
//! paper's `mapping` closures (Figure 5). Mappings are ordinary Rust
//! closures; the compiler *classifies* them by evaluating them over the
//! sink index space (`latte-core::analysis`), recovering the affine
//! structure (one-to-one, all-to-all, strided window) that drives buffer
//! sharing, data-copy synthesis, tiling, and fusion.

use std::fmt;
use std::sync::Arc;

/// A half-open range of source indices along one source dimension.
///
/// Ranges may extend past the source extent (negative start or
/// past-the-end stop); out-of-bounds elements read as zero on the forward
/// pass and absorb no gradient on the backward pass — the standard
/// zero-padding semantics of convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRange {
    /// Inclusive start (may be negative).
    pub start: isize,
    /// Exclusive stop.
    pub stop: isize,
}

impl SourceRange {
    /// Creates a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if `stop < start`.
    pub fn new(start: isize, stop: isize) -> Self {
        assert!(stop >= start, "invalid range {start}..{stop}");
        SourceRange { start, stop }
    }

    /// A single index.
    pub fn single(i: isize) -> Self {
        SourceRange::new(i, i + 1)
    }

    /// The number of indices in the range.
    pub fn len(&self) -> usize {
        (self.stop - self.start) as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.stop == self.start
    }
}

impl fmt::Display for SourceRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.stop)
    }
}

/// The rectangular region of source neurons consumed by one sink neuron:
/// one [`SourceRange`] per source dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceRegion {
    /// One range per source-ensemble dimension, outermost first.
    pub ranges: Vec<SourceRange>,
}

impl SourceRegion {
    /// Creates a region from per-dimension ranges.
    pub fn new(ranges: Vec<SourceRange>) -> Self {
        SourceRegion { ranges }
    }

    /// The number of source neurons in the region.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(SourceRange::len).product()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.iter().any(SourceRange::is_empty)
    }

    /// The extent of each dimension.
    pub fn extents(&self) -> Vec<usize> {
        self.ranges.iter().map(SourceRange::len).collect()
    }

    /// The start of each dimension.
    pub fn starts(&self) -> Vec<isize> {
        self.ranges.iter().map(|r| r.start).collect()
    }
}

type MappingFn = Arc<dyn Fn(&[usize]) -> SourceRegion + Send + Sync>;

/// A connection mapping: sink neuron index → consumed source region.
///
/// # Examples
///
/// The paper's convolution mapping (Figure 5), for a sink indexed
/// `(y, x, c)` over a source of shape `(in_h, in_w, in_c)`:
///
/// ```
/// use latte_core::dsl::{Mapping, SourceRange, SourceRegion};
///
/// let (kernel, stride, pad, in_c) = (3isize, 1isize, 1isize, 8isize);
/// let conv = Mapping::new(move |idx| {
///     let in_y = idx[0] as isize * stride - pad;
///     let in_x = idx[1] as isize * stride - pad;
///     SourceRegion::new(vec![
///         SourceRange::new(in_y, in_y + kernel),
///         SourceRange::new(in_x, in_x + kernel),
///         SourceRange::new(0, in_c), // all input channels
///     ])
/// });
/// assert_eq!(conv.eval(&[0, 0, 5]).ranges[0], SourceRange::new(-1, 2));
/// ```
#[derive(Clone)]
pub struct Mapping {
    f: MappingFn,
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mapping(<closure>)")
    }
}

impl Mapping {
    /// Wraps a mapping closure.
    pub fn new(f: impl Fn(&[usize]) -> SourceRegion + Send + Sync + 'static) -> Self {
        Mapping { f: Arc::new(f) }
    }

    /// The identity mapping: sink neuron `(i, j, …)` consumes exactly
    /// source neuron `(i, j, …)`.
    pub fn one_to_one() -> Self {
        Mapping::new(|idx| {
            SourceRegion::new(
                idx.iter()
                    .map(|&i| SourceRange::single(i as isize))
                    .collect(),
            )
        })
    }

    /// Every sink neuron consumes the entire source ensemble of the given
    /// shape (a fully-connected layer's mapping).
    pub fn all_to_all(source_dims: Vec<usize>) -> Self {
        Mapping::new(move |_| {
            SourceRegion::new(
                source_dims
                    .iter()
                    .map(|&d| SourceRange::new(0, d as isize))
                    .collect(),
            )
        })
    }

    /// Evaluates the mapping at a sink index.
    pub fn eval(&self, sink_index: &[usize]) -> SourceRegion {
        (self.f)(sink_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_is_identity() {
        let m = Mapping::one_to_one();
        let r = m.eval(&[3, 7]);
        assert_eq!(
            r.ranges,
            vec![SourceRange::single(3), SourceRange::single(7)]
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn all_to_all_covers_source() {
        let m = Mapping::all_to_all(vec![4, 5]);
        let r = m.eval(&[0]);
        assert_eq!(r.extents(), vec![4, 5]);
        assert_eq!(r.len(), 20);
    }

    #[test]
    fn region_len_and_starts() {
        let r = SourceRegion::new(vec![SourceRange::new(-1, 2), SourceRange::new(0, 3)]);
        assert_eq!(r.len(), 9);
        assert_eq!(r.starts(), vec![-1, 0]);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn reversed_range_rejected() {
        SourceRange::new(3, 1);
    }
}
