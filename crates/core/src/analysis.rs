//! Shared-variable analysis (the paper's Section 5.2).
//!
//! Latte represents the data-flow graph implicitly through mapping
//! functions. This module evaluates a connection's mapping over the sink
//! index space and recovers its structure:
//!
//! * the **class** of the mapping — one-to-one, all-to-all, an affine
//!   window (convolutions, pooling), or irregular (kept as an explicit
//!   adjacency table);
//! * the **shared sink dimensions** — dimensions of the sink ensemble
//!   along which every neuron consumes *identical* inputs, letting the
//!   compiler drop those dimensions from staging buffers and copy loops
//!   ("the compiler compares the adjacency lists of neurons along a
//!   dimension; if this list is uniform ... the neurons along that
//!   dimension can share the same buffer").
//!
//! The closure is treated as a black box, exactly as the Julia
//! implementation treats user mapping functions: we *probe* it to fit an
//! affine model and then *verify* the model on (a sample of) the index
//! space, falling back to an explicit table when verification fails.

use latte_tensor::Shape;

use crate::dsl::{Mapping, SourceRegion};
use crate::error::CompileError;

/// Upper bound on sink sizes for which the affine model is verified
/// exhaustively; larger sinks are verified on a deterministic sample.
const EXHAUSTIVE_VERIFY_LIMIT: usize = 1 << 16;
/// Sample size for sinks above [`EXHAUSTIVE_VERIFY_LIMIT`].
const VERIFY_SAMPLES: usize = 4096;

/// The affine model of a mapping: `start_d = Σ_j coefs[d][j] * sink_j +
/// offsets[d]` with constant per-dimension extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineMap {
    /// `coefs[d][j]` is the coefficient of sink dimension `j` in the start
    /// of source dimension `d`.
    pub coefs: Vec<Vec<i64>>,
    /// The constant start per source dimension.
    pub offsets: Vec<i64>,
}

impl AffineMap {
    /// Evaluates the modeled region start for a sink index.
    pub fn start(&self, sink: &[usize]) -> Vec<i64> {
        self.coefs
            .iter()
            .zip(&self.offsets)
            .map(|(row, &off)| {
                off + row
                    .iter()
                    .zip(sink)
                    .map(|(&c, &s)| c * s as i64)
                    .sum::<i64>()
            })
            .collect()
    }
}

/// Classification of a connection's mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingClass {
    /// Sink neuron `(i…)` consumes exactly source neuron `(i…)`.
    OneToOne,
    /// Every sink neuron consumes the entire source (fully-connected).
    AllToAll,
    /// A strided rectangular window, affine in the sink index
    /// (convolution, pooling).
    Affine(AffineMap),
    /// No affine structure; the explicit region per sink neuron is kept
    /// (in row-major sink order).
    Irregular(Vec<SourceRegion>),
}

/// The result of analyzing one connection.
#[derive(Debug, Clone)]
pub struct ConnAnalysis {
    /// Region extent per source dimension (uniform across sinks).
    pub extents: Vec<usize>,
    /// Number of staged inputs per sink neuron (`extents` product).
    pub region_len: usize,
    /// Structure of the mapping.
    pub class: MappingClass,
    /// Per sink dimension: `true` when the consumed region is independent
    /// of the index along that dimension (inputs shared; buffer dimension
    /// dropped).
    pub shared_sink_dims: Vec<bool>,
}

impl ConnAnalysis {
    /// The consumption stride and halo of the mapping along sink dimension
    /// 0 (the tiled dimension): how many source rows (of the source
    /// dimension driven by sink dim 0) one step of the sink consumes, and
    /// how many *extra* rows beyond the stride its window overlaps.
    ///
    /// Returns `None` when the mapping has no affine dependence on sink
    /// dim 0 (all-to-all, irregular, or shared along dim 0), in which case
    /// the consumer cannot be tiled-fused with its producer.
    pub fn dim0_consumption(&self) -> Option<(usize, usize)> {
        let affine = match &self.class {
            MappingClass::OneToOne => return Some((1, 0)),
            MappingClass::Affine(a) => a,
            _ => return None,
        };
        // Find source dims driven by sink dim 0. For fusion we require
        // exactly one, and it must be source dim 0 (both ensembles keep
        // the tiled dimension outermost).
        let driven: Vec<usize> = affine
            .coefs
            .iter()
            .enumerate()
            .filter(|(_, row)| row.first().copied().unwrap_or(0) != 0)
            .map(|(d, _)| d)
            .collect();
        if driven != [0] {
            return None;
        }
        let stride = affine.coefs[0][0];
        if stride <= 0 {
            return None;
        }
        let stride = stride as usize;
        let halo = self.extents[0].saturating_sub(stride);
        Some((stride, halo))
    }
}

/// Deterministic pseudo-random sink indices for sampled verification.
fn sample_indices(shape: &Shape, n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(n);
    let len = shape.len();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(shape.unravel((state >> 17) as usize % len));
    }
    // Always include the extreme corner.
    out.push(shape.dims().iter().map(|&d| d - 1).collect());
    out
}

/// Analyzes one connection.
///
/// # Errors
///
/// Returns [`CompileError::NonRectangular`] when region sizes differ
/// across sink neurons, and [`CompileError::MappingOutOfRange`] when a
/// region lies entirely outside the source.
pub fn analyze_connection(
    mapping: &Mapping,
    sink_dims: &[usize],
    src_dims: &[usize],
    ensemble: &str,
    connection: usize,
) -> Result<ConnAnalysis, CompileError> {
    let sink_shape = Shape::new(sink_dims.to_vec());
    let origin = vec![0usize; sink_dims.len()];
    let base = mapping.eval(&origin);
    let non_rect = || CompileError::NonRectangular {
        ensemble: ensemble.to_string(),
        connection,
    };
    if base.ranges.len() != src_dims.len() {
        return Err(CompileError::MappingOutOfRange {
            ensemble: ensemble.to_string(),
            connection,
            detail: format!(
                "mapping returns {} ranges for a source of rank {}",
                base.ranges.len(),
                src_dims.len()
            ),
        });
    }
    let extents = base.extents();
    let base_starts = base.starts();

    // Fit the affine model by probing unit steps along each sink dim.
    let mut coefs = vec![vec![0i64; sink_dims.len()]; src_dims.len()];
    let mut affine_candidate = true;
    for (j, &dj) in sink_dims.iter().enumerate() {
        if dj <= 1 {
            continue;
        }
        let mut probe = origin.clone();
        probe[j] = 1;
        let r = mapping.eval(&probe);
        if r.extents() != extents {
            return Err(non_rect());
        }
        for (d, (&s, &b)) in r.starts().iter().zip(&base_starts).enumerate() {
            coefs[d][j] = s as i64 - b as i64;
        }
        // Second probe to catch non-linearity early.
        if dj > 2 {
            let mut probe2 = origin.clone();
            probe2[j] = 2;
            let r2 = mapping.eval(&probe2);
            if r2.extents() != extents {
                return Err(non_rect());
            }
            for (d, (&s, &b)) in r2.starts().iter().zip(&base_starts).enumerate() {
                if s as i64 - b as i64 != 2 * coefs[d][j] {
                    affine_candidate = false;
                }
            }
        }
    }
    let model = AffineMap {
        coefs,
        offsets: base_starts.iter().map(|&s| s as i64).collect(),
    };

    // Verify the model (exhaustively or on a sample).
    let verify_points: Vec<Vec<usize>> = if sink_shape.len() <= EXHAUSTIVE_VERIFY_LIMIT {
        sink_shape.indices().collect()
    } else {
        sample_indices(&sink_shape, VERIFY_SAMPLES)
    };
    let exhaustive = sink_shape.len() <= EXHAUSTIVE_VERIFY_LIMIT;
    if affine_candidate {
        'verify: for idx in &verify_points {
            let r = mapping.eval(idx);
            if r.extents() != extents {
                return Err(non_rect());
            }
            let predicted = model.start(idx);
            for (&p, &a) in predicted.iter().zip(r.starts().iter()) {
                if p != a as i64 {
                    affine_candidate = false;
                    break 'verify;
                }
            }
        }
    }

    let shared_sink_dims: Vec<bool>;
    let class: MappingClass;
    if affine_candidate {
        shared_sink_dims = (0..sink_dims.len())
            .map(|j| model.coefs.iter().all(|row| row[j] == 0))
            .collect();
        // Dimensions of extent 1 are identity regardless of coefficient
        // (the probe never moves along them, so the coefficient is 0).
        let is_identity = sink_dims.len() == src_dims.len()
            && extents.iter().all(|&e| e == 1)
            && model.offsets.iter().all(|&o| o == 0)
            && model.coefs.iter().enumerate().all(|(d, row)| {
                row.iter()
                    .enumerate()
                    .all(|(j, &c)| c == i64::from(d == j) || (sink_dims[j] <= 1 && c == 0))
            });
        let is_all_to_all = shared_sink_dims.iter().all(|&s| s)
            && model.offsets.iter().all(|&o| o == 0)
            && extents.iter().zip(src_dims).all(|(&e, &s)| e == s);
        class = if is_identity {
            MappingClass::OneToOne
        } else if is_all_to_all {
            MappingClass::AllToAll
        } else {
            MappingClass::Affine(model)
        };
    } else {
        // Irregular: materialize the full adjacency (requires exhaustive
        // enumeration; reject absurdly large irregular sinks).
        if !exhaustive {
            return Err(CompileError::NonRectangular {
                ensemble: ensemble.to_string(),
                connection,
            });
        }
        let mut regions = Vec::with_capacity(sink_shape.len());
        for idx in sink_shape.indices() {
            let r = mapping.eval(&idx);
            if r.extents() != extents {
                return Err(non_rect());
            }
            regions.push(r);
        }
        // Uniformity along a dimension still enables sharing: compare the
        // adjacency lists of neighbours along each dim.
        shared_sink_dims = (0..sink_dims.len())
            .map(|j| {
                sink_shape.indices().all(|idx| {
                    if idx[j] == 0 {
                        return true;
                    }
                    let mut prev = idx.clone();
                    prev[j] -= 1;
                    regions[sink_shape.offset(&idx)] == regions[sink_shape.offset(&prev)]
                })
            })
            .collect();
        class = MappingClass::Irregular(regions);
    }

    let region_len: usize = extents.iter().product();
    if region_len == 0 {
        return Err(CompileError::MappingOutOfRange {
            ensemble: ensemble.to_string(),
            connection,
            detail: "mapping produced an empty region".to_string(),
        });
    }
    Ok(ConnAnalysis {
        extents,
        region_len,
        class,
        shared_sink_dims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{Mapping, SourceRange, SourceRegion};

    fn window_mapping(kernel: isize, stride: isize, pad: isize, in_c: isize) -> Mapping {
        Mapping::new(move |idx| {
            let y = idx[0] as isize * stride - pad;
            let x = idx[1] as isize * stride - pad;
            SourceRegion::new(vec![
                SourceRange::new(y, y + kernel),
                SourceRange::new(x, x + kernel),
                SourceRange::new(0, in_c),
            ])
        })
    }

    #[test]
    fn conv_mapping_classified_affine_with_shared_channel_dim() {
        let a = analyze_connection(
            &window_mapping(3, 1, 1, 8),
            &[6, 6, 16], // sink (y, x, c)
            &[6, 6, 8],  // source (y, x, c)
            "conv1",
            0,
        )
        .unwrap();
        assert_eq!(a.extents, vec![3, 3, 8]);
        assert_eq!(a.region_len, 72);
        // Inputs are shared along the output-channel dim (dropped).
        assert_eq!(a.shared_sink_dims, vec![false, false, true]);
        match &a.class {
            MappingClass::Affine(m) => {
                assert_eq!(m.coefs[0], vec![1, 0, 0]);
                assert_eq!(m.coefs[1], vec![0, 1, 0]);
                assert_eq!(m.coefs[2], vec![0, 0, 0]);
                assert_eq!(m.offsets, vec![-1, -1, 0]);
            }
            other => panic!("expected affine, got {other:?}"),
        }
        assert_eq!(a.dim0_consumption(), Some((1, 2)));
    }

    #[test]
    fn pool_mapping_stride_two_no_halo() {
        let pool = Mapping::new(|idx| {
            let (y, x, c) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
            SourceRegion::new(vec![
                SourceRange::new(y * 2, y * 2 + 2),
                SourceRange::new(x * 2, x * 2 + 2),
                SourceRange::single(c),
            ])
        });
        let a = analyze_connection(&pool, &[3, 3, 4], &[6, 6, 4], "pool1", 0).unwrap();
        assert_eq!(a.shared_sink_dims, vec![false, false, false]);
        assert_eq!(a.dim0_consumption(), Some((2, 0)));
    }

    #[test]
    fn one_to_one_detected_from_closure() {
        let a = analyze_connection(&Mapping::one_to_one(), &[4, 5], &[4, 5], "relu1", 0).unwrap();
        assert_eq!(a.class, MappingClass::OneToOne);
        assert_eq!(a.region_len, 1);
        assert_eq!(a.dim0_consumption(), Some((1, 0)));
    }

    #[test]
    fn all_to_all_detected_and_fully_shared() {
        let a =
            analyze_connection(&Mapping::all_to_all(vec![4, 5]), &[10], &[4, 5], "fc1", 0).unwrap();
        assert_eq!(a.class, MappingClass::AllToAll);
        assert_eq!(a.shared_sink_dims, vec![true]);
        assert_eq!(a.region_len, 20);
        assert_eq!(a.dim0_consumption(), None);
    }

    #[test]
    fn irregular_mapping_falls_back_to_table() {
        // A "bit-reversal"-flavoured permutation: not affine.
        let m = Mapping::new(|idx| {
            let i = idx[0];
            let j = (i * 3 + i * i) % 8;
            SourceRegion::new(vec![SourceRange::single(j as isize)])
        });
        let a = analyze_connection(&m, &[8], &[8], "perm", 0).unwrap();
        match &a.class {
            MappingClass::Irregular(regions) => assert_eq!(regions.len(), 8),
            other => panic!("expected irregular, got {other:?}"),
        }
        assert_eq!(a.shared_sink_dims, vec![false]);
        assert_eq!(a.dim0_consumption(), None);
    }

    #[test]
    fn non_rectangular_mapping_rejected() {
        let m =
            Mapping::new(|idx| SourceRegion::new(vec![SourceRange::new(0, 1 + idx[0] as isize)]));
        let err = analyze_connection(&m, &[4], &[8], "tri", 0).unwrap_err();
        assert!(matches!(err, CompileError::NonRectangular { .. }));
    }

    #[test]
    fn wrong_rank_rejected() {
        let m = Mapping::new(|_| SourceRegion::new(vec![SourceRange::single(0)]));
        let err = analyze_connection(&m, &[4], &[8, 8], "bad", 0).unwrap_err();
        assert!(matches!(err, CompileError::MappingOutOfRange { .. }));
    }

    #[test]
    fn strided_fc_like_mapping_shares_only_unused_dims() {
        // Sink (g, n): group g consumes block g of the source, regardless
        // of n — shared along dim 1 only.
        let m = Mapping::new(|idx| {
            let g = idx[0] as isize;
            SourceRegion::new(vec![SourceRange::new(g * 4, g * 4 + 4)])
        });
        let a = analyze_connection(&m, &[2, 6], &[8], "grouped", 0).unwrap();
        assert_eq!(a.shared_sink_dims, vec![false, true]);
        match &a.class {
            MappingClass::Affine(am) => assert_eq!(am.coefs[0], vec![4, 0]),
            other => panic!("expected affine, got {other:?}"),
        }
    }
}
