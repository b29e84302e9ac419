//! Convolution and pooling primitives: im2col/col2im, a direct-loop
//! convolution used as the correctness oracle, and max/mean pooling.
//!
//! Layout convention throughout the workspace: a single image is `C x H x W`
//! row-major (channel outermost); batches store images contiguously.

use crate::tensor::Tensor;

/// Static parameters of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (filters). Ignored by pooling.
    pub out_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl Conv2dParams {
    /// Output height after the window sweep.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn out_height(&self) -> usize {
        out_extent(self.height, self.kernel, self.stride, self.pad)
    }

    /// Output width after the window sweep.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn out_width(&self) -> usize {
        out_extent(self.width, self.kernel, self.stride, self.pad)
    }

    /// Number of elements in one output channel plane.
    pub fn out_plane(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// `in_channels * kernel * kernel`, the patch length of im2col.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

fn out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(
        kernel > 0 && stride > 0,
        "kernel and stride must be non-zero"
    );
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "window of extent {kernel} does not fit input of padded extent {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Unfolds image patches into a `patch_len x (out_h * out_w)` column matrix.
///
/// `input` is one `C x H x W` image; `cols` must have length
/// `p.patch_len() * p.out_plane()`. Out-of-bounds (padding) taps contribute
/// zero. This is the classic lowering used by Caffe-style convolution; in
/// Latte the equivalent data movement is *synthesized* from the connection
/// structure (see `latte-core::synth`), and this routine doubles as its test
/// oracle.
///
/// # Panics
///
/// Panics if the slice lengths do not match `p`.
pub fn im2col(p: &Conv2dParams, input: &[f32], cols: &mut [f32]) {
    assert_eq!(
        input.len(),
        p.in_channels * p.height * p.width,
        "input length mismatch"
    );
    assert_eq!(
        cols.len(),
        p.patch_len() * p.out_plane(),
        "cols length mismatch"
    );
    let (oh, ow) = (p.out_height(), p.out_width());
    let plane = oh * ow;
    let mut row = 0;
    for c in 0..p.in_channels {
        for ky in 0..p.kernel {
            for kx in 0..p.kernel {
                let base = row * plane;
                row += 1;
                for oy in 0..oh {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                        let v = if iy >= 0
                            && iy < p.height as isize
                            && ix >= 0
                            && ix < p.width as isize
                        {
                            input[c * p.height * p.width + iy as usize * p.width + ix as usize]
                        } else {
                            0.0
                        };
                        cols[base + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
}

/// Folds a column matrix back into an image, accumulating overlapping taps.
///
/// Adjoint of [`im2col`]; used by the baselines' convolution backward pass to
/// scatter input gradients. `image` is accumulated into (callers zero it
/// first when appropriate).
///
/// # Panics
///
/// Panics if the slice lengths do not match `p`.
pub fn col2im(p: &Conv2dParams, cols: &[f32], image: &mut [f32]) {
    assert_eq!(
        image.len(),
        p.in_channels * p.height * p.width,
        "image length mismatch"
    );
    assert_eq!(
        cols.len(),
        p.patch_len() * p.out_plane(),
        "cols length mismatch"
    );
    let (oh, ow) = (p.out_height(), p.out_width());
    let plane = oh * ow;
    let mut row = 0;
    for c in 0..p.in_channels {
        for ky in 0..p.kernel {
            for kx in 0..p.kernel {
                let base = row * plane;
                row += 1;
                for oy in 0..oh {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    if iy < 0 || iy >= p.height as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                        if ix < 0 || ix >= p.width as isize {
                            continue;
                        }
                        image[c * p.height * p.width + iy as usize * p.width + ix as usize] +=
                            cols[base + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Direct-loop 2-D convolution over one image: the correctness oracle.
///
/// `weights` is `out_c x in_c x k x k`, `bias` is `out_c` (pass an empty
/// slice to skip bias), `output` is `out_c x out_h x out_w` and is
/// overwritten.
///
/// # Panics
///
/// Panics if the slice lengths do not match `p`.
pub fn conv2d_reference(
    p: &Conv2dParams,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    output: &mut [f32],
) {
    assert_eq!(
        weights.len(),
        p.out_channels * p.patch_len(),
        "weights length"
    );
    assert!(
        bias.is_empty() || bias.len() == p.out_channels,
        "bias length"
    );
    let (oh, ow) = (p.out_height(), p.out_width());
    assert_eq!(output.len(), p.out_channels * oh * ow, "output length");
    for oc in 0..p.out_channels {
        let b = if bias.is_empty() { 0.0 } else { bias[oc] };
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
                for ic in 0..p.in_channels {
                    for ky in 0..p.kernel {
                        let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                        if iy < 0 || iy >= p.height as isize {
                            continue;
                        }
                        for kx in 0..p.kernel {
                            let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                            if ix < 0 || ix >= p.width as isize {
                                continue;
                            }
                            acc += input
                                [ic * p.height * p.width + iy as usize * p.width + ix as usize]
                                * weights[oc * p.patch_len()
                                    + ic * p.kernel * p.kernel
                                    + ky * p.kernel
                                    + kx];
                        }
                    }
                }
                output[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
}

/// Max pooling over one `C x H x W` image.
///
/// Writes the pooled values to `output` (`C x out_h x out_w`) and, when
/// `argmax` is non-empty, the flat input offset of each selected element —
/// needed by the backward pass.
///
/// # Panics
///
/// Panics if the slice lengths do not match `p` (with
/// `p.out_channels == p.in_channels`).
pub fn maxpool2d(p: &Conv2dParams, input: &[f32], output: &mut [f32], argmax: &mut [usize]) {
    let (oh, ow) = (p.out_height(), p.out_width());
    assert_eq!(input.len(), p.in_channels * p.height * p.width);
    assert_eq!(output.len(), p.in_channels * oh * ow);
    assert!(argmax.is_empty() || argmax.len() == output.len());
    for c in 0..p.in_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0;
                for ky in 0..p.kernel {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    if iy < 0 || iy >= p.height as isize {
                        continue;
                    }
                    for kx in 0..p.kernel {
                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                        if ix < 0 || ix >= p.width as isize {
                            continue;
                        }
                        let off = c * p.height * p.width + iy as usize * p.width + ix as usize;
                        if input[off] > best {
                            best = input[off];
                            best_off = off;
                        }
                    }
                }
                let o = c * oh * ow + oy * ow + ox;
                output[o] = best;
                if !argmax.is_empty() {
                    argmax[o] = best_off;
                }
            }
        }
    }
}

/// Convenience wrapper running [`conv2d_reference`] over a batch [`Tensor`].
///
/// `input` is `N x C x H x W`; returns `N x out_c x out_h x out_w`.
///
/// # Panics
///
/// Panics if tensor shapes do not match `p`.
pub fn conv2d_batch_reference(
    p: &Conv2dParams,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Tensor {
    let n = input.shape().dim(0);
    let (oh, ow) = (p.out_height(), p.out_width());
    let mut out = Tensor::zeros(vec![n, p.out_channels, oh, ow]);
    let in_sz = p.in_channels * p.height * p.width;
    let out_sz = p.out_channels * oh * ow;
    for i in 0..n {
        conv2d_reference(
            p,
            &input.as_slice()[i * in_sz..(i + 1) * in_sz],
            weights.as_slice(),
            bias.as_slice(),
            &mut out.as_mut_slice()[i * out_sz..(i + 1) * out_sz],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, Transpose};

    fn params() -> Conv2dParams {
        Conv2dParams {
            in_channels: 2,
            out_channels: 3,
            height: 5,
            width: 5,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i % 13) as f32 - 6.0).collect()
    }

    #[test]
    fn out_extent_formulas() {
        let p = params();
        assert_eq!(p.out_height(), 5);
        assert_eq!(p.out_width(), 5);
        let p2 = Conv2dParams {
            kernel: 2,
            stride: 2,
            pad: 0,
            ..p
        };
        assert_eq!(p2.out_height(), 2); // floor((5-2)/2)+1
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let p = params();
        let input = ramp(p.in_channels * p.height * p.width);
        let weights = ramp(p.out_channels * p.patch_len());
        let mut direct = vec![0.0; p.out_channels * p.out_plane()];
        conv2d_reference(&p, &input, &weights, &[], &mut direct);

        let mut cols = vec![0.0; p.patch_len() * p.out_plane()];
        im2col(&p, &input, &mut cols);
        let mut via_gemm = vec![0.0; p.out_channels * p.out_plane()];
        gemm_naive(
            Transpose::No,
            Transpose::No,
            p.out_channels,
            p.out_plane(),
            p.patch_len(),
            &weights,
            &cols,
            &mut via_gemm,
        );
        for (a, b) in direct.iter().zip(&via_gemm) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let p = params();
        let x = ramp(p.in_channels * p.height * p.width);
        let y: Vec<f32> = (0..p.patch_len() * p.out_plane())
            .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
            .collect();
        let mut cols = vec![0.0; y.len()];
        im2col(&p, &x, &mut cols);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut img = vec![0.0; x.len()];
        col2im(&p, &y, &mut img);
        let rhs: f32 = x.iter().zip(&img).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn maxpool_picks_maximum_and_argmax() {
        let p = Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 4,
            width: 4,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut out = vec![0.0; 4];
        let mut arg = vec![0; 4];
        maxpool2d(&p, &input, &mut out, &mut arg);
        assert_eq!(out, vec![5.0, 7.0, 13.0, 15.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn conv_bias_is_added() {
        let p = Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 2,
            width: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let weights = vec![2.0];
        let bias = vec![10.0];
        let mut out = vec![0.0; 4];
        conv2d_reference(&p, &input, &weights, &bias, &mut out);
        assert_eq!(out, vec![12.0, 14.0, 16.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_rejected() {
        let p = Conv2dParams {
            in_channels: 1,
            out_channels: 1,
            height: 2,
            width: 2,
            kernel: 5,
            stride: 1,
            pad: 0,
        };
        p.out_height();
    }
}
