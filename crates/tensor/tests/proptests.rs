//! Property-based tests for the tensor substrate.

use latte_tensor::conv::{col2im, conv2d_reference, im2col, maxpool2d, Conv2dParams};
use latte_tensor::gemm::{gemm_naive, Gemm, Transpose};
use latte_tensor::Shape;
use proptest::prelude::*;

fn transpose() -> impl Strategy<Value = Transpose> {
    prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked GEMM agrees with the naive reference bit for bit for
    /// arbitrary shapes and transposes.
    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..20,
        ta in transpose(),
        tb in transpose(),
        seed in 0u32..1000,
    ) {
        let fill = |len: usize, salt: u32| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let h = (i as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed)
                        .wrapping_add(salt);
                    (h % 19) as f32 - 9.0
                })
                .collect()
        };
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c_ref = fill(m * n, 3);
        let mut c_blk = c_ref.clone();
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c_ref);
        Gemm::new().compute(ta, tb, m, n, k, &a, &b, &mut c_blk);
        for (r, o) in c_ref.iter().zip(&c_blk) {
            prop_assert!(r.to_bits() == o.to_bits() || (r.is_nan() && o.is_nan()), "{} vs {}", r, o);
        }
    }

    /// `<im2col(x), y> == <x, col2im(y)>`: col2im is the adjoint of im2col.
    #[test]
    fn col2im_adjoint_of_im2col(
        c in 1usize..3,
        h in 3usize..8,
        w in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let p = Conv2dParams {
            in_channels: c, out_channels: 1,
            height: h, width: w, kernel, stride, pad,
        };
        let fill = |len: usize, salt: u32| -> Vec<f32> {
            (0..len)
                .map(|i| ((i as u32).wrapping_mul(97).wrapping_add(seed + salt) % 13) as f32 - 6.0)
                .collect()
        };
        let x = fill(c * h * w, 0);
        let y = fill(p.patch_len() * p.out_plane(), 7);
        let mut cols = vec![0.0; y.len()];
        im2col(&p, &x, &mut cols);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut img = vec![0.0; x.len()];
        col2im(&p, &y, &mut img);
        let rhs: f32 = x.iter().zip(&img).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-2 * lhs.abs().max(1.0));
    }

    /// Convolution lowered through im2col + GEMM equals the direct loop for
    /// arbitrary parameters — the identity Latte's synthesis + pattern
    /// matching relies on.
    #[test]
    fn lowered_conv_equals_direct(
        ic in 1usize..3,
        oc in 1usize..4,
        h in 3usize..8,
        w in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let p = Conv2dParams {
            in_channels: ic, out_channels: oc,
            height: h, width: w, kernel, stride, pad,
        };
        let fill = |len: usize, salt: u32| -> Vec<f32> {
            (0..len)
                .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(seed + salt) % 9) as f32 - 4.0)
                .collect()
        };
        let input = fill(ic * h * w, 0);
        let weights = fill(oc * p.patch_len(), 5);
        let mut direct = vec![0.0; oc * p.out_plane()];
        conv2d_reference(&p, &input, &weights, &[], &mut direct);
        let mut cols = vec![0.0; p.patch_len() * p.out_plane()];
        im2col(&p, &input, &mut cols);
        let mut lowered = vec![0.0; direct.len()];
        Gemm::new().compute(
            Transpose::No, Transpose::No,
            oc, p.out_plane(), p.patch_len(),
            &weights, &cols, &mut lowered,
        );
        for (a, b) in direct.iter().zip(&lowered) {
            prop_assert!((a - b).abs() <= 1e-2 * a.abs().max(1.0), "{} vs {}", a, b);
        }
    }

    /// Max pooling output is the max of its window and argmax points at it.
    #[test]
    fn maxpool_invariants(
        c in 1usize..3,
        h in 2usize..8,
        w in 2usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        seed in 0u32..1000,
    ) {
        prop_assume!(h >= kernel && w >= kernel);
        let p = Conv2dParams {
            in_channels: c, out_channels: c,
            height: h, width: w, kernel, stride, pad: 0,
        };
        let input: Vec<f32> = (0..c * h * w)
            .map(|i| ((i as u32).wrapping_mul(1103515245).wrapping_add(seed) % 101) as f32)
            .collect();
        let mut out = vec![0.0; c * p.out_plane()];
        let mut arg = vec![0usize; out.len()];
        maxpool2d(&p, &input, &mut out, &mut arg);
        for (o, &a) in out.iter().zip(&arg) {
            prop_assert_eq!(*o, input[a]);
        }
        // Every output is >= every element of its own window.
        let (oh, ow) = (p.out_height(), p.out_width());
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = out[ch * oh * ow + oy * ow + ox];
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            if iy < h && ix < w {
                                prop_assert!(o >= input[ch * h * w + iy * w + ix]);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Flat offsets and multi-dimensional indices are mutually inverse.
    #[test]
    fn shape_offset_unravel_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let s = Shape::new(dims);
        for flat in 0..s.len() {
            let idx = s.unravel(flat);
            prop_assert_eq!(s.offset(&idx), flat);
        }
    }
}
