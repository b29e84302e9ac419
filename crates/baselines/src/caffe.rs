//! The Caffe-style baseline: a static, layer-specific library.
//!
//! Convolution is lowered through im2col + GEMM per image (Caffe's
//! `conv_layer.cpp`), fully-connected layers are whole-batch GEMMs, and
//! every layer executes independently over its own blobs — no tiling, no
//! cross-layer fusion, exactly the architectural profile the paper
//! compares against. It shares the blocked GEMM in `latte-tensor` with
//! the Latte runtime, mirroring the paper's setup where both systems call
//! MKL.

use latte_tensor::conv::{col2im, im2col, maxpool2d, Conv2dParams};
use latte_tensor::gemm::{Gemm, Transpose};
use latte_tensor::init;

use crate::net::{Backend, Blob, Layer, SequentialNet};
use crate::spec::{BlobShape, LayerSpec};

/// Marker type implementing [`Backend`] for the Caffe-style stack.
#[derive(Debug, Clone, Copy)]
pub struct CaffeBackend;

/// Builds a Caffe-style network.
pub fn build(input: BlobShape, batch: usize, specs: &[LayerSpec], seed: u64) -> SequentialNet {
    SequentialNet::build::<CaffeBackend>(input, batch, specs, seed)
}

impl Backend for CaffeBackend {
    fn build(spec: &LayerSpec, input: BlobShape, seed: u64) -> Box<dyn Layer> {
        match *spec {
            LayerSpec::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => Box::new(ConvLayer::new(
                input,
                out_channels,
                kernel,
                stride,
                pad,
                seed,
            )),
            LayerSpec::ReLU => Box::new(ReluLayer),
            LayerSpec::MaxPool { kernel, stride } => {
                Box::new(MaxPoolLayer::new(input, kernel, stride))
            }
            LayerSpec::Lrn { size, alpha, beta } => Box::new(LrnLayer {
                size,
                alpha,
                beta,
                scale: Vec::new(),
            }),
            LayerSpec::Fc { out } => Box::new(FcLayer::new(input, out, seed)),
            LayerSpec::SoftmaxLoss => Box::new(SoftmaxLossLayer {
                labels: Vec::new(),
                prob: Vec::new(),
            }),
        }
    }
}

/// im2col + GEMM convolution.
pub struct ConvLayer {
    p: Conv2dParams,
    /// `(out_c, in_c * k * k)` row-major.
    pub weights: Vec<f32>,
    /// Per output channel.
    pub bias: Vec<f32>,
    g_weights: Vec<f32>,
    g_bias: Vec<f32>,
    cols: Vec<f32>,
    gemm: Gemm,
}

impl ConvLayer {
    fn new(
        input: BlobShape,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let p = Conv2dParams {
            in_channels: input.0,
            out_channels,
            height: input.1,
            width: input.2,
            kernel,
            stride,
            pad,
        };
        let fan_in = p.patch_len();
        let weights = init::xavier(vec![out_channels, fan_in], fan_in, seed).into_vec();
        ConvLayer {
            p,
            g_weights: vec![0.0; weights.len()],
            weights,
            bias: vec![0.0; out_channels],
            g_bias: vec![0.0; out_channels],
            cols: Vec::new(),
            gemm: Gemm::new(),
        }
    }
}

impl Layer for ConvLayer {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let p = self.p;
        let in_sz = bottom.per_item();
        let out_sz = top.per_item();
        let (oc, plane, k) = (p.out_channels, p.out_plane(), p.patch_len());
        self.cols.resize(k * plane, 0.0);
        for item in 0..batch {
            let x = &bottom.data[item * in_sz..(item + 1) * in_sz];
            let y = &mut top.data[item * out_sz..(item + 1) * out_sz];
            im2col(&p, x, &mut self.cols);
            // y(oc x plane) = W(oc x k) * cols(k x plane) + bias.
            for (c, chunk) in y.chunks_mut(plane).enumerate() {
                chunk.fill(self.bias[c]);
            }
            self.gemm.compute(
                Transpose::No,
                Transpose::No,
                oc,
                plane,
                k,
                &self.weights,
                &self.cols,
                y,
            );
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        let p = self.p;
        let in_sz = bottom.per_item();
        let out_sz = top.per_item();
        let (oc, plane, k) = (p.out_channels, p.out_plane(), p.patch_len());
        self.cols.resize(k * plane, 0.0);
        let mut gcols = vec![0.0f32; k * plane];
        for item in 0..batch {
            let g = &top.grad[item * out_sz..(item + 1) * out_sz];
            let x = &bottom.data[item * in_sz..(item + 1) * in_sz];
            // Weight gradient: gW(oc x k) += g(oc x plane) * cols(k x plane)^T.
            im2col(&p, x, &mut self.cols);
            self.gemm.compute(
                Transpose::No,
                Transpose::Yes,
                oc,
                k,
                plane,
                g,
                &self.cols,
                &mut self.g_weights,
            );
            for (c, chunk) in g.chunks(plane).enumerate() {
                self.g_bias[c] += chunk.iter().sum::<f32>();
            }
            // Data gradient: gcols(k x plane) = W^T * g, then col2im.
            gcols.fill(0.0);
            self.gemm.compute(
                Transpose::Yes,
                Transpose::No,
                k,
                plane,
                oc,
                &self.weights,
                g,
                &mut gcols,
            );
            col2im(
                &p,
                &gcols,
                &mut bottom.grad[item * in_sz..(item + 1) * in_sz],
            );
        }
    }

    fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self.weights.iter_mut().zip(&mut self.g_weights) {
            *w -= lr * *g;
            *g = 0.0;
        }
        for (b, g) in self.bias.iter_mut().zip(&mut self.g_bias) {
            *b -= lr * *g;
            *g = 0.0;
        }
    }

    fn params_mut(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        vec![
            (&mut self.weights, &mut self.g_weights),
            (&mut self.bias, &mut self.g_bias),
        ]
    }

    fn label(&self) -> String {
        format!(
            "conv{}x{}/{}",
            self.p.kernel, self.p.kernel, self.p.out_channels
        )
    }
}

/// Element-wise ReLU.
pub struct ReluLayer;

impl Layer for ReluLayer {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, _batch: usize) {
        for (t, &b) in top.data.iter_mut().zip(&bottom.data) {
            *t = b.max(0.0);
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, _batch: usize) {
        for ((bg, &t), &tg) in bottom.grad.iter_mut().zip(&top.data).zip(&top.grad) {
            *bg = if t > 0.0 { tg } else { 0.0 };
        }
    }

    fn label(&self) -> String {
        "relu".to_string()
    }
}

/// Max pooling with remembered argmax.
pub struct MaxPoolLayer {
    p: Conv2dParams,
    argmax: Vec<usize>,
}

impl MaxPoolLayer {
    fn new(input: BlobShape, kernel: usize, stride: usize) -> Self {
        let p = Conv2dParams {
            in_channels: input.0,
            out_channels: input.0,
            height: input.1,
            width: input.2,
            kernel,
            stride,
            pad: 0,
        };
        MaxPoolLayer {
            p,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPoolLayer {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let in_sz = bottom.per_item();
        let out_sz = top.per_item();
        self.argmax.resize(batch * out_sz, 0);
        for item in 0..batch {
            maxpool2d(
                &self.p,
                &bottom.data[item * in_sz..(item + 1) * in_sz],
                &mut top.data[item * out_sz..(item + 1) * out_sz],
                &mut self.argmax[item * out_sz..(item + 1) * out_sz],
            );
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        let in_sz = bottom.per_item();
        let out_sz = top.per_item();
        for item in 0..batch {
            let g = &top.grad[item * out_sz..(item + 1) * out_sz];
            let bg = &mut bottom.grad[item * in_sz..(item + 1) * in_sz];
            for (o, &a) in g
                .iter()
                .zip(&self.argmax[item * out_sz..(item + 1) * out_sz])
            {
                bg[a] += o;
            }
        }
    }

    fn label(&self) -> String {
        format!("maxpool{}x{}", self.p.kernel, self.p.kernel)
    }
}

/// Local response normalization across channels (layout `(c, y, x)`).
pub struct LrnLayer {
    size: usize,
    alpha: f32,
    beta: f32,
    scale: Vec<f32>,
}

impl Layer for LrnLayer {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let (c, h, w) = bottom.shape;
        let plane = h * w;
        let per = bottom.per_item();
        self.scale.resize(batch * per, 0.0);
        let half = self.size / 2;
        for item in 0..batch {
            let x = &bottom.data[item * per..(item + 1) * per];
            let scale = &mut self.scale[item * per..(item + 1) * per];
            for s in 0..plane {
                for ch in 0..c {
                    let lo = ch.saturating_sub(half);
                    let hi = (ch + half).min(c - 1);
                    let mut acc = 0.0;
                    for wch in lo..=hi {
                        let v = x[wch * plane + s];
                        acc += v * v;
                    }
                    scale[ch * plane + s] = 1.0 + self.alpha / self.size as f32 * acc;
                }
            }
            let y = &mut top.data[item * per..(item + 1) * per];
            for ((o, &xv), &sc) in y.iter_mut().zip(x).zip(scale.iter()) {
                *o = xv * sc.powf(-self.beta);
            }
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        let (c, h, w) = bottom.shape;
        let plane = h * w;
        let per = bottom.per_item();
        let half = self.size / 2;
        for item in 0..batch {
            let x: Vec<f32> = bottom.data[item * per..(item + 1) * per].to_vec();
            let y = &top.data[item * per..(item + 1) * per];
            let g = &top.grad[item * per..(item + 1) * per];
            let scale = &self.scale[item * per..(item + 1) * per];
            let bg = &mut bottom.grad[item * per..(item + 1) * per];
            for s in 0..plane {
                for ch in 0..c {
                    let j = ch * plane + s;
                    let mut acc = g[j] * scale[j].powf(-self.beta);
                    let lo = ch.saturating_sub(half);
                    let hi = (ch + half).min(c - 1);
                    let mut cross = 0.0;
                    for wch in lo..=hi {
                        let i = wch * plane + s;
                        cross += g[i] * y[i] / scale[i];
                    }
                    acc -= 2.0 * self.alpha * self.beta / self.size as f32 * x[j] * cross;
                    bg[j] += acc;
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("lrn{}", self.size)
    }
}

/// Fully-connected layer via whole-batch GEMM.
pub struct FcLayer {
    n_in: usize,
    n_out: usize,
    /// `(out, in)` row-major.
    pub weights: Vec<f32>,
    /// Per output.
    pub bias: Vec<f32>,
    g_weights: Vec<f32>,
    g_bias: Vec<f32>,
    gemm: Gemm,
}

impl FcLayer {
    fn new(input: BlobShape, n_out: usize, seed: u64) -> Self {
        let n_in = input.0 * input.1 * input.2;
        let weights = init::xavier(vec![n_out, n_in], n_in, seed).into_vec();
        FcLayer {
            n_in,
            n_out,
            g_weights: vec![0.0; weights.len()],
            weights,
            bias: vec![0.0; n_out],
            g_bias: vec![0.0; n_out],
            gemm: Gemm::new(),
        }
    }
}

impl Layer for FcLayer {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        // top(batch x out) = bottom(batch x in) * W^T + bias.
        for item in 0..batch {
            top.data[item * self.n_out..(item + 1) * self.n_out].copy_from_slice(&self.bias);
        }
        self.gemm.compute(
            Transpose::No,
            Transpose::Yes,
            batch,
            self.n_out,
            self.n_in,
            &bottom.data,
            &self.weights,
            &mut top.data,
        );
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        // gW(out x in) += gTop(batch x out)^T * bottom(batch x in).
        self.gemm.compute(
            Transpose::Yes,
            Transpose::No,
            self.n_out,
            self.n_in,
            batch,
            &top.grad,
            &bottom.data,
            &mut self.g_weights,
        );
        for item in 0..batch {
            for (gb, &g) in self
                .g_bias
                .iter_mut()
                .zip(&top.grad[item * self.n_out..(item + 1) * self.n_out])
            {
                *gb += g;
            }
        }
        // gBottom(batch x in) = gTop(batch x out) * W(out x in).
        self.gemm.compute(
            Transpose::No,
            Transpose::No,
            batch,
            self.n_in,
            self.n_out,
            &top.grad,
            &self.weights,
            &mut bottom.grad,
        );
    }

    fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self.weights.iter_mut().zip(&mut self.g_weights) {
            *w -= lr * *g;
            *g = 0.0;
        }
        for (b, g) in self.bias.iter_mut().zip(&mut self.g_bias) {
            *b -= lr * *g;
            *g = 0.0;
        }
    }

    fn params_mut(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        vec![
            (&mut self.weights, &mut self.g_weights),
            (&mut self.bias, &mut self.g_bias),
        ]
    }

    fn label(&self) -> String {
        format!("fc{}", self.n_out)
    }
}

/// Softmax + cross-entropy loss.
pub struct SoftmaxLossLayer {
    labels: Vec<f32>,
    prob: Vec<f32>,
}

impl Layer for SoftmaxLossLayer {
    fn set_labels(&mut self, labels: &[f32]) {
        self.labels = labels.to_vec();
    }

    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let n = bottom.per_item();
        self.prob.resize(batch * n, 0.0);
        for item in 0..batch {
            let x = &bottom.data[item * n..(item + 1) * n];
            let p = &mut self.prob[item * n..(item + 1) * n];
            let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (pi, &xi) in p.iter_mut().zip(x) {
                *pi = (xi - max).exp();
                sum += *pi;
            }
            for pi in p.iter_mut() {
                *pi /= sum;
            }
            let label = self.labels.get(item).copied().unwrap_or(0.0) as usize;
            top.data[item] = -p[label.min(n - 1)].max(1e-12).ln();
        }
    }

    fn backward(&mut self, _top: &Blob, bottom: &mut Blob, batch: usize) {
        let n = bottom.per_item();
        let scale = 1.0 / batch as f32;
        for item in 0..batch {
            let label = self.labels.get(item).copied().unwrap_or(0.0) as usize;
            let p = &self.prob[item * n..(item + 1) * n];
            let g = &mut bottom.grad[item * n..(item + 1) * n];
            for (i, (gi, &pi)) in g.iter_mut().zip(p).enumerate() {
                *gi = (pi - if i == label { 1.0 } else { 0.0 }) * scale;
            }
        }
    }

    fn label(&self) -> String {
        "softmax_loss".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LayerSpec;
    use latte_tensor::conv::conv2d_reference;

    fn seeded(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h >> 9) % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn conv_layer_matches_direct_reference() {
        let input_shape = (3, 6, 6);
        let mut net = build(
            input_shape,
            2,
            &[LayerSpec::Conv {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
            }],
            3,
        );
        let input = seeded(2 * 108, 1);
        net.set_input(&input);
        net.forward();
        // Extract weights and compare with the direct loop.
        let p = Conv2dParams {
            in_channels: 3,
            out_channels: 4,
            height: 6,
            width: 6,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let (w, b): (Vec<f32>, Vec<f32>) = {
            let params = net.layer_mut(0).params_mut();
            (params[0].0.to_vec(), params[1].0.to_vec())
        };
        for item in 0..2 {
            let mut expect = vec![0.0; 4 * 36];
            conv2d_reference(
                &p,
                &input[item * 108..(item + 1) * 108],
                &w,
                &b,
                &mut expect,
            );
            let got = &net.output().data[item * 144..(item + 1) * 144];
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-3, "{g} vs {e}");
            }
        }
    }

    #[test]
    fn training_small_net_decreases_loss() {
        let mut net = build(
            (1, 6, 6),
            4,
            &[
                LayerSpec::Conv {
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::ReLU,
                LayerSpec::MaxPool {
                    kernel: 2,
                    stride: 2,
                },
                LayerSpec::Fc { out: 3 },
                LayerSpec::SoftmaxLoss,
            ],
            5,
        );
        let input = seeded(4 * 36, 7);
        let labels = [0.0, 1.0, 2.0, 0.0];
        net.set_input(&input);
        net.set_labels(&labels);
        let initial = net.forward();
        for _ in 0..40 {
            net.forward();
            net.backward();
            net.sgd_step(0.1);
        }
        let trained = net.forward();
        assert!(trained < initial * 0.6, "{initial} -> {trained}");
    }

    #[test]
    fn fc_gradient_finite_difference() {
        let mut net = build(
            (1, 2, 2),
            2,
            &[LayerSpec::Fc { out: 3 }, LayerSpec::SoftmaxLoss],
            1,
        );
        let input = seeded(8, 3);
        net.set_input(&input);
        net.set_labels(&[1.0, 2.0]);
        net.forward();
        net.backward();
        let (w0, analytic) = {
            let params = net.layer_mut(0).params_mut();
            (params[0].0.to_vec(), params[0].1.to_vec())
        };
        let idx = 5;
        let eps = 1e-3;
        let mut probe = |delta: f32| -> f32 {
            {
                let mut w = w0.clone();
                w[idx] += delta;
                let mut params = net.layer_mut(0).params_mut();
                params[0].0.copy_from_slice(&w);
            }
            net.forward()
        };
        let lp = probe(eps);
        let lm = probe(-eps);
        probe(0.0);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic[idx]).abs() < 1e-2 * analytic[idx].abs().max(0.1),
            "numeric {numeric} vs analytic {}",
            analytic[idx]
        );
    }

    #[test]
    fn lrn_layer_runs_forward_backward() {
        let mut net = build(
            (4, 3, 3),
            1,
            &[
                LayerSpec::Lrn {
                    size: 3,
                    alpha: 0.3,
                    beta: 0.75,
                },
                LayerSpec::Fc { out: 2 },
                LayerSpec::SoftmaxLoss,
            ],
            2,
        );
        net.set_input(&seeded(36, 11));
        net.set_labels(&[1.0]);
        let loss = net.forward();
        assert!(loss.is_finite());
        net.backward();
    }
}
