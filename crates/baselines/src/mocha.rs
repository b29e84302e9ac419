//! The Mocha.jl-style baseline: a straightforward high-level
//! implementation with none of the systems work.
//!
//! Convolution and fully-connected layers are direct scalar loops with
//! per-call bounds arithmetic and fresh temporary allocations each
//! invocation, no GEMM, no blocking, no parallelism — the performance
//! profile of an idiomatic dynamic-language framework, which is what the
//! paper's Figure 16 compares against.

use latte_tensor::init;

use crate::net::{Backend, Blob, Layer, SequentialNet};
use crate::spec::{BlobShape, LayerSpec};

/// Marker type implementing [`Backend`] for the Mocha-style stack.
#[derive(Debug, Clone, Copy)]
pub struct MochaBackend;

/// Builds a Mocha-style network.
pub fn build(input: BlobShape, batch: usize, specs: &[LayerSpec], seed: u64) -> SequentialNet {
    SequentialNet::build::<MochaBackend>(input, batch, specs, seed)
}

impl Backend for MochaBackend {
    fn build(spec: &LayerSpec, input: BlobShape, seed: u64) -> Box<dyn Layer> {
        match *spec {
            LayerSpec::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => Box::new(NaiveConv {
                input,
                out_channels,
                kernel,
                stride,
                pad,
                weights: init::xavier(
                    vec![out_channels, input.0 * kernel * kernel],
                    input.0 * kernel * kernel,
                    seed,
                )
                .into_vec(),
                bias: vec![0.0; out_channels],
                g_weights: vec![0.0; out_channels * input.0 * kernel * kernel],
                g_bias: vec![0.0; out_channels],
            }),
            LayerSpec::ReLU => Box::new(NaiveRelu),
            LayerSpec::MaxPool { kernel, stride } => Box::new(NaiveMaxPool {
                input,
                kernel,
                stride,
            }),
            LayerSpec::Lrn { size, alpha, beta } => Box::new(NaiveLrn {
                input,
                size,
                alpha,
                beta,
            }),
            LayerSpec::Fc { out } => {
                let n_in = input.0 * input.1 * input.2;
                Box::new(NaiveFc {
                    n_in,
                    n_out: out,
                    weights: init::xavier(vec![out, n_in], n_in, seed).into_vec(),
                    bias: vec![0.0; out],
                    g_weights: vec![0.0; out * n_in],
                    g_bias: vec![0.0; out],
                })
            }
            LayerSpec::SoftmaxLoss => Box::new(NaiveSoftmaxLoss { labels: Vec::new() }),
        }
    }
}

struct NaiveConv {
    input: BlobShape,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    g_weights: Vec<f32>,
    g_bias: Vec<f32>,
}

impl NaiveConv {
    fn out_hw(&self) -> (usize, usize) {
        let (_, h, w) = self.input;
        (
            (h + 2 * self.pad - self.kernel) / self.stride + 1,
            (w + 2 * self.pad - self.kernel) / self.stride + 1,
        )
    }
}

impl Layer for NaiveConv {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let (cin, h, w) = self.input;
        let (oh, ow) = self.out_hw();
        let k = self.kernel;
        for item in 0..batch {
            // A fresh temporary every call, like an idiomatic high-level
            // implementation.
            let x: Vec<f32> = bottom.data[item * cin * h * w..(item + 1) * cin * h * w].to_vec();
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias[oc];
                        for ic in 0..cin {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = oy as isize * self.stride as isize + ky as isize
                                        - self.pad as isize;
                                    let ix = ox as isize * self.stride as isize + kx as isize
                                        - self.pad as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += x[ic * h * w + iy as usize * w + ix as usize]
                                        * self.weights[oc * cin * k * k + ic * k * k + ky * k + kx];
                                }
                            }
                        }
                        top.data
                            [item * self.out_channels * oh * ow + oc * oh * ow + oy * ow + ox] =
                            acc;
                    }
                }
            }
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        let (cin, h, w) = self.input;
        let (oh, ow) = self.out_hw();
        let k = self.kernel;
        for item in 0..batch {
            let g: Vec<f32> = top.grad
                [item * self.out_channels * oh * ow..(item + 1) * self.out_channels * oh * ow]
                .to_vec();
            let x: Vec<f32> = bottom.data[item * cin * h * w..(item + 1) * cin * h * w].to_vec();
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = g[oc * oh * ow + oy * ow + ox];
                        self.g_bias[oc] += go;
                        for ic in 0..cin {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = oy as isize * self.stride as isize + ky as isize
                                        - self.pad as isize;
                                    let ix = ox as isize * self.stride as isize + kx as isize
                                        - self.pad as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xi = ic * h * w + iy as usize * w + ix as usize;
                                    let wi = oc * cin * k * k + ic * k * k + ky * k + kx;
                                    self.g_weights[wi] += go * x[xi];
                                    bottom.grad[item * cin * h * w + xi] += go * self.weights[wi];
                                }
                            }
                        }
                    }
                }
            }
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
        format!("naive-conv/{}", self.out_channels)
    }
}

struct NaiveRelu;

impl Layer for NaiveRelu {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, _batch: usize) {
        // Allocate-then-assign, as a naive vectorized style would.
        let out: Vec<f32> = bottom.data.iter().map(|&x| x.max(0.0)).collect();
        top.data.copy_from_slice(&out);
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, _batch: usize) {
        let gin: Vec<f32> = top
            .grad
            .iter()
            .zip(&top.data)
            .map(|(&g, &t)| if t > 0.0 { g } else { 0.0 })
            .collect();
        bottom.grad.copy_from_slice(&gin);
    }

    fn label(&self) -> String {
        "naive-relu".to_string()
    }
}

struct NaiveMaxPool {
    input: BlobShape,
    kernel: usize,
    stride: usize,
}

impl Layer for NaiveMaxPool {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let (c, h, w) = self.input;
        let (oh, ow) = (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        );
        for item in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let v = bottom.data[item * c * h * w
                                    + ch * h * w
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx];
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        top.data[item * c * oh * ow + ch * oh * ow + oy * ow + ox] = best;
                    }
                }
            }
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        let (c, h, w) = self.input;
        let (oh, ow) = (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        );
        for item in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Recompute the argmax, naive-style.
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let i = item * c * h * w
                                    + ch * h * w
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx;
                                if bottom.data[i] > best {
                                    best = bottom.data[i];
                                    best_i = i;
                                }
                            }
                        }
                        bottom.grad[best_i] +=
                            top.grad[item * c * oh * ow + ch * oh * ow + oy * ow + ox];
                    }
                }
            }
        }
    }

    fn label(&self) -> String {
        "naive-maxpool".to_string()
    }
}

struct NaiveLrn {
    input: BlobShape,
    size: usize,
    alpha: f32,
    beta: f32,
}

impl Layer for NaiveLrn {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let (c, h, w) = self.input;
        let plane = h * w;
        let per = c * plane;
        let half = self.size / 2;
        for item in 0..batch {
            for s in 0..plane {
                for ch in 0..c {
                    let lo = ch.saturating_sub(half);
                    let hi = (ch + half).min(c - 1);
                    let mut acc = 0.0;
                    for wch in lo..=hi {
                        let v = bottom.data[item * per + wch * plane + s];
                        acc += v * v;
                    }
                    let scale = 1.0 + self.alpha / self.size as f32 * acc;
                    top.data[item * per + ch * plane + s] =
                        bottom.data[item * per + ch * plane + s] * scale.powf(-self.beta);
                }
            }
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        let (c, h, w) = self.input;
        let plane = h * w;
        let per = c * plane;
        let half = self.size / 2;
        for item in 0..batch {
            for s in 0..plane {
                for ch in 0..c {
                    let j = item * per + ch * plane + s;
                    // Recompute the scale naive-style.
                    let lo = ch.saturating_sub(half);
                    let hi = (ch + half).min(c - 1);
                    let mut acc = 0.0;
                    for wch in lo..=hi {
                        let v = bottom.data[item * per + wch * plane + s];
                        acc += v * v;
                    }
                    let scale = 1.0 + self.alpha / self.size as f32 * acc;
                    let mut g = top.grad[j] * scale.powf(-self.beta);
                    let mut cross = 0.0;
                    for wch in lo..=hi {
                        let i = item * per + wch * plane + s;
                        let mut acc_i = 0.0;
                        let lo_i = wch.saturating_sub(half);
                        let hi_i = (wch + half).min(c - 1);
                        for w2 in lo_i..=hi_i {
                            let v = bottom.data[item * per + w2 * plane + s];
                            acc_i += v * v;
                        }
                        let scale_i = 1.0 + self.alpha / self.size as f32 * acc_i;
                        cross += top.grad[i] * top.data[i] / scale_i;
                    }
                    g -= 2.0 * self.alpha * self.beta / self.size as f32 * bottom.data[j] * cross;
                    bottom.grad[j] += g;
                }
            }
        }
    }

    fn label(&self) -> String {
        "naive-lrn".to_string()
    }
}

struct NaiveFc {
    n_in: usize,
    n_out: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    g_weights: Vec<f32>,
    g_bias: Vec<f32>,
}

impl Layer for NaiveFc {
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        for item in 0..batch {
            let x: Vec<f32> = bottom.data[item * self.n_in..(item + 1) * self.n_in].to_vec();
            for o in 0..self.n_out {
                let mut acc = self.bias[o];
                let row = &self.weights[o * self.n_in..(o + 1) * self.n_in];
                for (xi, wi) in x.iter().zip(row) {
                    acc += xi * wi;
                }
                top.data[item * self.n_out + o] = acc;
            }
        }
    }

    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize) {
        for item in 0..batch {
            for o in 0..self.n_out {
                let g = top.grad[item * self.n_out + o];
                self.g_bias[o] += g;
                for i in 0..self.n_in {
                    self.g_weights[o * self.n_in + i] += g * bottom.data[item * self.n_in + i];
                    bottom.grad[item * self.n_in + i] += g * self.weights[o * self.n_in + i];
                }
            }
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
        format!("naive-fc{}", self.n_out)
    }
}

struct NaiveSoftmaxLoss {
    labels: Vec<f32>,
}

impl Layer for NaiveSoftmaxLoss {
    fn set_labels(&mut self, labels: &[f32]) {
        self.labels = labels.to_vec();
    }

    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize) {
        let n = bottom.per_item();
        for item in 0..batch {
            let x: Vec<f32> = bottom.data[item * n..(item + 1) * n].to_vec();
            let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            let label = self.labels.get(item).copied().unwrap_or(0.0) as usize;
            top.data[item] = -(exps[label.min(n - 1)] / sum).max(1e-12).ln();
        }
    }

    fn backward(&mut self, _top: &Blob, bottom: &mut Blob, batch: usize) {
        let n = bottom.per_item();
        let scale = 1.0 / batch as f32;
        for item in 0..batch {
            let x: Vec<f32> = bottom.data[item * n..(item + 1) * n].to_vec();
            let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            let label = self.labels.get(item).copied().unwrap_or(0.0) as usize;
            for (i, g) in bottom.grad[item * n..(item + 1) * n].iter_mut().enumerate() {
                let p = exps[i] / sum;
                *g = (p - if i == label { 1.0 } else { 0.0 }) * scale;
            }
        }
    }

    fn label(&self) -> String {
        "naive-softmax-loss".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LayerSpec;

    fn seeded(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h >> 9) % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    }

    /// Mocha and Caffe stacks produce identical forward results when
    /// given identical weights — they differ only in implementation
    /// strategy.
    #[test]
    fn mocha_matches_caffe_numerically() {
        let specs = [
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
            LayerSpec::Fc { out: 5 },
        ];
        let mut caffe = crate::caffe::build((2, 6, 6), 2, &specs, 9);
        let mut mocha = build((2, 6, 6), 2, &specs, 9);
        // Same seeds produce the same initial weights.
        let input = seeded(2 * 72, 4);
        caffe.set_input(&input);
        mocha.set_input(&input);
        caffe.forward();
        mocha.forward();
        for (a, b) in caffe.output().data.iter().zip(&mocha.output().data) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn mocha_trains() {
        let mut net = build(
            (1, 6, 6),
            4,
            &[
                LayerSpec::Conv {
                    out_channels: 3,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::ReLU,
                LayerSpec::Fc { out: 3 },
                LayerSpec::SoftmaxLoss,
            ],
            5,
        );
        net.set_input(&seeded(4 * 36, 7));
        net.set_labels(&[0.0, 1.0, 2.0, 0.0]);
        let initial = net.forward();
        for _ in 0..40 {
            net.forward();
            net.backward();
            net.sgd_step(0.1);
        }
        let trained = net.forward();
        assert!(trained < initial * 0.6, "{initial} -> {trained}");
    }
}
