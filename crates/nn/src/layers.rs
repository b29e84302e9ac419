//! The Latte standard-library layers.
//!
//! Each constructor mirrors the paper's Section 4: it instantiates an
//! ensemble of neurons with SoA field storage and connects it to its
//! input with a mapping closure. Spatial ensembles use `(y, x, c)`
//! dimension order (row, column, feature) with the feature dimension
//! innermost.

use latte_core::dsl::stdlib::{
    max_neuron, mean_neuron, relu_neuron, sigmoid_neuron, tanh_neuron, weighted_neuron,
};
use latte_core::dsl::{
    Ensemble, EnsembleId, Mapping, Net, NormalizationSpec, SourceRange, SourceRegion,
};
use latte_tensor::{init, Tensor};

/// Parameters of a convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Number of filters (output channels).
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl ConvSpec {
    /// A `kernel x kernel` convolution with stride 1 and "same" padding.
    pub fn same(out_channels: usize, kernel: usize) -> Self {
        ConvSpec {
            out_channels,
            kernel,
            stride: 1,
            pad: kernel / 2,
        }
    }

    fn out_extent(&self, input: usize) -> usize {
        (input + 2 * self.pad - self.kernel) / self.stride + 1
    }
}

/// Adds a data (input) ensemble.
pub fn data(net: &mut Net, name: &str, dims: Vec<usize>) -> EnsembleId {
    net.add(Ensemble::data(name, dims))
}

/// Adds a fully-connected layer of `n_outputs` [`weighted_neuron`]s over
/// the entire input ensemble (the paper's Figure 4).
pub fn fully_connected(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    n_outputs: usize,
    seed: u64,
) -> EnsembleId {
    let src_dims = net.ensemble(input).dims().to_vec();
    let n_inputs: usize = src_dims.iter().product();
    let fc = net.add(
        Ensemble::new(name, vec![n_outputs], weighted_neuron())
            .with_field(
                "weights",
                vec![false],
                init::xavier(vec![n_outputs, n_inputs], n_inputs, seed),
            )
            .with_field("bias", vec![false], Tensor::zeros(vec![n_outputs, 1]))
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    net.connect(input, fc, Mapping::all_to_all(src_dims));
    fc
}

/// Adds a 2-D convolution layer over a `(y, x, c)` input ensemble.
///
/// Weights are shared across the spatial dimensions and unique per output
/// channel; the connection is the sparse window mapping of the paper's
/// Figure 5.
///
/// # Panics
///
/// Panics when the input is not rank 3 or the window does not fit.
pub fn convolution(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    spec: ConvSpec,
    seed: u64,
) -> EnsembleId {
    let src_dims = net.ensemble(input).dims().to_vec();
    assert_eq!(src_dims.len(), 3, "convolution input must be (y, x, c)");
    let (h, w, in_c) = (src_dims[0], src_dims[1], src_dims[2]);
    let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
    let patch = spec.kernel * spec.kernel * in_c;
    let conv = net.add(
        Ensemble::new(name, vec![oh, ow, spec.out_channels], weighted_neuron())
            .with_field(
                "weights",
                vec![true, true, false],
                init::xavier(vec![spec.out_channels, patch], patch, seed),
            )
            .with_field(
                "bias",
                vec![true, true, false],
                Tensor::zeros(vec![spec.out_channels, 1]),
            )
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    let (k, s, p, cin) = (
        spec.kernel as isize,
        spec.stride as isize,
        spec.pad as isize,
        in_c as isize,
    );
    net.connect(
        input,
        conv,
        Mapping::new(move |idx| {
            let in_y = idx[0] as isize * s - p;
            let in_x = idx[1] as isize * s - p;
            SourceRegion::new(vec![
                SourceRange::new(in_y, in_y + k),
                SourceRange::new(in_x, in_x + k),
                SourceRange::new(0, cin),
            ])
        }),
    );
    conv
}

/// Adds a *grouped* 2-D convolution (AlexNet's original two-GPU split):
/// output channels are divided into `groups`, each seeing only its slice
/// of the input channels.
///
/// The group-dependent channel window is not affine in the output-channel
/// index, so shared-variable analysis classifies the mapping *irregular*
/// and the compiler stages inputs through an explicit gather table —
/// demonstrating that arbitrary connection structures remain executable
/// (at a memory cost proportional to the adjacency, so prefer
/// [`convolution`] when `groups == 1`).
///
/// # Panics
///
/// Panics unless `groups` divides both the input and output channel
/// counts and the input is rank 3.
pub fn grouped_convolution(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    spec: ConvSpec,
    groups: usize,
    seed: u64,
) -> EnsembleId {
    let src_dims = net.ensemble(input).dims().to_vec();
    assert_eq!(src_dims.len(), 3, "convolution input must be (y, x, c)");
    let (h, w, in_c) = (src_dims[0], src_dims[1], src_dims[2]);
    assert!(
        groups >= 1 && in_c.is_multiple_of(groups) && spec.out_channels.is_multiple_of(groups),
        "groups must divide both channel counts"
    );
    let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
    let in_pg = in_c / groups;
    let out_pg = spec.out_channels / groups;
    let patch = spec.kernel * spec.kernel * in_pg;
    let conv = net.add(
        Ensemble::new(name, vec![oh, ow, spec.out_channels], weighted_neuron())
            .with_field(
                "weights",
                vec![true, true, false],
                init::xavier(vec![spec.out_channels, patch], patch, seed),
            )
            .with_field(
                "bias",
                vec![true, true, false],
                Tensor::zeros(vec![spec.out_channels, 1]),
            )
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    let (k, s, p) = (
        spec.kernel as isize,
        spec.stride as isize,
        spec.pad as isize,
    );
    net.connect(
        input,
        conv,
        Mapping::new(move |idx| {
            let in_y = idx[0] as isize * s - p;
            let in_x = idx[1] as isize * s - p;
            let g = (idx[2] / out_pg) as isize;
            SourceRegion::new(vec![
                SourceRange::new(in_y, in_y + k),
                SourceRange::new(in_x, in_x + k),
                SourceRange::new(g * in_pg as isize, (g + 1) * in_pg as isize),
            ])
        }),
    );
    conv
}

fn pool_ensemble(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    kernel: usize,
    stride: usize,
    neuron: latte_core::dsl::NeuronType,
) -> EnsembleId {
    let src_dims = net.ensemble(input).dims().to_vec();
    assert_eq!(src_dims.len(), 3, "pooling input must be (y, x, c)");
    let (h, w, c) = (src_dims[0], src_dims[1], src_dims[2]);
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let pool = net.add(Ensemble::new(name, vec![oh, ow, c], neuron));
    let (k, s) = (kernel as isize, stride as isize);
    net.connect(
        input,
        pool,
        Mapping::new(move |idx| {
            let (y, x, ch) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
            SourceRegion::new(vec![
                SourceRange::new(y * s, y * s + k),
                SourceRange::new(x * s, x * s + k),
                SourceRange::single(ch),
            ])
        }),
    );
    pool
}

/// Adds a max-pooling layer (`kernel x kernel`, given stride).
///
/// # Panics
///
/// Panics when the input is not rank 3 or the window does not fit.
pub fn max_pool(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    kernel: usize,
    stride: usize,
) -> EnsembleId {
    pool_ensemble(net, name, input, kernel, stride, max_neuron())
}

/// Adds a mean-pooling layer.
///
/// # Panics
///
/// Panics when the input is not rank 3 or the window does not fit.
pub fn mean_pool(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    kernel: usize,
    stride: usize,
) -> EnsembleId {
    pool_ensemble(net, name, input, kernel, stride, mean_neuron())
}

fn activation(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    neuron: latte_core::dsl::NeuronType,
) -> EnsembleId {
    let dims = net.ensemble(input).dims().to_vec();
    let act = net.add(Ensemble::activation(name, dims, neuron));
    net.connect(input, act, Mapping::one_to_one());
    act
}

/// Adds a ReLU activation ensemble (in-place eligible).
pub fn relu(net: &mut Net, name: &str, input: EnsembleId) -> EnsembleId {
    activation(net, name, input, relu_neuron())
}

/// Adds a sigmoid activation ensemble.
pub fn sigmoid(net: &mut Net, name: &str, input: EnsembleId) -> EnsembleId {
    activation(net, name, input, sigmoid_neuron())
}

/// Adds a tanh activation ensemble.
pub fn tanh(net: &mut Net, name: &str, input: EnsembleId) -> EnsembleId {
    activation(net, name, input, tanh_neuron())
}

/// Adds a softmax + cross-entropy loss over `pred`, with integer class
/// labels in the single-element `label` data ensemble.
pub fn softmax_loss(net: &mut Net, name: &str, pred: EnsembleId, label: EnsembleId) -> EnsembleId {
    let classes: usize = net.ensemble(pred).dims().iter().product();
    let pred_dims = net.ensemble(pred).dims().to_vec();
    let loss = net.add(Ensemble::normalization(
        name,
        vec![1],
        NormalizationSpec::new("softmax_loss")
            .attr("classes", classes as f64)
            .state("prob", vec![classes])
            .loss(),
    ));
    net.connect(pred, loss, Mapping::all_to_all(pred_dims));
    let label_dims = net.ensemble(label).dims().to_vec();
    net.connect(label, loss, Mapping::all_to_all(label_dims));
    loss
}

/// Adds a plain softmax normalization ensemble.
pub fn softmax(net: &mut Net, name: &str, input: EnsembleId) -> EnsembleId {
    let dims = net.ensemble(input).dims().to_vec();
    let out = net.add(Ensemble::normalization(
        name,
        dims.clone(),
        NormalizationSpec::new("softmax"),
    ));
    net.connect(input, out, Mapping::all_to_all(dims));
    out
}

/// Adds a Euclidean (L2) regression loss `½‖pred - target‖²`.
pub fn l2_loss(net: &mut Net, name: &str, pred: EnsembleId, target: EnsembleId) -> EnsembleId {
    let pred_dims = net.ensemble(pred).dims().to_vec();
    let target_dims = net.ensemble(target).dims().to_vec();
    let loss = net.add(Ensemble::normalization(
        name,
        vec![1],
        NormalizationSpec::new("l2_loss").loss(),
    ));
    net.connect(pred, loss, Mapping::all_to_all(pred_dims));
    net.connect(target, loss, Mapping::all_to_all(target_dims));
    loss
}

/// Adds a local response normalization ensemble (AlexNet §3.3) over a
/// `(y, x, c)` input.
///
/// # Panics
///
/// Panics when the input is not rank 3.
pub fn lrn(
    net: &mut Net,
    name: &str,
    input: EnsembleId,
    size: usize,
    alpha: f64,
    beta: f64,
) -> EnsembleId {
    let dims = net.ensemble(input).dims().to_vec();
    assert_eq!(dims.len(), 3, "LRN input must be (y, x, c)");
    let channels = dims[2];
    let out = net.add(Ensemble::normalization(
        name,
        dims.clone(),
        NormalizationSpec::new("lrn")
            .attr("channels", channels as f64)
            .attr("size", size as f64)
            .attr("alpha", alpha)
            .attr("beta", beta)
            .attr("k", 1.0)
            .state("scale", dims.clone()),
    ));
    net.connect(input, out, Mapping::all_to_all(dims));
    out
}

/// Adds a dropout ensemble: inverted dropout with a fresh per-pass
/// Bernoulli mask (recorded in a state buffer and replayed by backward).
pub fn dropout(net: &mut Net, name: &str, input: EnsembleId, ratio: f64, seed: u64) -> EnsembleId {
    let dims = net.ensemble(input).dims().to_vec();
    let out = net.add(Ensemble::normalization(
        name,
        dims.clone(),
        NormalizationSpec::new("dropout")
            .attr("ratio", ratio)
            .attr("seed", seed as f64)
            .state("mask", dims.clone()),
    ));
    net.connect(input, out, Mapping::all_to_all(dims));
    out
}

/// Adds a batch-normalization ensemble (per-channel whole-batch
/// statistics; feature dimension innermost).
pub fn batch_norm(net: &mut Net, name: &str, input: EnsembleId, eps: f64) -> EnsembleId {
    let dims = net.ensemble(input).dims().to_vec();
    let channels = *dims.last().expect("non-empty dims");
    let out = net.add(Ensemble::normalization(
        name,
        dims.clone(),
        NormalizationSpec::new("batch_norm")
            .attr("channels", channels as f64)
            .attr("eps", eps)
            .shared_state("mean", vec![channels])
            .shared_state("var", vec![channels]),
    ));
    net.connect(input, out, Mapping::all_to_all(dims));
    out
}

/// Adds a learnable per-channel affine layer `y = γ·x + β` (the usual
/// companion of [`batch_norm`], which normalizes without affine
/// parameters). Demonstrates learnable fields on a custom neuron type:
/// `γ`/`β` are scalar fields shared across the spatial dimensions.
///
/// # Panics
///
/// Panics when the input is not rank 3.
pub fn scale_shift(net: &mut Net, name: &str, input: EnsembleId, seed: u64) -> EnsembleId {
    use latte_core::dsl::{FieldLen, NeuronType};
    let _ = seed;
    let dims = net.ensemble(input).dims().to_vec();
    assert_eq!(dims.len(), 3, "scale_shift input must be (y, x, c)");
    let c = dims[2];
    let neuron = NeuronType::builder("ScaleShiftNeuron")
        .field_with_grad("gamma", FieldLen::Scalar)
        .field_with_grad("beta", FieldLen::Scalar)
        .forward(|b| {
            let x = b.input(0, 0);
            b.assign(
                b.value(),
                x.mul(b.field("gamma", 0)).add(b.field("beta", 0)),
            );
        })
        .backward(|b| {
            b.accumulate(b.grad_input(0, 0), b.grad_expr().mul(b.field("gamma", 0)));
            b.accumulate(b.grad_field("gamma", 0), b.grad_expr().mul(b.input(0, 0)));
            b.accumulate(b.grad_field("beta", 0), b.grad_expr());
        })
        .build();
    let out = net.add(
        Ensemble::new(name, dims, neuron)
            .with_field(
                "gamma",
                vec![true, true, false],
                Tensor::full(vec![c, 1], 1.0),
            )
            .with_field("beta", vec![true, true, false], Tensor::zeros(vec![c, 1]))
            .with_param("gamma", 1.0)
            .with_param("beta", 1.0),
    );
    net.connect(input, out, Mapping::one_to_one());
    out
}

/// Concatenates ensembles along the innermost (channel) dimension — the
/// merge step of Inception-style multi-branch blocks.
///
/// # Panics
///
/// Panics when `inputs` is empty or shapes disagree on any dimension but
/// the last.
pub fn concat(net: &mut Net, name: &str, inputs: &[EnsembleId]) -> EnsembleId {
    assert!(!inputs.is_empty(), "concat needs inputs");
    let first = net.ensemble(inputs[0]).dims().to_vec();
    let rank = first.len();
    let mut last = 0;
    for &i in inputs {
        let d = net.ensemble(i).dims();
        assert_eq!(d.len(), rank, "rank mismatch in concat");
        assert_eq!(
            &d[..rank - 1],
            &first[..rank - 1],
            "shape mismatch in concat"
        );
        last += d[rank - 1];
    }
    let mut dims = first;
    dims[rank - 1] = last;
    let out = net.add(Ensemble::concat(name, dims));
    for &i in inputs {
        net.connect(i, out, Mapping::one_to_one());
    }
    out
}

/// Adds an element-wise sum of several same-shaped ensembles.
///
/// # Panics
///
/// Panics when `inputs` is empty or shapes differ.
pub fn eltwise_add(net: &mut Net, name: &str, inputs: &[EnsembleId]) -> EnsembleId {
    assert!(!inputs.is_empty(), "eltwise_add needs inputs");
    let dims = net.ensemble(inputs[0]).dims().to_vec();
    for &i in inputs {
        assert_eq!(net.ensemble(i).dims(), dims.as_slice(), "shape mismatch");
    }
    let out = net.add(Ensemble::new(
        name,
        dims,
        latte_core::dsl::stdlib::add_neuron(inputs.len()),
    ));
    for &i in inputs {
        net.connect(i, out, Mapping::one_to_one());
    }
    out
}

/// Adds an element-wise product of two same-shaped ensembles.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn eltwise_mul(net: &mut Net, name: &str, a: EnsembleId, b: EnsembleId) -> EnsembleId {
    let dims = net.ensemble(a).dims().to_vec();
    assert_eq!(net.ensemble(b).dims(), dims.as_slice(), "shape mismatch");
    let out = net.add(Ensemble::new(
        name,
        dims,
        latte_core::dsl::stdlib::mul_neuron(),
    ));
    net.connect(a, out, Mapping::one_to_one());
    net.connect(b, out, Mapping::one_to_one());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::{compile, OptLevel};

    #[test]
    fn conv_output_shape() {
        let mut net = Net::new(1);
        let d = data(&mut net, "data", vec![8, 8, 3]);
        let c = convolution(&mut net, "conv1", d, ConvSpec::same(16, 3), 0);
        assert_eq!(net.ensemble(c).dims(), &[8, 8, 16]);
        let c2 = convolution(
            &mut net,
            "conv2",
            c,
            ConvSpec {
                out_channels: 4,
                kernel: 3,
                stride: 2,
                pad: 0,
            },
            1,
        );
        assert_eq!(net.ensemble(c2).dims(), &[3, 3, 4]);
    }

    #[test]
    fn pool_output_shape() {
        let mut net = Net::new(1);
        let d = data(&mut net, "data", vec![8, 8, 3]);
        let p = max_pool(&mut net, "pool1", d, 2, 2);
        assert_eq!(net.ensemble(p).dims(), &[4, 4, 3]);
        let p2 = mean_pool(&mut net, "pool2", p, 3, 1);
        assert_eq!(net.ensemble(p2).dims(), &[2, 2, 3]);
    }

    #[test]
    fn full_stack_compiles() {
        let mut net = Net::new(2);
        let d = data(&mut net, "data", vec![8, 8, 3]);
        let label = data(&mut net, "label", vec![1]);
        let c = convolution(&mut net, "conv1", d, ConvSpec::same(8, 3), 0);
        let r = relu(&mut net, "relu1", c);
        let n = lrn(&mut net, "lrn1", r, 5, 1e-4, 0.75);
        let p = max_pool(&mut net, "pool1", n, 2, 2);
        let f = fully_connected(&mut net, "fc1", p, 10, 1);
        softmax_loss(&mut net, "loss", f, label);
        let compiled = compile(&net, &OptLevel::full()).unwrap();
        assert!(compiled.stats.gemms_matched > 0);
    }

    #[test]
    fn eltwise_layers_compile() {
        let mut net = Net::new(1);
        let a = data(&mut net, "a", vec![6]);
        let b = data(&mut net, "b", vec![6]);
        let s = eltwise_add(&mut net, "sum", &[a, b]);
        let m = eltwise_mul(&mut net, "prod", s, b);
        assert_eq!(net.ensemble(m).dims(), &[6]);
        compile(&net, &OptLevel::full()).unwrap();
    }

    #[test]
    #[should_panic(expected = "must be (y, x, c)")]
    fn conv_rejects_flat_input() {
        let mut net = Net::new(1);
        let d = data(&mut net, "data", vec![64]);
        convolution(&mut net, "conv1", d, ConvSpec::same(8, 3), 0);
    }
}
