//! The model zoo: the three ImageNet architectures the paper evaluates
//! (AlexNet, VGG, OverFeat), plus an MLP and a small LeNet-style CNN.
//!
//! Every constructor takes a [`ModelConfig`] so benchmarks can run the
//! full published shapes (`input_size` 227/224/231) or scaled-down
//! variants that preserve the layer structure while fitting a CI machine.

use latte_core::dsl::{EnsembleId, Net};

use crate::layers::{
    self, convolution, data, fully_connected, lrn, max_pool, relu, softmax_loss, ConvSpec,
};

/// Configuration shared by the model constructors.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Batch size.
    pub batch: usize,
    /// Square input edge (pixels). Each model documents its published
    /// value and its minimum workable value.
    pub input_size: usize,
    /// Divider applied to channel and fully-connected widths (1 = the
    /// published model).
    pub channel_div: usize,
    /// Number of classes.
    pub classes: usize,
    /// Whether to append the softmax loss (and a label input).
    pub with_loss: bool,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            batch: 8,
            input_size: 32,
            channel_div: 4,
            classes: 10,
            with_loss: true,
            seed: 42,
        }
    }
}

impl ModelConfig {
    fn ch(&self, full: usize) -> usize {
        (full / self.channel_div).max(1)
    }
}

/// A constructed model: the network plus its notable ensembles.
#[derive(Debug)]
pub struct Model {
    /// The network, ready to compile.
    pub net: Net,
    /// The image data ensemble.
    pub data: EnsembleId,
    /// The final prediction ensemble (pre-loss).
    pub output: EnsembleId,
}

fn finish(mut net: Net, data_id: EnsembleId, output: EnsembleId, cfg: &ModelConfig) -> Model {
    if cfg.with_loss {
        let label = data(&mut net, "label", vec![1]);
        softmax_loss(&mut net, "loss", output, label);
    }
    Model {
        net,
        data: data_id,
        output,
    }
}

/// The paper's Figure-7 multi-layer perceptron: two fully-connected
/// layers with a softmax loss. `input_size` is the flat input width.
pub fn mlp(cfg: &ModelConfig, hidden: &[usize]) -> Model {
    let mut net = Net::new(cfg.batch);
    let d = data(&mut net, "data", vec![cfg.input_size]);
    let mut prev = d;
    for (i, &h) in hidden.iter().enumerate() {
        let fc = fully_connected(
            &mut net,
            &format!("ip{}", i + 1),
            prev,
            h,
            cfg.seed + i as u64,
        );
        prev = relu(&mut net, &format!("relu{}", i + 1), fc);
    }
    let out = fully_connected(
        &mut net,
        "ip_out",
        prev,
        cfg.classes,
        cfg.seed + hidden.len() as u64,
    );
    finish(net, d, out, cfg)
}

/// A small LeNet-style CNN: conv-pool-conv-pool-fc-fc. Works from
/// `input_size >= 12`; the classic is 28 (MNIST).
pub fn lenet(cfg: &ModelConfig) -> Model {
    let mut net = Net::new(cfg.batch);
    let d = data(&mut net, "data", vec![cfg.input_size, cfg.input_size, 1]);
    let c1 = convolution(
        &mut net,
        "conv1",
        d,
        ConvSpec {
            out_channels: cfg.ch(20),
            kernel: 5,
            stride: 1,
            pad: 2,
        },
        cfg.seed,
    );
    let r1 = relu(&mut net, "relu1", c1);
    let p1 = max_pool(&mut net, "pool1", r1, 2, 2);
    let c2 = convolution(
        &mut net,
        "conv2",
        p1,
        ConvSpec {
            out_channels: cfg.ch(50),
            kernel: 5,
            stride: 1,
            pad: 2,
        },
        cfg.seed + 1,
    );
    let r2 = relu(&mut net, "relu2", c2);
    let p2 = max_pool(&mut net, "pool2", r2, 2, 2);
    let f1 = fully_connected(&mut net, "ip1", p2, cfg.ch(500), cfg.seed + 2);
    let rf = relu(&mut net, "relu3", f1);
    let out = fully_connected(&mut net, "ip2", rf, cfg.classes, cfg.seed + 3);
    finish(net, d, out, cfg)
}

/// AlexNet (Krizhevsky et al. 2012). Published `input_size` 227;
/// smallest clean scaled input 67.
///
/// # Panics
///
/// Panics when `input_size` is too small for the layer stack.
pub fn alexnet(cfg: &ModelConfig) -> Model {
    let mut net = Net::new(cfg.batch);
    let d = data(&mut net, "data", vec![cfg.input_size, cfg.input_size, 3]);
    let c1 = convolution(
        &mut net,
        "conv1",
        d,
        ConvSpec {
            out_channels: cfg.ch(96),
            kernel: 11,
            stride: 4,
            pad: 0,
        },
        cfg.seed,
    );
    let r1 = relu(&mut net, "relu1", c1);
    let n1 = lrn(&mut net, "norm1", r1, 5, 1e-4, 0.75);
    let p1 = max_pool(&mut net, "pool1", n1, 3, 2);
    let c2 = convolution(
        &mut net,
        "conv2",
        p1,
        ConvSpec {
            out_channels: cfg.ch(256),
            kernel: 5,
            stride: 1,
            pad: 2,
        },
        cfg.seed + 1,
    );
    let r2 = relu(&mut net, "relu2", c2);
    let n2 = lrn(&mut net, "norm2", r2, 5, 1e-4, 0.75);
    let p2 = max_pool(&mut net, "pool2", n2, 3, 2);
    let c3 = convolution(
        &mut net,
        "conv3",
        p2,
        ConvSpec::same(cfg.ch(384), 3),
        cfg.seed + 2,
    );
    let r3 = relu(&mut net, "relu3", c3);
    let c4 = convolution(
        &mut net,
        "conv4",
        r3,
        ConvSpec::same(cfg.ch(384), 3),
        cfg.seed + 3,
    );
    let r4 = relu(&mut net, "relu4", c4);
    let c5 = convolution(
        &mut net,
        "conv5",
        r4,
        ConvSpec::same(cfg.ch(256), 3),
        cfg.seed + 4,
    );
    let r5 = relu(&mut net, "relu5", c5);
    let p5 = max_pool(&mut net, "pool5", r5, 3, 2);
    let f6 = fully_connected(&mut net, "fc6", p5, cfg.ch(4096), cfg.seed + 5);
    let r6 = relu(&mut net, "relu6", f6);
    let f7 = fully_connected(&mut net, "fc7", r6, cfg.ch(4096), cfg.seed + 6);
    let r7 = relu(&mut net, "relu7", f7);
    let out = fully_connected(&mut net, "fc8", r7, cfg.classes, cfg.seed + 7);
    finish(net, d, out, cfg)
}

/// VGG-A / VGG-11 (Simonyan & Zisserman 2014). Published `input_size`
/// 224; any multiple of 32 works.
///
/// # Panics
///
/// Panics when `input_size` is not a multiple of 32.
pub fn vgg_a(cfg: &ModelConfig) -> Model {
    assert!(
        cfg.input_size.is_multiple_of(32),
        "VGG needs input divisible by 32 (five 2x2 pools)"
    );
    let mut net = Net::new(cfg.batch);
    let d = data(&mut net, "data", vec![cfg.input_size, cfg.input_size, 3]);
    let mut prev = d;
    let mut idx = 0;
    // (group, channels, convs-in-group) for VGG-A.
    for (g, (ch, convs)) in [(64, 1), (128, 1), (256, 2), (512, 2), (512, 2)]
        .into_iter()
        .enumerate()
    {
        for ci in 0..convs {
            let c = convolution(
                &mut net,
                &format!("conv{}_{}", g + 1, ci + 1),
                prev,
                ConvSpec::same(cfg.ch(ch), 3),
                cfg.seed + idx,
            );
            idx += 1;
            prev = relu(&mut net, &format!("relu{}_{}", g + 1, ci + 1), c);
        }
        prev = max_pool(&mut net, &format!("pool{}", g + 1), prev, 2, 2);
    }
    let f1 = fully_connected(&mut net, "fc6", prev, cfg.ch(4096), cfg.seed + idx);
    let rf1 = relu(&mut net, "relu6", f1);
    let f2 = fully_connected(&mut net, "fc7", rf1, cfg.ch(4096), cfg.seed + idx + 1);
    let rf2 = relu(&mut net, "relu7", f2);
    let out = fully_connected(&mut net, "fc8", rf2, cfg.classes, cfg.seed + idx + 2);
    finish(net, d, out, cfg)
}

/// The first `groups` convolution groups of VGG-A (conv+ReLU+pool), used
/// by the paper's Figure 13 microbenchmark (`groups = 1`) and Figure 15
/// breakdown (`groups = 1..=4`), without the classifier.
pub fn vgg_prefix(cfg: &ModelConfig, groups: usize) -> Model {
    assert!((1..=5).contains(&groups), "VGG has five groups");
    let mut net = Net::new(cfg.batch);
    let d = data(&mut net, "data", vec![cfg.input_size, cfg.input_size, 3]);
    let mut prev = d;
    let mut idx = 0;
    for (g, (ch, convs)) in [(64, 1), (128, 1), (256, 2), (512, 2), (512, 2)]
        .into_iter()
        .take(groups)
        .enumerate()
    {
        for ci in 0..convs {
            let c = convolution(
                &mut net,
                &format!("conv{}_{}", g + 1, ci + 1),
                prev,
                ConvSpec::same(cfg.ch(ch), 3),
                cfg.seed + idx,
            );
            idx += 1;
            prev = relu(&mut net, &format!("relu{}_{}", g + 1, ci + 1), c);
        }
        prev = max_pool(&mut net, &format!("pool{}", g + 1), prev, 2, 2);
    }
    // No classifier: drive the backward pass from an L2 loss against a
    // zero target so forward+backward timing is well defined.
    let target_dims = net.ensemble(prev).dims().to_vec();
    let target = data(&mut net, "target", target_dims);
    layers::l2_loss(&mut net, "loss", prev, target);
    Model {
        net,
        data: d,
        output: prev,
    }
}

/// OverFeat (fast model, Sermanet et al. 2013). Published `input_size`
/// 231; smallest clean scaled input 71.
///
/// # Panics
///
/// Panics when `input_size` is too small for the layer stack.
pub fn overfeat(cfg: &ModelConfig) -> Model {
    let mut net = Net::new(cfg.batch);
    let d = data(&mut net, "data", vec![cfg.input_size, cfg.input_size, 3]);
    let c1 = convolution(
        &mut net,
        "conv1",
        d,
        ConvSpec {
            out_channels: cfg.ch(96),
            kernel: 11,
            stride: 4,
            pad: 0,
        },
        cfg.seed,
    );
    let r1 = relu(&mut net, "relu1", c1);
    let p1 = max_pool(&mut net, "pool1", r1, 2, 2);
    let c2 = convolution(
        &mut net,
        "conv2",
        p1,
        ConvSpec {
            out_channels: cfg.ch(256),
            kernel: 5,
            stride: 1,
            pad: 0,
        },
        cfg.seed + 1,
    );
    let r2 = relu(&mut net, "relu2", c2);
    let p2 = max_pool(&mut net, "pool2", r2, 2, 2);
    let c3 = convolution(
        &mut net,
        "conv3",
        p2,
        ConvSpec::same(cfg.ch(512), 3),
        cfg.seed + 2,
    );
    let r3 = relu(&mut net, "relu3", c3);
    let c4 = convolution(
        &mut net,
        "conv4",
        r3,
        ConvSpec::same(cfg.ch(1024), 3),
        cfg.seed + 3,
    );
    let r4 = relu(&mut net, "relu4", c4);
    let c5 = convolution(
        &mut net,
        "conv5",
        r4,
        ConvSpec::same(cfg.ch(1024), 3),
        cfg.seed + 4,
    );
    let r5 = relu(&mut net, "relu5", c5);
    let p5 = max_pool(&mut net, "pool5", r5, 2, 2);
    let f6 = fully_connected(&mut net, "fc6", p5, cfg.ch(3072), cfg.seed + 5);
    let r6 = relu(&mut net, "relu6", f6);
    let f7 = fully_connected(&mut net, "fc7", r6, cfg.ch(4096), cfg.seed + 6);
    let r7 = relu(&mut net, "relu7", f7);
    let out = fully_connected(&mut net, "fc8", r7, cfg.classes, cfg.seed + 7);
    finish(net, d, out, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::{compile, OptLevel};

    fn small(input: usize) -> ModelConfig {
        ModelConfig {
            batch: 2,
            input_size: input,
            channel_div: 16,
            classes: 10,
            with_loss: true,
            seed: 7,
        }
    }

    #[test]
    fn mlp_compiles_and_names_match_paper_example() {
        let m = mlp(&small(16), &[20, 10]);
        assert!(m.net.find("ip1").is_some());
        assert!(m.net.find("loss").is_some());
        compile(&m.net, &OptLevel::full()).unwrap();
    }

    #[test]
    fn lenet_compiles() {
        let m = lenet(&small(12));
        compile(&m.net, &OptLevel::full()).unwrap();
    }

    #[test]
    fn alexnet_structure_and_compile() {
        let m = alexnet(&small(67));
        // Five convs, three FCs, two LRNs, three pools.
        for e in ["conv5", "fc8", "norm2", "pool5"] {
            assert!(m.net.find(e).is_some(), "missing {e}");
        }
        let compiled = compile(&m.net, &OptLevel::full()).unwrap();
        assert!(compiled.stats.gemms_matched >= 8);
    }

    #[test]
    fn vgg_a_compiles_and_fuses_groups() {
        let m = vgg_a(&small(32));
        let compiled = compile(&m.net, &OptLevel::full()).unwrap();
        // Every single-conv group fuses conv+relu+pool.
        assert!(compiled.stats.fusions >= 4, "{:?}", compiled.stats);
    }

    #[test]
    fn vgg_prefix_matches_group_count() {
        let m = vgg_prefix(&small(32), 1);
        assert!(m.net.find("conv1_1").is_some());
        assert!(m.net.find("conv2_1").is_none());
        compile(&m.net, &OptLevel::full()).unwrap();
    }

    #[test]
    fn overfeat_compiles() {
        let m = overfeat(&small(71));
        compile(&m.net, &OptLevel::full()).unwrap();
    }

    #[test]
    #[should_panic(expected = "divisible by 32")]
    fn vgg_rejects_bad_input_size() {
        vgg_a(&small(33));
    }
}
