//! A minimal layer-specification language shared by the Caffe-style and
//! Mocha-style baseline stacks, so both build structurally identical
//! networks to the Latte models they are compared against.

/// One layer of a sequential network. Spatial data is `(c, y, x)` per
/// item (Caffe's layout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution.
    Conv {
        /// Output channels.
        out_channels: usize,
        /// Square kernel.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Rectified linear unit (in place).
    ReLU,
    /// Max pooling.
    MaxPool {
        /// Window.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Local response normalization across channels.
    Lrn {
        /// Window size.
        size: usize,
        /// Alpha.
        alpha: f32,
        /// Beta.
        beta: f32,
    },
    /// Fully-connected (inner product).
    Fc {
        /// Output width.
        out: usize,
    },
    /// Softmax + cross-entropy loss over the final activations.
    SoftmaxLoss,
}

/// Shape of a blob: `(channels, height, width)`; FC activations use
/// `(n, 1, 1)`.
pub type BlobShape = (usize, usize, usize);

/// Output shape of one layer.
///
/// # Panics
///
/// Panics when the window does not fit.
pub fn out_shape(spec: &LayerSpec, input: BlobShape) -> BlobShape {
    let (c, h, w) = input;
    match *spec {
        LayerSpec::Conv {
            out_channels,
            kernel,
            stride,
            pad,
        } => {
            let oh = (h + 2 * pad - kernel) / stride + 1;
            let ow = (w + 2 * pad - kernel) / stride + 1;
            (out_channels, oh, ow)
        }
        LayerSpec::ReLU | LayerSpec::Lrn { .. } => (c, h, w),
        LayerSpec::MaxPool { kernel, stride } => {
            ((c), (h - kernel) / stride + 1, (w - kernel) / stride + 1)
        }
        LayerSpec::Fc { out } => (out, 1, 1),
        LayerSpec::SoftmaxLoss => (1, 1, 1),
    }
}

/// AlexNet as a spec list (channels divided by `div`).
pub fn alexnet_specs(div: usize, classes: usize) -> Vec<LayerSpec> {
    let ch = |c: usize| (c / div).max(1);
    vec![
        LayerSpec::Conv {
            out_channels: ch(96),
            kernel: 11,
            stride: 4,
            pad: 0,
        },
        LayerSpec::ReLU,
        LayerSpec::Lrn {
            size: 5,
            alpha: 1e-4,
            beta: 0.75,
        },
        LayerSpec::MaxPool {
            kernel: 3,
            stride: 2,
        },
        LayerSpec::Conv {
            out_channels: ch(256),
            kernel: 5,
            stride: 1,
            pad: 2,
        },
        LayerSpec::ReLU,
        LayerSpec::Lrn {
            size: 5,
            alpha: 1e-4,
            beta: 0.75,
        },
        LayerSpec::MaxPool {
            kernel: 3,
            stride: 2,
        },
        LayerSpec::Conv {
            out_channels: ch(384),
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::Conv {
            out_channels: ch(384),
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::Conv {
            out_channels: ch(256),
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::MaxPool {
            kernel: 3,
            stride: 2,
        },
        LayerSpec::Fc { out: ch(4096) },
        LayerSpec::ReLU,
        LayerSpec::Fc { out: ch(4096) },
        LayerSpec::ReLU,
        LayerSpec::Fc { out: classes },
        LayerSpec::SoftmaxLoss,
    ]
}

/// VGG-A as a spec list.
pub fn vgg_a_specs(div: usize, classes: usize) -> Vec<LayerSpec> {
    let ch = |c: usize| (c / div).max(1);
    let mut specs = Vec::new();
    for (chn, convs) in [(64, 1), (128, 1), (256, 2), (512, 2), (512, 2)] {
        for _ in 0..convs {
            specs.push(LayerSpec::Conv {
                out_channels: ch(chn),
                kernel: 3,
                stride: 1,
                pad: 1,
            });
            specs.push(LayerSpec::ReLU);
        }
        specs.push(LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        });
    }
    specs.push(LayerSpec::Fc { out: ch(4096) });
    specs.push(LayerSpec::ReLU);
    specs.push(LayerSpec::Fc { out: ch(4096) });
    specs.push(LayerSpec::ReLU);
    specs.push(LayerSpec::Fc { out: classes });
    specs.push(LayerSpec::SoftmaxLoss);
    specs
}

/// The first `groups` VGG-A convolution groups (the Figure-13/15
/// microbenchmark), without classifier or loss.
pub fn vgg_prefix_specs(div: usize, groups: usize) -> Vec<LayerSpec> {
    let ch = |c: usize| (c / div).max(1);
    let mut specs = Vec::new();
    for (chn, convs) in [(64, 1), (128, 1), (256, 2), (512, 2), (512, 2)]
        .into_iter()
        .take(groups)
    {
        for _ in 0..convs {
            specs.push(LayerSpec::Conv {
                out_channels: ch(chn),
                kernel: 3,
                stride: 1,
                pad: 1,
            });
            specs.push(LayerSpec::ReLU);
        }
        specs.push(LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        });
    }
    specs
}

/// OverFeat (fast) as a spec list.
pub fn overfeat_specs(div: usize, classes: usize) -> Vec<LayerSpec> {
    let ch = |c: usize| (c / div).max(1);
    vec![
        LayerSpec::Conv {
            out_channels: ch(96),
            kernel: 11,
            stride: 4,
            pad: 0,
        },
        LayerSpec::ReLU,
        LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        },
        LayerSpec::Conv {
            out_channels: ch(256),
            kernel: 5,
            stride: 1,
            pad: 0,
        },
        LayerSpec::ReLU,
        LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        },
        LayerSpec::Conv {
            out_channels: ch(512),
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::Conv {
            out_channels: ch(1024),
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::Conv {
            out_channels: ch(1024),
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        },
        LayerSpec::Fc { out: ch(3072) },
        LayerSpec::ReLU,
        LayerSpec::Fc { out: ch(4096) },
        LayerSpec::ReLU,
        LayerSpec::Fc { out: classes },
        LayerSpec::SoftmaxLoss,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_chain_through_alexnet() {
        let mut shape = (3, 67, 67);
        for spec in alexnet_specs(8, 10) {
            shape = out_shape(&spec, shape);
        }
        assert_eq!(shape, (1, 1, 1));
    }

    #[test]
    fn vgg_shapes_reach_unit_spatial() {
        let mut shape = (3, 32, 32);
        for spec in vgg_a_specs(8, 10).iter().take(21) {
            shape = out_shape(spec, shape);
        }
        assert_eq!((shape.1, shape.2), (1, 1));
    }

    #[test]
    fn prefix_spec_counts() {
        assert_eq!(vgg_prefix_specs(1, 1).len(), 3); // conv relu pool
        assert_eq!(vgg_prefix_specs(1, 4).len(), 3 + 3 + 5 + 5);
    }
}
