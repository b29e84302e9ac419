//! The sequential-network harness shared by both baseline stacks.

use crate::spec::{out_shape, BlobShape, LayerSpec};

/// An activation blob: batched values and gradients, item-major.
#[derive(Debug, Clone)]
pub struct Blob {
    /// Per-item shape.
    pub shape: BlobShape,
    /// `batch * len` values.
    pub data: Vec<f32>,
    /// `batch * len` gradients.
    pub grad: Vec<f32>,
}

impl Blob {
    /// Allocates a zero blob.
    pub fn new(shape: BlobShape, batch: usize) -> Self {
        let len = shape.0 * shape.1 * shape.2 * batch;
        Blob {
            shape,
            data: vec![0.0; len],
            grad: vec![0.0; len],
        }
    }

    /// Elements per item.
    pub fn per_item(&self) -> usize {
        self.shape.0 * self.shape.1 * self.shape.2
    }
}

/// One layer of a baseline network.
pub trait Layer {
    /// Computes `top.data` from `bottom.data`.
    fn forward(&mut self, bottom: &Blob, top: &mut Blob, batch: usize);

    /// Computes `bottom.grad` from `top.grad` (and accumulates parameter
    /// gradients). `bottom.grad` is pre-zeroed.
    fn backward(&mut self, top: &Blob, bottom: &mut Blob, batch: usize);

    /// Applies SGD to the layer's parameters.
    fn sgd_step(&mut self, lr: f32) {
        let _ = lr;
    }

    /// Parameter and gradient views for tests: `(values, grads)` pairs.
    fn params_mut(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        Vec::new()
    }

    /// Receives the batch labels (loss layers override this).
    fn set_labels(&mut self, labels: &[f32]) {
        let _ = labels;
    }

    /// Human-readable layer label.
    fn label(&self) -> String;
}

/// Builds one layer of a backend from a spec.
pub trait Backend {
    /// Constructs the layer for `spec` with the given input shape.
    fn build(spec: &LayerSpec, input: BlobShape, seed: u64) -> Box<dyn Layer>;
}

/// A sequential baseline network.
pub struct SequentialNet {
    batch: usize,
    layers: Vec<Box<dyn Layer>>,
    /// `blobs[0]` is the input; `blobs[i + 1]` is layer `i`'s output.
    blobs: Vec<Blob>,
    labels: Vec<f32>,
    /// Index of the loss layer, when present.
    loss_layer: Option<usize>,
}

impl std::fmt::Debug for SequentialNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = self.layers.iter().map(|l| l.label()).collect();
        f.debug_struct("SequentialNet")
            .field("batch", &self.batch)
            .field("layers", &labels)
            .finish()
    }
}

impl SequentialNet {
    /// Builds a network from specs with backend `B`.
    pub fn build<B: Backend>(
        input: BlobShape,
        batch: usize,
        specs: &[LayerSpec],
        seed: u64,
    ) -> Self {
        let mut blobs = vec![Blob::new(input, batch)];
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(specs.len());
        let mut shape = input;
        let mut loss_layer = None;
        for (i, spec) in specs.iter().enumerate() {
            if matches!(spec, LayerSpec::SoftmaxLoss) {
                loss_layer = Some(i);
            }
            layers.push(B::build(spec, shape, seed + i as u64));
            shape = out_shape(spec, shape);
            blobs.push(Blob::new(shape, batch));
        }
        SequentialNet {
            batch,
            layers,
            blobs,
            labels: vec![0.0; batch],
            loss_layer,
        }
    }

    /// The batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Writes the input batch (item-major `(c, y, x)` images).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_input(&mut self, input: &[f32]) {
        assert_eq!(input.len(), self.blobs[0].data.len(), "input length");
        self.blobs[0].data.copy_from_slice(input);
    }

    /// Sets the labels for the loss layer.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_labels(&mut self, labels: &[f32]) {
        assert_eq!(labels.len(), self.batch, "label length");
        self.labels.copy_from_slice(labels);
    }

    /// Runs the forward pass; returns the mean loss when a loss layer is
    /// present.
    pub fn forward(&mut self) -> f32 {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if Some(i) == self.loss_layer {
                layer.set_labels(&self.labels);
            }
            let (bottoms, tops) = self.blobs.split_at_mut(i + 1);
            layer.forward(&bottoms[i], &mut tops[0], self.batch);
        }
        match self.loss_layer {
            Some(i) => self.blobs[i + 1].data.iter().sum::<f32>() / self.batch as f32,
            None => 0.0,
        }
    }

    /// Runs the backward pass (gradients seeded by the loss layer).
    pub fn backward(&mut self) {
        for b in &mut self.blobs {
            b.grad.fill(0.0);
        }
        for i in (0..self.layers.len()).rev() {
            let (bottoms, tops) = self.blobs.split_at_mut(i + 1);
            self.layers[i].backward(&tops[0], &mut bottoms[i], self.batch);
        }
    }

    /// Applies SGD to every layer.
    pub fn sgd_step(&mut self, lr: f32) {
        for l in &mut self.layers {
            l.sgd_step(lr);
        }
    }

    /// The output blob of the last layer.
    pub fn output(&self) -> &Blob {
        self.blobs.last().expect("at least the input blob")
    }

    /// The output blob of layer `i`.
    pub fn blob(&self, i: usize) -> &Blob {
        &self.blobs[i]
    }

    /// Layer access for weight-injection in comparison tests.
    pub fn layer_mut(&mut self, i: usize) -> &mut dyn Layer {
        self.layers[i].as_mut()
    }
}
