//! # latte-nn
//!
//! The Latte standard library: layer constructors (fully-connected,
//! convolution — dense and grouped —, pooling, activations, LRN,
//! batch-norm, scale/shift, dropout, losses, element-wise blocks, channel
//! concatenation for Inception-style branches), the recurrent LSTM unit,
//! and the model zoo the paper evaluates (AlexNet, VGG-A, OverFeat)
//! plus MLP and LeNet.
//!
//! Everything here is ordinary user code over the `latte-core` DSL — no
//! layer has compiler support; the compiler only sees ensembles,
//! connections, and neuron bodies.
//!
//! # Examples
//!
//! The paper's Figure-7 MLP:
//!
//! ```
//! use latte_nn::models::{mlp, ModelConfig};
//! use latte_core::{compile, OptLevel};
//!
//! let cfg = ModelConfig { batch: 8, input_size: 64, ..ModelConfig::default() };
//! let model = mlp(&cfg, &[20]);
//! let compiled = compile(&model.net, &OptLevel::full())?;
//! assert!(compiled.stats.gemms_matched > 0);
//! # Ok::<(), latte_core::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod layers;
pub mod models;
pub mod rnn;
pub mod varlen;
