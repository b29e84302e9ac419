//! The Latte language surface: neurons, ensembles, connections, networks.
//!
//! This module is the Rust rendering of the paper's Section 3. A network
//! is a [`Net`] of [`Ensemble`]s joined by [`Mapping`]s; every ensemble is
//! a homogeneous grid of one [`NeuronType`], whose forward/backward bodies
//! are written against the `latte-ir` expression language through
//! [`BodyBuilder`].

mod ensemble;
mod mapping;
mod net;
mod neuron;
pub mod stdlib;

pub use ensemble::{Ensemble, EnsembleKind, FieldStorage, NormalizationSpec, ParamSpec};
pub use mapping::{Mapping, SourceRange, SourceRegion};
pub use net::{Connection, EnsembleId, Net};
pub use neuron::{
    body_buf, BodyBuilder, BodyCtx, FieldLen, FieldSpec, NeuronType, NeuronTypeBuilder,
};
