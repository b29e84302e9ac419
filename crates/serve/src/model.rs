//! A served model: one compiled program plus the input / output
//! signature the server validates requests against.
//!
//! Dynamic batching means the batch size is not known until flush time,
//! and the compiler does not need it: synthesis and every pass work on
//! the per-item program, and the batch is the outermost loop the runtime
//! drives. So a model's [`NetFactory`] is called **once**, at batch 1,
//! and compiled once; [`crate::PlanCache`] lowers that program once too,
//! and runs it at whatever micro-batch size a flush produces
//! ([`latte_runtime::CompiledProgram::at_batch`]). Every size therefore
//! computes bit-identical per-sample results by construction.

use latte_core::dsl::Net;
use latte_core::{compile, CompiledNet, OptLevel};

use crate::error::ServeError;

/// The network factory: builds the model's `Net` for a given batch size.
pub type NetFactory = Box<dyn Fn(usize) -> Net + Send + Sync>;

/// A model registered with the server: name, the program compiled from
/// the factory's batch-1 net, its fingerprint, and the request signature
/// read off it.
pub struct Model {
    name: String,
    compiled: CompiledNet,
    fingerprint: u64,
    inputs: Vec<(String, usize)>,
    outputs: Vec<String>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("name", &self.name)
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish_non_exhaustive()
    }
}

impl Model {
    /// Registers a model: builds the factory's net at batch 1, compiles
    /// it — the only compile the model ever costs — records the
    /// plan-cache fingerprint and the per-item input signature, and
    /// checks that every requested output names a buffer of the compiled
    /// net.
    ///
    /// # Errors
    ///
    /// [`ServeError::Compile`] when the compile fails or an output buffer
    /// does not exist.
    pub fn new(
        name: impl Into<String>,
        factory: NetFactory,
        opt: OptLevel,
        outputs: Vec<String>,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        let compiled = compile(&factory(1), &opt).map_err(|e| ServeError::Compile {
            detail: format!("{name}: {e}"),
        })?;
        let inputs = compiled.inputs.iter().map(|i| (i.ensemble.clone(), i.len)).collect();
        if let Some(out) = outputs.iter().find(|out| compiled.buffer(out).is_none()) {
            return Err(ServeError::Compile {
                detail: format!("{name}: output buffer `{out}` does not exist"),
            });
        }
        Ok(Model {
            name,
            fingerprint: compiled.fingerprint(),
            compiled,
            inputs,
            outputs,
        })
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The batch-independent plan-cache fingerprint, computed once at
    /// registration.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The model's program, compiled once at registration (at batch 1;
    /// the plan cache lowers it once and runs it at every micro-batch
    /// size).
    pub(crate) fn compiled(&self) -> &CompiledNet {
        &self.compiled
    }

    /// The request signature: every `(ensemble, per_item_len)` a request
    /// must supply.
    pub fn inputs(&self) -> &[(String, usize)] {
        &self.inputs
    }

    /// The buffers read back per batch item into each response.
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// Validates a request's inputs against the signature: every declared
    /// ensemble present exactly once with its exact per-item length, and
    /// nothing extra.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] describing the first mismatch.
    pub fn validate(&self, inputs: &[(String, Vec<f32>)]) -> Result<(), ServeError> {
        for (ensemble, len) in &self.inputs {
            let matches: Vec<_> = inputs.iter().filter(|(n, _)| n == ensemble).collect();
            match matches.as_slice() {
                [] => {
                    return Err(ServeError::BadRequest {
                        detail: format!("missing input `{ensemble}`"),
                    })
                }
                [(_, data)] => {
                    if data.len() != *len {
                        return Err(ServeError::BadRequest {
                            detail: format!(
                                "input `{ensemble}` has {} elements, expected {len}",
                                data.len()
                            ),
                        });
                    }
                }
                _ => {
                    return Err(ServeError::BadRequest {
                        detail: format!("input `{ensemble}` supplied more than once"),
                    })
                }
            }
        }
        for (n, _) in inputs {
            if !self.inputs.iter().any(|(ensemble, _)| ensemble == n) {
                return Err(ServeError::BadRequest {
                    detail: format!("unknown input `{n}`"),
                });
            }
        }
        Ok(())
    }
}
