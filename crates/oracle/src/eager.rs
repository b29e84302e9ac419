//! Eager trace execution: step a recorded trace through the reference
//! interpreter, one op-group at a time, with no optimization passes.
//!
//! This is the "define-by-run" counterpart of the JIT path. A
//! [`Trace`] can either be compiled through the full pass pipeline and
//! executed on the optimized runtime — cached under its key in a
//! [`ProgramCache`](latte_runtime::ProgramCache) — or handed to an
//! [`EagerSession`] here, which synthesizes it at
//! [`OptLevel::none`] and *interprets* the groups directly, advancing
//! one group per [`EagerSession::step`] the way an eager framework runs
//! one kernel per op.
//!
//! Because the interpreter's naive GEMM and the executor's narrow-GEMM
//! fast path accumulate in the same order, the two paths agree **bit for
//! bit** on every primary activation buffer and on the loss — the
//! differential the `trace_eager` integration test asserts across all
//! nine [`standard_configs`](crate::standard_configs) opt levels.

use latte_core::{compile, OptLevel, Trace, TraceKey};
use latte_runtime::RuntimeError;

use crate::interp::Interpreter;

/// An eager execution of one recorded trace: the trace's net synthesized
/// without optimization and stepped by the reference interpreter.
#[derive(Debug)]
pub struct EagerSession {
    key: TraceKey,
    interp: Interpreter,
    next_group: usize,
}

impl EagerSession {
    /// Synthesizes the trace's recorded net at [`OptLevel::none`] and
    /// prepares to step it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Compile`] when the recorded net fails synthesis;
    /// interpreter construction errors pass through.
    pub fn new(trace: &Trace) -> Result<Self, RuntimeError> {
        let compiled = compile(trace.net(), &OptLevel::none()).map_err(|e| {
            RuntimeError::Compile {
                detail: e.to_string(),
            }
        })?;
        Ok(EagerSession {
            key: trace.key(),
            interp: Interpreter::new(compiled)?,
            next_group: 0,
        })
    }

    /// The trace key this session executes (the same key the JIT path
    /// caches under).
    pub fn key(&self) -> TraceKey {
        self.key
    }

    /// Feeds a data ensemble for the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates interpreter input errors.
    pub fn set_input(&mut self, ensemble: &str, data: &[f32]) -> Result<(), RuntimeError> {
        self.interp.set_input(ensemble, data)
    }

    /// Advances eager execution by one forward op-group. Returns `false`
    /// when every group has run (the forward pass is complete).
    ///
    /// # Errors
    ///
    /// See [`Interpreter::forward`].
    pub fn step(&mut self) -> Result<bool, RuntimeError> {
        if self.next_group >= self.interp.forward_groups() {
            return Ok(false);
        }
        self.interp.run_forward_group(self.next_group)?;
        self.next_group += 1;
        Ok(self.next_group < self.interp.forward_groups())
    }

    /// Steps the remaining forward groups to completion.
    ///
    /// # Errors
    ///
    /// See [`EagerSession::step`].
    pub fn forward(&mut self) -> Result<(), RuntimeError> {
        while self.step()? {}
        self.next_group = self.interp.forward_groups();
        Ok(())
    }

    /// Runs the backward pass, then rewinds the stepper so another
    /// forward can begin.
    ///
    /// # Errors
    ///
    /// See [`Interpreter::backward`].
    pub fn backward(&mut self) -> Result<(), RuntimeError> {
        self.interp.backward()?;
        self.next_group = 0;
        Ok(())
    }

    /// Reads a named buffer (whole batch for batched buffers).
    ///
    /// # Errors
    ///
    /// Propagates interpreter lookup errors.
    pub fn read_buffer(&self, name: &str) -> Result<Vec<f32>, RuntimeError> {
        self.interp.read_buffer(name)
    }

    /// The mean loss after a completed forward pass.
    pub fn loss(&self) -> f32 {
        self.interp.loss()
    }

    /// The underlying interpreter (for buffer-table introspection in
    /// differential harnesses).
    pub fn interp(&self) -> &Interpreter {
        &self.interp
    }
}
