//! The compiler driver: analysis → synthesis → optimization.

use std::collections::HashMap;

use latte_tensor::Shape;

use crate::dsl::Net;
use crate::error::CompileError;
use crate::pass::{PassContext, PassManager, PipelineState};
use crate::program::{CompileStats, CompiledNet};
use crate::synth::{synthesize, SynthOptions};

/// Which optimizations the compiler applies.
///
/// Each flag gates one of the paper's optimizations independently so the
/// Figure-13 per-optimization sweep can be reproduced. [`OptLevel::full`]
/// is the default production configuration; [`OptLevel::none`] yields the
/// naively synthesized program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptLevel {
    /// Replace multiply-accumulate nests with GEMM library calls.
    pub pattern_match: bool,
    /// Tile the outermost spatial loop.
    pub tiling: bool,
    /// Fuse adjacent tiled groups across layers (requires `tiling`).
    pub fusion: bool,
    /// Mark tile loops parallel (the runtime runs such a group's items in
    /// parallel, each item's tile loop serially).
    pub parallel: bool,
    /// Let the runtime run element loops strip-mined over 64-lane
    /// columns instead of one element at a time (the stand-in for
    /// `#pragma simd` vectorization).
    pub vectorize: bool,
    /// Shared-variable buffer optimizations: drop uniform staging
    /// dimensions, alias all-to-all inputs.
    pub shared_buffers: bool,
    /// Run activation ensembles in place.
    pub inplace_activation: bool,
    /// Skip gradients flowing only into data ensembles.
    pub skip_data_grad: bool,
    /// Explicit tile size for the spatial loop (used when it divides the
    /// extent); `None` picks from the preferred sizes. Exposed for the
    /// tile-size ablation.
    pub tile_size: Option<usize>,
}

impl OptLevel {
    /// Every *optimization pass* disabled: the program exactly as
    /// synthesized. Shared-variable analysis (buffer sharing, in-place
    /// activations) stays on — in the paper it is part of synthesis, not
    /// an optional pass; disable it explicitly with
    /// [`OptLevel::with_shared_buffers`] for the ablation.
    pub fn none() -> Self {
        OptLevel {
            pattern_match: false,
            tiling: false,
            fusion: false,
            parallel: false,
            vectorize: false,
            shared_buffers: true,
            inplace_activation: true,
            skip_data_grad: true,
            tile_size: None,
        }
    }

    /// Everything enabled (the paper's "Latte" configuration).
    pub fn full() -> Self {
        OptLevel {
            pattern_match: true,
            tiling: true,
            fusion: true,
            parallel: true,
            vectorize: true,
            shared_buffers: true,
            inplace_activation: true,
            skip_data_grad: true,
            tile_size: None,
        }
    }

    /// Parallelization only — the paper's Figure-13 baseline bar
    /// ("Latte compiler outperforms Caffe by more than 7x" from
    /// parallelization alone).
    pub fn parallel_only() -> Self {
        OptLevel {
            parallel: true,
            ..OptLevel::none()
        }
    }

    /// Builder-style toggles.
    pub fn with_pattern_match(mut self, on: bool) -> Self {
        self.pattern_match = on;
        self
    }

    /// Toggles tiling.
    pub fn with_tiling(mut self, on: bool) -> Self {
        self.tiling = on;
        self
    }

    /// Toggles fusion.
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.fusion = on;
        self
    }

    /// Toggles native inner-loop lowering.
    pub fn with_vectorize(mut self, on: bool) -> Self {
        self.vectorize = on;
        self
    }

    /// Toggles shared-variable buffer optimizations.
    pub fn with_shared_buffers(mut self, on: bool) -> Self {
        self.shared_buffers = on;
        self
    }

    /// Requests an explicit tile size.
    pub fn with_tile_size(mut self, tile: usize) -> Self {
        self.tile_size = Some(tile);
        self
    }
}

impl Default for OptLevel {
    fn default() -> Self {
        OptLevel::full()
    }
}

/// Compiles a network into an executable program.
///
/// The pipeline is exactly the paper's: shared-variable analysis guides
/// synthesis; the synthesized loop nests then flow through the
/// [`PassManager`]'s staged pipeline — GEMM pattern matching, cross-layer
/// fusion, tiling, parallel marking, vectorize marking — with the
/// `OptLevel` acting as the pipeline builder (every level runs the same
/// pass sequence; flags only enable/disable individual passes). The
/// manager records per-pass wall time and IR-size deltas in
/// [`CompileStats::passes`](crate::CompileStats), verifies the IR between
/// passes (debug builds always, release with `LATTE_VERIFY_IR=1`), and
/// honours `LATTE_DUMP_IR=<dir>` textual snapshots. The result is handed
/// to `latte-runtime` for lowering to native kernels and execution.
///
/// # Errors
///
/// Returns a [`CompileError`] for cyclic graphs, invalid ensembles, and
/// malformed mappings, or [`CompileError::Verify`] when a pass emits
/// malformed IR (a compiler bug, not a user error).
pub fn compile(net: &Net, opt: &OptLevel) -> Result<CompiledNet, CompileError> {
    compile_with(net, opt, &PassManager::standard())
}

/// [`compile`] with an explicit pass manager — the hook tests use to
/// inject extra (or sabotaged) passes and to force verification on or
/// off.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with(
    net: &Net,
    opt: &OptLevel,
    passes: &PassManager,
) -> Result<CompiledNet, CompileError> {
    let synth_opts = SynthOptions {
        shared_buffers: opt.shared_buffers,
        inplace_activation: opt.inplace_activation,
        skip_data_grad: opt.skip_data_grad,
    };
    let s = synthesize(net, &synth_opts)?;

    let shapes: HashMap<String, Shape> = s
        .buffers
        .iter()
        .map(|b| (b.name.clone(), b.shape.clone()))
        .collect();

    let mut stats = CompileStats {
        aliased_buffers: s.aliased_buffers,
        dims_dropped: s.dims_dropped,
        ..CompileStats::default()
    };

    let mut state = PipelineState {
        forward: s.forward,
        backward: s.backward,
    };
    let ctx = PassContext {
        shapes: &shapes,
        buffers: &s.buffers,
        opt,
    };
    passes.run(&mut state, &ctx, &mut stats)?;

    // Record each group's batch-parallel decision (any loop the
    // parallel-marking pass annotated) so reports and bench runs can
    // print the schedule without re-deriving it from the IR.
    stats.group_parallel = state
        .forward
        .iter()
        .chain(&state.backward)
        .map(|g| {
            let mut parallel = false;
            for stmt in &g.stmts {
                stmt.visit(&mut |st| {
                    if let latte_ir::Stmt::For(l) = st {
                        parallel |= l.annot.parallel;
                    }
                });
            }
            (g.name.clone(), parallel)
        })
        .collect();
    stats.groups_parallel = stats.group_parallel.iter().filter(|(_, p)| *p).count();
    stats.groups_serial = stats.group_parallel.len() - stats.groups_parallel;

    // Synthesis grew each group's statement list by pushing, and a `Stmt`
    // is a few hundred bytes; the program outlives the compile, so drop
    // that slack.
    for g in state.forward.iter_mut().chain(&mut state.backward) {
        g.stmts.shrink_to_fit();
    }

    Ok(CompiledNet {
        batch: net.batch(),
        buffers: s.buffers,
        forward: state.forward,
        backward: state.backward,
        params: s.params,
        inputs: s.inputs,
        losses: s.losses,
        param_inits: s.param_inits.into(),
        vectorize: opt.vectorize,
        stats,
    })
}
