//! The staged pass pipeline: a [`Pass`] trait, the concrete passes
//! wrapping each of the paper's optimizations, and the [`PassManager`]
//! that drives them with instrumentation and inter-pass verification.
//!
//! [`compile`](crate::compile) runs the *same* pipeline for every
//! [`OptLevel`]: the level does not choose which functions get called, it
//! only decides which passes report `enabled`. Disabled passes are
//! skipped but still get a [`PassStat`] row, so
//! [`CompileStats::passes`](crate::CompileStats) has identical structure
//! across all configurations.
//!
//! Instrumentation:
//!
//! * per-pass wall time and IR-size deltas land in
//!   [`CompileStats::passes`](crate::CompileStats);
//! * `LATTE_DUMP_IR=<dir>` writes a textual snapshot of the whole program
//!   (buffer table + both phases) after synthesis and after every enabled
//!   pass, named `compile<seq>-<step>-<pass>.txt`;
//! * the [`latte_ir::verify`] checker runs on the synthesized program and
//!   after every enabled pass — always in debug builds, opt-in in release
//!   via `LATTE_VERIFY_IR=1` (and opt-out in debug via
//!   `LATTE_VERIFY_IR=0`). A failure becomes
//!   [`CompileError::Verify`] naming the offending pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use latte_ir::{BufferDecl, Stmt};
use latte_tensor::Shape;

use crate::compile::OptLevel;
use crate::error::CompileError;
use crate::opt;
use crate::program::{CompileStats, Group, PassStat};

/// The IR flowing through the pipeline: both phases' groups.
#[derive(Debug, Clone)]
pub struct PipelineState {
    /// Forward groups in execution order.
    pub forward: Vec<Group>,
    /// Backward groups in execution order.
    pub backward: Vec<Group>,
}

impl PipelineState {
    fn groups(&self) -> usize {
        self.forward.len() + self.backward.len()
    }

    fn stmts(&self) -> usize {
        self.forward.iter().chain(&self.backward).map(Group::stmt_count).sum()
    }

    /// `(group name, statements)` pairs across both phases, in execution
    /// order — the shape [`latte_ir::verify_program`] consumes.
    pub fn groups_for_verify(&self) -> impl Iterator<Item = (&str, &[Stmt])> {
        self.forward
            .iter()
            .chain(&self.backward)
            .map(|g| (g.name.as_str(), g.stmts.as_slice()))
    }
}

/// Read-only context every pass receives.
pub struct PassContext<'a> {
    /// Per-buffer shapes (per-item, batch dimension excluded).
    pub shapes: &'a HashMap<String, Shape>,
    /// The buffer table (declaration order = allocation order).
    pub buffers: &'a [BufferDecl],
    /// The optimization level the net is being compiled at.
    pub opt: &'a OptLevel,
}

/// One named compiler stage.
pub trait Pass {
    /// Stable name, used in stats rows, dump file names, and
    /// [`CompileError::Verify`] diagnostics.
    fn name(&self) -> &'static str;

    /// Whether this `OptLevel` turns the pass on. Disabled passes are
    /// skipped (but still recorded).
    fn enabled(&self, opt: &OptLevel) -> bool;

    /// Transforms the IR in place, accumulating aggregate counters.
    fn run(&self, state: &mut PipelineState, ctx: &PassContext<'_>, stats: &mut CompileStats);
}

/// Replaces multiply-accumulate nests with GEMM library calls (the
/// paper's §5.3 kernel pattern matching).
struct PatternMatchPass;

impl Pass for PatternMatchPass {
    fn name(&self) -> &'static str {
        "pattern-match"
    }

    fn enabled(&self, opt: &OptLevel) -> bool {
        opt.pattern_match
    }

    fn run(&self, state: &mut PipelineState, ctx: &PassContext<'_>, stats: &mut CompileStats) {
        stats.gemms_matched += opt::pattern_match(&mut state.forward, ctx.shapes);
        stats.gemms_matched += opt::pattern_match(&mut state.backward, ctx.shapes);
    }
}

/// Merges producer→consumer chains into single tile loops (the paper's
/// §5.4.2 cross-layer fusion). Requires tiling: a fused chain *is* a tile
/// loop.
struct FusionPass;

impl Pass for FusionPass {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn enabled(&self, opt: &OptLevel) -> bool {
        opt.tiling && opt.fusion
    }

    fn run(&self, state: &mut PipelineState, ctx: &PassContext<'_>, stats: &mut CompileStats) {
        for phase in [&mut state.forward, &mut state.backward] {
            *phase = opt::fuse_chains(std::mem::take(phase), ctx.opt.tile_size, stats);
        }
    }
}

/// Tiles the outermost spatial loop of every group the fusion pass left
/// untiled (the paper's §5.4.1 loop tiling).
struct TilingPass;

impl Pass for TilingPass {
    fn name(&self) -> &'static str {
        "tiling"
    }

    fn enabled(&self, opt: &OptLevel) -> bool {
        opt.tiling
    }

    fn run(&self, state: &mut PipelineState, ctx: &PassContext<'_>, stats: &mut CompileStats) {
        for phase in [&mut state.forward, &mut state.backward] {
            *phase = opt::tile_untiled(std::mem::take(phase), ctx.opt.tile_size, stats);
        }
    }
}

/// Marks tile loops parallel (the paper's §5.4.3). The runtime runs a
/// marked group item-parallel, each item's tile loop serially (ROADMAP's
/// batch×tile item would collapse the two loops).
struct ParallelizePass;

impl Pass for ParallelizePass {
    fn name(&self) -> &'static str {
        "parallelize"
    }

    fn enabled(&self, opt: &OptLevel) -> bool {
        opt.parallel
    }

    fn run(&self, state: &mut PipelineState, _ctx: &PassContext<'_>, _stats: &mut CompileStats) {
        opt::parallelize(&mut state.forward);
        opt::parallelize(&mut state.backward);
    }
}

/// Marks innermost loops `@simd` in the IR. Execution keys off the
/// compiled net's global `vectorize` flag (the runtime decides per
/// kernel whether a native slice lowering applies), so this marking is
/// observability: dumps and golden snapshots show which loops the
/// vectorizing lowering may claim.
struct VectorizeMarkPass;

impl VectorizeMarkPass {
    fn mark(stmts: &mut [Stmt]) {
        for s in stmts {
            if let Stmt::For(l) = s {
                if l.body.iter().any(|b| matches!(b, Stmt::For(_))) {
                    Self::mark(&mut l.body);
                } else {
                    l.annot.vectorize = true;
                }
            }
        }
    }
}

impl Pass for VectorizeMarkPass {
    fn name(&self) -> &'static str {
        "vectorize-mark"
    }

    fn enabled(&self, opt: &OptLevel) -> bool {
        opt.vectorize
    }

    fn run(&self, state: &mut PipelineState, _ctx: &PassContext<'_>, _stats: &mut CompileStats) {
        for g in state.forward.iter_mut().chain(state.backward.iter_mut()) {
            Self::mark(&mut g.stmts);
        }
    }
}

/// A synthesis-time optimization surfaced as a pipeline row. Buffer
/// sharing, in-place activations, and data-gradient skipping happen
/// *during* synthesis (in the paper they are part of shared-variable
/// analysis, not a separate rewrite), so by the time the pipeline runs
/// their work is done; the pass exists so the pipeline report lists every
/// optimization the `OptLevel` controls, uniformly.
struct SynthesisEmbeddedPass {
    name: &'static str,
    enabled: fn(&OptLevel) -> bool,
}

impl Pass for SynthesisEmbeddedPass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn enabled(&self, opt: &OptLevel) -> bool {
        (self.enabled)(opt)
    }

    fn run(&self, _state: &mut PipelineState, _ctx: &PassContext<'_>, _stats: &mut CompileStats) {}
}

/// Distinguishes successive compiles in `LATTE_DUMP_IR` file names.
static DUMP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// The ordered pass pipeline plus its instrumentation and verification
/// hooks.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify: bool,
    dump_dir: Option<std::path::PathBuf>,
}

impl PassManager {
    /// The standard pipeline, in the paper's stage order. Every
    /// [`OptLevel`] builds this same pipeline; flags only flip per-pass
    /// `enabled` bits.
    pub fn standard() -> Self {
        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(SynthesisEmbeddedPass {
                name: "shared-buffers",
                enabled: |o| o.shared_buffers,
            }),
            Box::new(SynthesisEmbeddedPass {
                name: "inplace-activation",
                enabled: |o| o.inplace_activation,
            }),
            Box::new(SynthesisEmbeddedPass {
                name: "skip-data-grad",
                enabled: |o| o.skip_data_grad,
            }),
            Box::new(PatternMatchPass),
            Box::new(FusionPass),
            Box::new(TilingPass),
            Box::new(ParallelizePass),
            Box::new(VectorizeMarkPass),
        ];
        PassManager {
            passes,
            verify: verify_enabled(),
            dump_dir: std::env::var_os("LATTE_DUMP_IR").map(Into::into),
        }
    }

    /// Appends a pass to the pipeline (used by tests to inject a
    /// sabotaged pass behind the verifier).
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Forces inter-pass verification on or off, overriding the
    /// build-type/environment default.
    pub fn with_verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Runs the pipeline over `state`, recording one [`PassStat`] per
    /// pass into `stats.passes`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] when the synthesized program or
    /// any enabled pass's output fails IR verification.
    pub fn run(
        &self,
        state: &mut PipelineState,
        ctx: &PassContext<'_>,
        stats: &mut CompileStats,
    ) -> Result<(), CompileError> {
        let seq = self
            .dump_dir
            .as_ref()
            .map(|_| DUMP_SEQ.fetch_add(1, Ordering::Relaxed));
        self.checkpoint(state, ctx, "synthesize", seq, 0)?;
        for (step, pass) in self.passes.iter().enumerate() {
            let enabled = pass.enabled(ctx.opt);
            let groups_before = state.groups();
            let stmts_before = state.stmts();
            let start = Instant::now();
            if enabled {
                pass.run(state, ctx, stats);
            }
            let wall_micros = if enabled {
                start.elapsed().as_micros()
            } else {
                0
            };
            stats.passes.push(PassStat {
                name: pass.name().to_string(),
                enabled,
                wall_micros,
                groups_before,
                groups_after: state.groups(),
                stmts_before,
                stmts_after: state.stmts(),
            });
            if enabled {
                self.checkpoint(state, ctx, pass.name(), seq, step + 1)?;
            }
        }
        Ok(())
    }

    /// Verifies and (when `LATTE_DUMP_IR` is set) dumps the program as it
    /// stands after `pass`.
    fn checkpoint(
        &self,
        state: &PipelineState,
        ctx: &PassContext<'_>,
        pass: &str,
        seq: Option<usize>,
        step: usize,
    ) -> Result<(), CompileError> {
        if let (Some(dir), Some(seq)) = (&self.dump_dir, seq) {
            // Dump before verifying: a failing pass's IR is exactly what
            // you want on disk.
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("compile{seq:03}-{step:02}-{pass}.txt"));
            let _ = std::fs::write(path, render_state(state, ctx.buffers));
        }
        if self.verify {
            latte_ir::verify_program(ctx.buffers, state.groups_for_verify()).map_err(|e| {
                CompileError::Verify {
                    pass: pass.to_string(),
                    detail: e.to_string(),
                }
            })?;
        }
        Ok(())
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::standard()
    }
}

/// Debug builds and tests verify between passes by default; release
/// builds opt in with `LATTE_VERIFY_IR=1` (and debug builds may opt out
/// with `LATTE_VERIFY_IR=0`).
fn verify_enabled() -> bool {
    match std::env::var("LATTE_VERIFY_IR") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => false,
        Ok(_) => true,
        Err(_) => cfg!(debug_assertions),
    }
}

/// The textual snapshot `LATTE_DUMP_IR` writes: buffer table, then both
/// phases in the same format as
/// [`CompiledNet::pretty`](crate::CompiledNet::pretty).
fn render_state(state: &PipelineState, buffers: &[BufferDecl]) -> String {
    let mut s = String::new();
    s.push_str("== buffers ==\n");
    for b in buffers {
        s.push_str(&format!("{b}\n"));
    }
    s.push_str("== forward ==\n");
    for g in &state.forward {
        s.push_str(&g.pretty());
    }
    s.push_str("== backward ==\n");
    for g in &state.backward {
        s.push_str(&g.pretty());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_is_uniform_across_levels() {
        let names: Vec<&str> = PassManager::standard()
            .passes
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(
            names,
            [
                "shared-buffers",
                "inplace-activation",
                "skip-data-grad",
                "pattern-match",
                "fusion",
                "tiling",
                "parallelize",
                "vectorize-mark",
            ]
        );
        // `none` disables every rewrite but keeps synthesis-embedded
        // sharing on; `full` enables everything.
        let mgr = PassManager::standard();
        let none = OptLevel::none();
        let full = OptLevel::full();
        let on = |opt: &OptLevel| -> Vec<bool> {
            mgr.passes.iter().map(|p| p.enabled(opt)).collect()
        };
        assert_eq!(
            on(&none),
            [true, true, true, false, false, false, false, false]
        );
        assert_eq!(on(&full), vec![true; 8]);
    }

    #[test]
    fn fusion_requires_tiling() {
        let opt = OptLevel::none().with_fusion(true); // fusion without tiling
        assert!(!FusionPass.enabled(&opt));
        assert!(FusionPass.enabled(&opt.with_tiling(true)));
    }
}
