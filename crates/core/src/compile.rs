//! The compiler: shared-variable analysis and synthesis, then the
//! paper's rewrites in order.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use latte_ir::BufferDecl;
use latte_tensor::Shape;

use crate::dsl::Net;
use crate::error::CompileError;
use crate::opt::{fuse_chains, parallelize, pattern_match, tile_untiled};
use crate::program::{render_program, CompileStats, CompiledNet, Group, PassStat};
use crate::synth::synthesize;

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
/// The sequence is the paper's, the same at every [`OptLevel`]:
/// shared-variable analysis guides synthesis (buffer sharing, in-place
/// activations and skipped data gradients are decided there), then GEMM
/// pattern matching, cross-layer fusion (only with tiling), tiling and
/// parallel marking rewrite the synthesized loop nests. The level only
/// says which of them run. [`CompileStats::passes`](crate::CompileStats)
/// gets the same eight rows at every level: one per rewrite, with its
/// wall time and IR size, and one for each flag synthesis or the runtime
/// acts on (`shared-buffers`, `inplace-activation`, `skip-data-grad`,
/// `vectorize-mark`). `LATTE_DUMP_IR=<dir>` writes the program after
/// synthesis and after each rewrite that ran, as [`render_program`]
/// prints it, to `compile<seq>-<row>-<stage>.txt`. Debug builds and tests
/// run the IR verifier at the same points; release builds do not. The
/// result is handed to `latte-runtime` for lowering and execution.
///
/// # Errors
///
/// Returns a [`CompileError`] for cyclic graphs, invalid ensembles, and
/// malformed mappings, or [`CompileError::Verify`] when a stage emits
/// malformed IR (a compiler bug, not a user error).
pub fn compile(net: &Net, opt: &OptLevel) -> Result<CompiledNet, CompileError> {
    let s = synthesize(net, opt)?;
    let stats = CompileStats {
        aliased_buffers: s.aliased_buffers,
        dims_dropped: s.dims_dropped,
        ..CompileStats::default()
    };
    let mut st = Stages::new(
        &s.buffers,
        s.forward,
        s.backward,
        stats,
        cfg!(debug_assertions),
    )?;
    st.flag("shared-buffers", opt.shared_buffers);
    st.flag("inplace-activation", opt.inplace_activation);
    st.flag("skip-data-grad", opt.skip_data_grad);
    rewrite(&mut st, opt)?;
    st.flag("vectorize-mark", opt.vectorize);
    let Stages {
        mut forward,
        mut backward,
        mut stats,
        ..
    } = st;

    // Record each group's batch-parallel decision (any loop
    // `parallelize` annotated) so reports and bench runs can print the
    // schedule without re-deriving it from the IR.
    stats.group_parallel = forward
        .iter()
        .chain(&backward)
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
    for g in forward.iter_mut().chain(&mut backward) {
        g.stmts.shrink_to_fit();
    }

    Ok(CompiledNet {
        batch: net.batch(),
        buffers: s.buffers,
        forward,
        backward,
        params: s.params,
        inputs: s.inputs,
        losses: s.losses,
        param_inits: s.param_inits.into(),
        vectorize: opt.vectorize,
        stats,
    })
}

/// The paper's rewrites of the synthesized program, in order: GEMM
/// pattern matching, cross-layer fusion (only with tiling), tiling and
/// parallel marking, each as one stage of `st` that runs when `opt`
/// enables it.
pub(crate) fn rewrite(st: &mut Stages<'_>, opt: &OptLevel) -> Result<(), CompileError> {
    let shapes: HashMap<String, Shape> = st
        .buffers
        .iter()
        .map(|b| (b.name.clone(), b.shape.clone()))
        .collect();
    st.stage("pattern-match", opt.pattern_match, |groups, stats| {
        stats.gemms_matched += pattern_match(groups, &shapes);
    })?;
    st.stage("fusion", opt.tiling && opt.fusion, |groups, stats| {
        *groups = fuse_chains(std::mem::take(groups), opt.tile_size, stats);
    })?;
    st.stage("tiling", opt.tiling, |groups, stats| {
        *groups = tile_untiled(std::mem::take(groups), opt.tile_size, stats);
    })?;
    st.stage("parallelize", opt.parallel, |groups, _| parallelize(groups))
}

/// Distinguishes successive compiles in `LATTE_DUMP_IR` file names.
static DUMP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// The program between [`compile`]'s stages, with the stats rows so far.
pub(crate) struct Stages<'a> {
    buffers: &'a [BufferDecl],
    forward: Vec<Group>,
    backward: Vec<Group>,
    stats: CompileStats,
    /// Groups and statements (nested ones included) in both phases now.
    size: (usize, usize),
    /// Whether [`Stages::check`] runs the IR verifier.
    verify: bool,
    /// `LATTE_DUMP_IR`'s directory and this compile's number in it.
    dump: Option<(PathBuf, usize)>,
}

impl<'a> Stages<'a> {
    /// Takes synthesis's output and checks it as stage `synthesize`.
    pub(crate) fn new(
        buffers: &'a [BufferDecl],
        forward: Vec<Group>,
        backward: Vec<Group>,
        stats: CompileStats,
        verify: bool,
    ) -> Result<Self, CompileError> {
        let dump = std::env::var_os("LATTE_DUMP_IR")
            .map(|dir| (dir.into(), DUMP_SEQ.fetch_add(1, Ordering::Relaxed)));
        let mut st = Stages {
            buffers,
            forward,
            backward,
            stats,
            size: (0, 0),
            verify,
            dump,
        };
        st.size = st.measure();
        st.check("synthesize")?;
        Ok(st)
    }

    fn measure(&self) -> (usize, usize) {
        let groups = self.forward.iter().chain(&self.backward);
        (groups.clone().count(), groups.map(Group::stmt_count).sum())
    }

    /// Records the row of a flag no rewrite acts on here: synthesis has
    /// already applied it, or the runtime will.
    fn flag(&mut self, name: &str, enabled: bool) {
        self.row(name, enabled, 0, self.size);
    }

    fn row(&mut self, name: &str, enabled: bool, wall_micros: u128, before: (usize, usize)) {
        self.stats.passes.push(PassStat {
            name: name.to_string(),
            enabled,
            wall_micros,
            groups_before: before.0,
            groups_after: self.size.0,
            stmts_before: before.1,
            stmts_after: self.size.1,
        });
    }

    /// Runs `rewrite` over the forward groups and then the backward ones
    /// when `enabled`, records the stage's row, and checks the result.
    pub(crate) fn stage(
        &mut self,
        name: &str,
        enabled: bool,
        mut rewrite: impl FnMut(&mut Vec<Group>, &mut CompileStats),
    ) -> Result<(), CompileError> {
        if !enabled {
            self.row(name, false, 0, self.size);
            return Ok(());
        }
        let before = self.size;
        let start = Instant::now();
        rewrite(&mut self.forward, &mut self.stats);
        rewrite(&mut self.backward, &mut self.stats);
        let wall_micros = start.elapsed().as_micros();
        self.size = self.measure();
        self.row(name, true, wall_micros, before);
        self.check(name)
    }

    /// Writes the `LATTE_DUMP_IR` snapshot of the program after `stage`
    /// and, when `verify` is on, runs the IR verifier over it.
    fn check(&self, stage: &str) -> Result<(), CompileError> {
        if let Some((dir, seq)) = &self.dump {
            // Dump before verifying: a failing stage's IR is exactly what
            // you want on disk.
            let _ = std::fs::create_dir_all(dir);
            let row = self.stats.passes.len();
            let path = dir.join(format!("compile{seq:03}-{row:02}-{stage}.txt"));
            let _ = std::fs::write(
                path,
                render_program(self.buffers, &self.forward, &self.backward),
            );
        }
        if !self.verify {
            return Ok(());
        }
        let groups = self.forward.iter().chain(&self.backward);
        latte_ir::verify_program(
            self.buffers,
            groups.map(|g| (g.name.as_str(), g.stmts.as_slice())),
        )
        .map_err(|e| CompileError::Verify {
            pass: stage.to_string(),
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::stdlib::relu_neuron;
    use crate::dsl::{Ensemble, Mapping};

    /// `(name, enabled)` of each stats row `compile` records at `opt`.
    fn rows(opt: OptLevel) -> Vec<(String, bool)> {
        let mut net = Net::new(1);
        let data = net.add(Ensemble::data("data", vec![4]));
        let relu = net.add(Ensemble::activation("relu", vec![4], relu_neuron()));
        net.connect(data, relu, Mapping::one_to_one());
        let compiled = compile(&net, &opt).unwrap();
        compiled
            .stats
            .passes
            .into_iter()
            .map(|p| (p.name, p.enabled))
            .collect()
    }

    #[test]
    fn pipeline_is_uniform_across_levels() {
        let names = [
            "shared-buffers",
            "inplace-activation",
            "skip-data-grad",
            "pattern-match",
            "fusion",
            "tiling",
            "parallelize",
            "vectorize-mark",
        ];
        // `none` disables every rewrite but keeps synthesis-embedded
        // sharing on; `full` enables everything.
        let expect = |on: [bool; 8]| -> Vec<(String, bool)> {
            names
                .iter()
                .zip(on)
                .map(|(n, on)| (n.to_string(), on))
                .collect()
        };
        assert_eq!(
            rows(OptLevel::none()),
            expect([true, true, true, false, false, false, false, false])
        );
        assert_eq!(rows(OptLevel::full()), expect([true; 8]));
    }

    #[test]
    fn fusion_requires_tiling() {
        let fusion = |opt| {
            rows(opt)
                .into_iter()
                .find(|(n, _)| n == "fusion")
                .unwrap()
                .1
        };
        let opt = OptLevel::none().with_fusion(true); // fusion without tiling
        assert!(!fusion(opt));
        assert!(fusion(opt.with_tiling(true)));
    }
}
