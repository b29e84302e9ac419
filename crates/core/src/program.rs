//! The compiler's output: groups of optimized loop nests plus the buffer
//! plan, ready for the runtime to lower and execute.

use latte_ir::{BufferDecl, BufferKind, Stmt};
use std::fmt;
use std::sync::Arc;

/// Which pass of network execution a group belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
}

/// Fusion/tiling metadata of a group, derived from the connection
/// structure during synthesis.
#[derive(Debug, Clone, Default)]
pub struct GroupMeta {
    /// Extent of the group's tileable outermost dimension, when every
    /// statement in the group iterates it (spatial ensembles of rank ≥ 2
    /// whose staging keeps dimension 0).
    pub dim0_extent: Option<usize>,
    /// The producing ensemble this group consumes, with the consumption
    /// `stride` and `halo` along dimension 0 — present only when the
    /// group's ensemble has exactly one non-recurrent connection with
    /// affine dim-0 structure. `halo == 0` is the fusion precondition.
    pub upstream: Option<Upstream>,
}

/// Producer relation used by the fusion pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upstream {
    /// Name of the producing ensemble.
    pub ensemble: String,
    /// Source rows of dimension 0 consumed per sink row.
    pub stride: usize,
    /// Extra source rows overlapped beyond the stride (overlapping
    /// windows); non-zero halo prevents fusion.
    pub halo: usize,
    /// Whether this group's ensemble is the *only* consumer of the
    /// producer. Backward fusion requires it: with several consumers the
    /// producer's gradient is complete only after every consumer's
    /// scatter, so no single consumer's tile may trigger the producer's
    /// backward.
    pub sole_consumer: bool,
}

/// A schedulable unit: the synthesized (and later optimized) statements of
/// one ensemble-phase, or of several fused ensembles.
#[derive(Debug, Clone)]
pub struct Group {
    /// Human-readable name, e.g. `"conv1.fwd"` or `"conv1+relu1+pool1.fwd"`.
    pub name: String,
    /// The ensemble(s) this group computes, in execution order.
    pub ensembles: Vec<String>,
    /// The phase the group runs in.
    pub phase: Phase,
    /// The statements, executed in order for each batch item.
    pub stmts: Vec<Stmt>,
    /// Fusion-preventing groups (normalization ensembles) are barriers.
    pub barrier: bool,
    /// Tiling/fusion metadata.
    pub meta: GroupMeta,
}

impl Group {
    /// The group's statements, nested ones included: the IR-size metric
    /// of [`CompileStats::passes`].
    pub(crate) fn stmt_count(&self) -> usize {
        self.stmts.iter().map(|s| s.count_matching(&|_| true)).sum()
    }

    /// Pretty-prints the group's statements.
    pub fn pretty(&self) -> String {
        format!("group {} {{\n{}}}\n", self.name, latte_ir::print_stmts(&self.stmts))
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty())
    }
}

/// A learnable parameter: its value and gradient buffers plus the
/// learning-rate multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBinding {
    /// The value buffer name.
    pub value: String,
    /// The gradient buffer name.
    pub grad: String,
    /// Per-parameter learning-rate multiplier.
    pub lr_mult: f32,
}

/// An input (data) ensemble the runtime feeds each iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBinding {
    /// The data ensemble's name.
    pub ensemble: String,
    /// Its value buffer.
    pub buffer: String,
    /// Per-item element count.
    pub len: usize,
}

/// One row of [`CompileStats::passes`]: a stage of
/// [`compile`](crate::compile), whether it ran or was disabled by the
/// [`OptLevel`](crate::OptLevel), so `CompileStats` is populated
/// uniformly across all configurations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStat {
    /// The pass's name, e.g. `"pattern-match"`.
    pub name: String,
    /// Whether the `OptLevel` enabled the pass (disabled passes record
    /// zero time and no size change).
    pub enabled: bool,
    /// Wall time the pass took, in microseconds.
    pub wall_micros: u128,
    /// Group count (both phases) before the pass ran.
    pub groups_before: usize,
    /// Group count (both phases) after the pass ran.
    pub groups_after: usize,
    /// Total IR statement count (both phases, nested statements included)
    /// before the pass ran.
    pub stmts_before: usize,
    /// Total IR statement count after the pass ran.
    pub stmts_after: usize,
}

impl PassStat {
    /// One-line human-readable rendering, used by reports.
    pub fn render(&self) -> String {
        if self.enabled {
            format!(
                "{:<20} {:>8} us  groups {:>3} -> {:<3} stmts {:>5} -> {:<5}",
                self.name,
                self.wall_micros,
                self.groups_before,
                self.groups_after,
                self.stmts_before,
                self.stmts_after
            )
        } else {
            format!("{:<20} (disabled)", self.name)
        }
    }
}

/// Statistics recorded by the compiler, used by tests and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of multiply-accumulate nests replaced by GEMM calls.
    pub gemms_matched: usize,
    /// Number of groups whose outer loop was tiled.
    pub groups_tiled: usize,
    /// Number of fusions performed (each merges two groups).
    pub fusions: usize,
    /// Number of buffers that alias other storage (dropped copies /
    /// in-place activations / shared inputs).
    pub aliased_buffers: usize,
    /// Number of staging buffer dimensions dropped by shared-variable
    /// analysis.
    pub dims_dropped: usize,
    /// Per-stage timing and IR-size deltas, in [`compile`](crate::compile)'s
    /// order. The same eight rows regardless of `OptLevel`, so every
    /// compile populates the same rows.
    pub passes: Vec<PassStat>,
    /// Every group's batch-parallel decision, `(group name, parallel)`,
    /// forward groups first then backward — whether `parallelize`
    /// annotated the group's loops for the worker pool's static
    /// interleaved schedule. Makes bench output self-describing.
    pub group_parallel: Vec<(String, bool)>,
    /// Groups whose schedule runs batch-parallel (the `true` entries of
    /// [`CompileStats::group_parallel`]).
    pub groups_parallel: usize,
    /// Groups left serial — no loop marked parallel, executed on the
    /// calling thread.
    pub groups_serial: usize,
    /// A remnant, always 0: the step-share pass that counted here is
    /// gone and every group lowers on its own. The field stays only
    /// because `benchmark/src/layers.rs` reports it; it goes when a
    /// benchmark change drops that row (ROADMAP "One ledger").
    pub step_groups_shared: usize,
}

/// A compiled network: the runtime's entire input.
#[derive(Debug, Clone)]
pub struct CompiledNet {
    /// Batch size the program was compiled for.
    pub batch: usize,
    /// Every buffer, allocation order = declaration order (aliases after
    /// their targets).
    pub buffers: Vec<BufferDecl>,
    /// Forward groups in execution order.
    pub forward: Vec<Group>,
    /// Backward groups in execution order.
    pub backward: Vec<Group>,
    /// Learnable parameters.
    pub params: Vec<ParamBinding>,
    /// Data ensembles to feed.
    pub inputs: Vec<InputBinding>,
    /// Loss buffers (per-item loss values) to report.
    pub losses: Vec<String>,
    /// Initial contents of every field buffer, `(buffer name, values)`.
    /// The runtime writes these once at executor construction and on
    /// `reset_params`. Shared, so that [`CompiledNet::at_batch`] copies
    /// no weights.
    pub param_inits: Arc<[(String, Vec<f32>)]>,
    /// Whether the runtime may run element loops a strip of lanes at a
    /// time instead of an element at a time (the compiler's `vectorize`
    /// flag).
    pub vectorize: bool,
    /// Compiler statistics.
    pub stats: CompileStats,
}

impl CompiledNet {
    /// This program for a batch of `batch` items. Synthesis and every
    /// pass work on the per-item program — the batch is only the
    /// outermost loop the runtime drives — so the result equals compiling
    /// the same network built at `batch`, without the compile.
    pub fn at_batch(&self, batch: usize) -> CompiledNet {
        CompiledNet { batch, ..self.clone() }
    }

    /// Looks up a buffer declaration by name.
    pub fn buffer(&self, name: &str) -> Option<&BufferDecl> {
        self.buffers.iter().find(|b| b.name == name)
    }

    /// The buffers a numerical sentinel should scan: every primary
    /// (non-alias) declaration with its kind. Aliases share storage with
    /// their target, so scanning them too would report the same trip
    /// twice under two names.
    pub fn sentinel_buffers(&self) -> impl Iterator<Item = (&str, BufferKind)> {
        self.buffers
            .iter()
            .filter(|b| b.alias_of.is_none())
            .map(|b| (b.name.as_str(), b.kind))
    }

    /// A stable identity hash of the compiled *model*: buffer plan
    /// (names, per-item shapes, kinds, aliases), parameter and input
    /// bindings, loss buffers, initial parameter values, the vectorize
    /// flag, and the full pretty-printed program of both phases.
    ///
    /// The batch size is deliberately **excluded**: the program is
    /// per-item, so [`CompiledNet::at_batch`] keeps the fingerprint. Plan
    /// caches key on `(fingerprint(), batch)` — the net, and the one
    /// number lowering still bakes into a plan — so `latte-serve`
    /// fingerprints a model once, when it is registered, and never on
    /// the serving path. `CompileStats` is excluded too: it carries
    /// wall-clock pass timings, not program identity.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, 64-bit: dependency-free and stable across platforms.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        for b in &self.buffers {
            eat(b.name.as_bytes());
            eat(format!(";{:?};{:?};{:?}|", b.shape.dims(), b.kind, b.alias_of).as_bytes());
        }
        for p in &self.params {
            eat(p.value.as_bytes());
            eat(p.grad.as_bytes());
            eat(&p.lr_mult.to_bits().to_le_bytes());
        }
        for i in &self.inputs {
            eat(i.ensemble.as_bytes());
            eat(i.buffer.as_bytes());
        }
        for l in &self.losses {
            eat(l.as_bytes());
        }
        for (name, init) in self.param_inits.iter() {
            eat(name.as_bytes());
            for v in init {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        eat(&[u8::from(self.vectorize)]);
        eat(self.pretty().as_bytes());
        h
    }

    /// Pretty-prints the whole program (both phases), mainly for tests
    /// and debugging.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        push_phases(&mut s, &self.forward, &self.backward);
        s
    }
}

/// The program as `LATTE_DUMP_IR` writes it after each compiler stage and
/// `tests/golden/` pins it: the buffer table, then both phases as
/// [`CompiledNet::pretty`] prints them.
pub fn render_program(buffers: &[BufferDecl], forward: &[Group], backward: &[Group]) -> String {
    let mut s = String::from("== buffers ==\n");
    for b in buffers {
        s.push_str(&format!("{b}\n"));
    }
    push_phases(&mut s, forward, backward);
    s
}

fn push_phases(s: &mut String, forward: &[Group], backward: &[Group]) {
    s.push_str("== forward ==\n");
    for g in forward {
        s.push_str(&g.pretty());
    }
    s.push_str("== backward ==\n");
    for g in backward {
        s.push_str(&g.pretty());
    }
}
