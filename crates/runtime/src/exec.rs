//! The execution engine: runs lowered kernel plans over the buffer store.
//!
//! Execution is batch-item-major: each group's per-item segments run for
//! every batch item, while hoisted whole-batch GEMMs and whole-batch
//! extern kernels run once. A group the compiler marked parallel runs its
//! items across a worker pool, dealt out by item to fixed gradient lanes
//! (`Executor::run_items_parallel`); its tile loop runs serially inside
//! each item. The paper collapses the batch and tile loops instead
//! (ROADMAP's batch×tile item). An executor built at a
//! capacity runs any smaller batch on the first items of its storages
//! ([`Executor::set_batch`]).
//!
//! Parameter gradients are shared across batch items; for parallel
//! groups each of [`GRAD_LANES`] fixed *lanes* accumulates a private
//! scratch copy which is reduced afterwards in lane order — the paper's
//! synchronized-reduction mode ("a small performance overhead during
//! back-propagation"), structured so results are **bit-identical for any
//! thread count** (see [`crate::pool`]). The *lossy* accumulation of
//! Section 3.1 is the Figure-20 experiment (`latte-bench`'s `figures`).
//!
//! All threaded work — parallel per-item groups and partitioned batched
//! GEMMs — runs on one persistent [`WorkerPool`] created with the
//! executor; nothing on the per-iteration path spawns threads or
//! allocates: each worker keeps a [`Scratch`] (loop variables, buffer
//! views, element-program columns, a per-call transfer's run list), and
//! a parallel group's gradient-lane layout was fixed at lowering
//! (`CGroup::grad_spans`).
//!
//! This module dispatches and drives phases; it moves no buffer element
//! itself. Element loops run in [`crate::elem`], data-copies and
//! gathers in [`crate::transfer`], GEMMs in `latte-tensor`.
//!
//! # Safety architecture
//!
//! Kernels run over raw per-item buffer views ([`RawBuf`]) derived from a
//! single `*mut Vec<f32>` base pointer obtained from `&mut BufferStore`.
//! Soundness rests on three invariants, each asserted where established:
//! batched buffers are written only through the current item's disjoint
//! slice; unbatched parameter buffers are only read; unbatched gradient
//! buffers are either executed single-threaded or redirected to
//! thread-private scratch. Lowering additionally proves every compiled
//! index — and builds every transfer's run list — in-bounds for all loop
//! values, so the hot path uses `debug_assert`-checked accesses.

use std::sync::Arc;

use latte_core::{CompiledNet, ParamBinding};
use latte_tensor::gemm::{Gemm, Transpose};

use crate::elem::{self, Columns};
use crate::error::RuntimeError;
use crate::health::{scan_slice, BufferAnomaly, SentinelMode};
use crate::lower::{BatchDim, BatchedGemm, CExtern, CGemm, CGroup, ExecutionPlan, Kernel, Segment};
use crate::pool::{WorkerCtx, WorkerPool, GRAD_LANES};
use crate::registry::{ExternInvocation, KernelRegistry};
use crate::store::{BufInfo, BufferStore, BufferTable};
use crate::transfer;

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads for batch-parallel groups and partitioned batched
    /// GEMMs. `1` disables threading. The default comes from the
    /// `LATTE_THREADS` environment variable ([`ExecConfig::env_threads`]).
    pub threads: usize,
    /// A remnant, always `false`: the liveness arena it selected is
    /// retired (DESIGN.md §10) and [`CompiledProgram::lower`] refuses
    /// `true` with [`RuntimeError::InvalidConfig`]. The field stays only
    /// because `benchmark/src/{train,serve,cluster}.rs` spell the literal
    /// `ExecConfig { threads, arena: false, gemm_blocking: None }`; the
    /// `benchmark` PR that drops those three literals drops it with them.
    pub arena: bool,
    /// A remnant, always `None`: every GEMM engine cuts the same fixed
    /// blocks (`latte_tensor::gemm`), and [`Executor::with_registry`] refuses `Some`
    /// with [`RuntimeError::InvalidConfig`]. The field stays only for the
    /// same three `benchmark/` literals as [`ExecConfig::arena`], and
    /// goes with them.
    pub gemm_blocking: Option<(usize, usize, usize)>,
}

impl ExecConfig {
    /// The worker-thread count requested by the `LATTE_THREADS`
    /// environment variable; `1` when unset, unparsable, or zero.
    pub fn env_threads() -> usize {
        std::env::var("LATTE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1)
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: Self::env_threads(),
            arena: false,
            gemm_blocking: None,
        }
    }
}

/// One communicator bucket: the parameters whose gradients are final
/// once backward group [`GradBucket::group`] has run (see
/// [`Executor::grad_buckets`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradBucket {
    /// Backward-group index, as passed to the
    /// [`Executor::backward_hooked`] callback.
    pub group: usize,
    /// The lowered group's name (diagnostics and bucket labelling).
    pub name: String,
    /// Indices into [`Executor::params`], ascending.
    pub params: Vec<usize>,
}

/// A raw view of one buffer for the current batch item.
#[derive(Clone, Copy)]
pub(crate) struct RawBuf {
    pub(crate) ptr: *mut f32,
    pub(crate) len: usize,
}

impl RawBuf {
    #[inline]
    pub(crate) fn slice(&self, start: i64, len: usize) -> &[f32] {
        debug_assert!(start >= 0 && start as usize + len <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr.add(start as usize), len) }
    }

    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn slice_mut(&self, start: i64, len: usize) -> &mut [f32] {
        debug_assert!(start >= 0 && start as usize + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start as usize), len) }
    }
}

/// What running one `(group, item)` needs besides the plan and the
/// store, kept per worker so the per-item path allocates nothing: the
/// loop-variable values, the item's buffer views, the element programs'
/// register columns, a per-call transfer's run list, and the view list
/// an extern kernel is handed.
#[derive(Default)]
pub(crate) struct Scratch {
    env: Vec<i64>,
    frame: Vec<RawBuf>,
    columns: Columns,
    transfer: transfer::Work,
    /// Always empty between calls; only its allocation is kept.
    views: Vec<&'static mut [f32]>,
}

// SAFETY: the raw pointers in `frame` and `columns` are rewritten by
// every `run_item` / `elem::run` before they are read, and never
// dereferenced outside the call that wrote them, so a scratch carries no
// live pointer from one thread to another.
unsafe impl Send for Scratch {}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").finish_non_exhaustive()
    }
}

/// Empties a view list and returns its allocation to a [`Scratch`].
fn recycle(mut views: Vec<&mut [f32]>) -> Vec<&'static mut [f32]> {
    views.clear();
    let mut views = std::mem::ManuallyDrop::new(views);
    // SAFETY: the vector is empty, so no borrow is carried into the
    // longer lifetime; element types that differ only in a lifetime have
    // one layout, so the allocation fits.
    unsafe { Vec::from_raw_parts(views.as_mut_ptr().cast(), 0, views.capacity()) }
}

/// What every batch item of one per-item segment shares.
#[derive(Clone, Copy)]
struct ItemSegment<'a> {
    /// The store's storages.
    base: *mut Vec<f32>,
    g: &'a CGroup,
    kernels: &'a [Kernel],
    batch: usize,
    n_slots: usize,
}

/// Runs a per-item segment's kernels for one batch item on `ctx`'s
/// scratch. With `lane`, the group's parameter-gradient storages are
/// redirected to their spans (`CGroup::grad_spans`) of that gradient
/// lane's scratch.
///
/// # Safety
///
/// `seg.base` must point at the store's live `Vec<f32>` storages with no
/// other active borrows, `lane` at scratch as long as the group's spans;
/// the caller must guarantee the disjointness invariants described in
/// the module docs.
unsafe fn run_item(ctx: &mut WorkerCtx, seg: ItemSegment<'_>, item: usize, lane: Option<*mut f32>) {
    let ItemSegment {
        base,
        g,
        kernels,
        batch,
        n_slots,
    } = seg;
    let Scratch { env, frame, .. } = &mut ctx.scratch;
    if env.len() < n_slots {
        env.resize(n_slots, 0);
    }
    frame.clear();
    frame.extend(g.bufs.iter().map(|b| {
        let (ptr, len) = match lane {
            Some(lane) if b.param_grad => {
                let &(_, offset, len) = g
                    .grad_spans
                    .iter()
                    .find(|span| span.0 == b.storage)
                    .expect("a span per parameter-gradient storage");
                (lane.add(offset), len)
            }
            _ => {
                let s = &mut *base.add(b.storage);
                (s.as_mut_ptr(), s.len())
            }
        };
        if b.batched {
            RawBuf {
                ptr: ptr.add(item * b.per_item),
                len: b.per_item,
            }
        } else {
            RawBuf { ptr, len }
        }
    }));
    let mut cx = ItemCx { ctx, batch, item };
    for k in kernels {
        exec_kernel(k, &mut cx);
    }
}

/// One batch item's execution state: the worker's scratch and GEMM
/// engine (packing buffers reused across items and iterations), and
/// where in the batch it is.
struct ItemCx<'a> {
    ctx: &'a mut WorkerCtx,
    batch: usize,
    item: usize,
}

/// A per-group callback invoked after each compute group of a phase
/// (group index, executor) — how [`Executor::backward_hooked`] streams
/// finished gradient buckets to the distributed comm thread.
pub type GroupHook<'a> = &'a mut dyn FnMut(usize, &Executor);

/// A lowered, executor-independent program at one batch size: the one
/// immutable owner of everything decided at lowering, plus the batch its
/// executors run. Kernel selection, bounds verification, buffer placement
/// and every name lookup happen once in [`CompiledProgram::lower`], for
/// one item: the batch enters no lowered kernel, so
/// [`CompiledProgram::at_batch`] is the same program at another size and
/// costs nothing. Each [`CompiledProgram::instantiate`] afterwards only
/// allocates the storages at the handle's batch and writes the initial
/// parameter values. The handle is one `Arc` and a number; executors hold
/// a clone of it.
#[derive(Clone)]
pub struct CompiledProgram {
    program: Arc<Program>,
    batch: usize,
}

/// What a [`CompiledProgram`] owns and its executors share.
struct Program {
    net: CompiledNet,
    /// The lowered groups.
    plan: ExecutionPlan,
    /// Where every named buffer lives: one storage per alias class.
    table: BufferTable,
    /// The gradient storages (activation and parameter), filled with
    /// zeros before every backward pass.
    zero_backward: Vec<usize>,
    /// Per parameter of `net.params`: the storage indices of its value
    /// and its gradient (distinct), so the solver's walk looks nothing
    /// up by name.
    param_slots: Vec<(usize, usize)>,
    /// Per entry of `net.inputs`: where `set_input` writes.
    inputs: Vec<BufInfo>,
    /// Per entry of `net.losses`: what `loss` reads.
    losses: Vec<BufInfo>,
    grad_buckets: Vec<GradBucket>,
}

impl Program {
    /// The named data ensemble's buffer name and placement.
    fn input(&self, ensemble: &str) -> Result<(&str, &BufInfo), RuntimeError> {
        let at = self
            .net
            .inputs
            .iter()
            .position(|i| i.ensemble == ensemble)
            .ok_or_else(|| RuntimeError::UnknownBuffer {
                name: format!("{ensemble} (data ensemble)"),
            })?;
        Ok((&self.net.inputs[at].buffer, &self.inputs[at]))
    }
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("batch", &self.batch)
            .field("forward_groups", &self.program.plan.forward_groups())
            .field("backward_groups", &self.program.plan.backward_groups())
            .finish_non_exhaustive()
    }
}

impl CompiledProgram {
    /// Lowers a compiled network into a shareable program without
    /// allocating runtime buffers. Every alias class of the compiler's
    /// buffer plan gets one storage, in declaration order. Nothing of
    /// `cfg` shapes the program — the thread count belongs to the pool an
    /// executor is instantiated on — and the parameter stays only for
    /// the remnant [`ExecConfig::arena`].
    ///
    /// # Errors
    ///
    /// Fails when the plan references unknown buffers or kernels, when
    /// static bounds verification rejects a statement, or with
    /// [`RuntimeError::InvalidConfig`] when `cfg.arena` is set.
    pub fn lower(
        net: CompiledNet,
        registry: &KernelRegistry,
        cfg: ExecConfig,
    ) -> Result<Self, RuntimeError> {
        if cfg.arena {
            return Err(RuntimeError::InvalidConfig {
                detail: "ExecConfig::arena: the liveness arena is retired; buffers that may \
                         share storage are aliased by the compiler"
                    .to_string(),
            });
        }
        let table = BufferTable::resolve(&net.buffers)?;
        let plan = crate::lower::lower(&net, &table, registry)?;
        let param_slots = net
            .params
            .iter()
            .map(|p| {
                let slot = (
                    table.require(&p.value)?.storage,
                    table.require(&p.grad)?.storage,
                );
                assert_ne!(
                    slot.0, slot.1,
                    "parameter `{}` aliases its own gradient",
                    p.value
                );
                Ok(slot)
            })
            .collect::<Result<Vec<_>, RuntimeError>>()?;
        let info = |name: &String| table.require(name).cloned();
        let inputs = net
            .inputs
            .iter()
            .map(|i| info(&i.buffer))
            .collect::<Result<_, _>>()?;
        let losses = net.losses.iter().map(info).collect::<Result<_, _>>()?;
        let zero_backward = net
            .buffers
            .iter()
            .filter(|d| d.alias_of.is_none() && d.kind.is_grad())
            .map(|d| Ok(table.require(&d.name)?.storage))
            .collect::<Result<_, RuntimeError>>()?;
        let grad_buckets = grad_buckets(&plan.backward, &param_slots);
        let batch = net.batch;
        let program = Arc::new(Program {
            net,
            plan,
            table,
            zero_backward,
            param_slots,
            inputs,
            losses,
            grad_buckets,
        });
        Ok(CompiledProgram { program, batch })
    }

    /// This program at `batch` items: a handle over the same lowered
    /// program, so it lowers and allocates nothing. What a plan cache
    /// hands out for a model's every micro-batch size.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when `batch` is 0.
    pub fn at_batch(&self, batch: usize) -> Result<Self, RuntimeError> {
        if batch == 0 {
            return Err(RuntimeError::InvalidConfig {
                detail: "a program runs at a batch of at least one item".to_string(),
            });
        }
        Ok(CompiledProgram {
            program: Arc::clone(&self.program),
            batch,
        })
    }

    /// The batch size this handle's executors are built at: their
    /// capacity.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The compiled network this program was lowered from. Its `batch`
    /// is the one it was lowered at; an executor's batch is
    /// [`CompiledProgram::batch`].
    pub fn compiled(&self) -> &CompiledNet {
        &self.program.net
    }

    /// The lowered plan every executor of this program, at every batch
    /// size, shares.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.program.plan
    }

    /// Builds a warm executor on `pool`, sharing this program: allocates
    /// the storages at this handle's batch and writes initial parameter
    /// values, but compiles, lowers and resolves nothing. The handle's
    /// batch is the executor's capacity and its starting batch; it runs
    /// any batch up to that ([`Executor::set_batch`]). The executor's
    /// thread count is the pool's.
    ///
    /// # Errors
    ///
    /// Fails when an initial parameter value does not fit its buffer.
    pub fn instantiate(&self, pool: Arc<WorkerPool>) -> Result<Executor, RuntimeError> {
        let store = BufferStore::build(&self.program.table, self.batch);
        let mut exec = Executor {
            program: self.clone(),
            store,
            pool,
        };
        exec.reset_params()?;
        Ok(exec)
    }
}

/// Groups the parameters into communicator buckets, one per backward
/// group: each parameter goes to the **last** backward group whose
/// bindings write its gradient storage (last, so weight-shared
/// parameters — e.g. an unrolled recurrent cell — are shipped only once
/// their final accumulation has run). Buckets are ordered by group
/// index; parameters whose gradient no group writes (it stays zero)
/// ride in the last bucket.
fn grad_buckets(groups: &[CGroup], param_slots: &[(usize, usize)]) -> Vec<GradBucket> {
    let Some(tail) = groups.len().checked_sub(1) else {
        return Vec::new();
    };
    let mut by_group: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (pi, &(_, gs)) in param_slots.iter().enumerate() {
        let writes = |g: &CGroup| g.bufs.iter().any(|b| b.param_grad && b.storage == gs);
        let last = groups.iter().rposition(writes).unwrap_or(tail);
        by_group.entry(last).or_default().push(pi);
    }
    by_group
        .into_iter()
        .map(|(gi, params)| GradBucket {
            group: gi,
            name: groups[gi].name.clone(),
            params,
        })
        .collect()
}

/// The executor: a shared [`CompiledProgram`], this instance's buffer
/// storages, and the worker pool it runs on.
///
/// This is the runtime counterpart of the paper's `init(net)`: buffers
/// are allocated according to the compiler's plan (aliases shared), the
/// program is lowered to native kernels, and [`Executor::forward`] /
/// [`Executor::backward`] execute it for one batch.
pub struct Executor {
    program: CompiledProgram,
    store: BufferStore,
    /// The persistent worker team (and its per-worker GEMM engines and
    /// lane scratch). A serving replica keeps it across the one executor
    /// it holds, sized to the largest batch seen; runs are exclusive —
    /// one executor drives it at a time.
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("program", &self.program)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// Lowers and allocates a compiled network with the default registry
    /// and configuration.
    ///
    /// # Errors
    ///
    /// See [`CompiledProgram::lower`].
    pub fn new(net: CompiledNet) -> Result<Self, RuntimeError> {
        Self::with_registry(net, &KernelRegistry::with_builtins(), ExecConfig::default())
    }

    /// Lowers with an explicit kernel registry and configuration.
    ///
    /// # Errors
    ///
    /// See [`CompiledProgram::lower`]; also
    /// [`RuntimeError::InvalidConfig`] when `cfg.gemm_blocking` is set.
    pub fn with_registry(
        net: CompiledNet,
        registry: &KernelRegistry,
        cfg: ExecConfig,
    ) -> Result<Self, RuntimeError> {
        if cfg.gemm_blocking.is_some() {
            return Err(RuntimeError::InvalidConfig {
                detail: "ExecConfig::gemm_blocking: the schedule autotuner is retired; every \
                         GEMM engine uses the fixed blocking"
                    .to_string(),
            });
        }
        let program = CompiledProgram::lower(net, registry, cfg)?;
        program.instantiate(Arc::new(WorkerPool::new(cfg.threads)))
    }

    /// The worker-thread count this executor runs with.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The execution plan driving this executor.
    pub fn plan(&self) -> &ExecutionPlan {
        self.program.plan()
    }

    /// Re-initializes every parameter buffer from its declared initial
    /// values.
    ///
    /// # Errors
    ///
    /// Propagates buffer-lookup failures.
    pub fn reset_params(&mut self) -> Result<(), RuntimeError> {
        let p = &*self.program.program;
        for (name, init) in p.net.param_inits.iter() {
            self.store.write(name, p.table.require(name)?, init)?;
        }
        Ok(())
    }

    /// The batch a run covers: the capacity until
    /// [`Executor::set_batch`] sets another.
    pub fn batch(&self) -> usize {
        self.store.batch()
    }

    /// The most items a run can cover: the batch the executor was built
    /// at, which its batched storages hold.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Runs every later pass on the first `batch` items of the storages.
    ///
    /// A batch below the capacity computes what an executor built at it
    /// computes, bit for bit, whatever the other items hold: storage is
    /// item-major, a per-item kernel's view of a batched buffer is
    /// `item × per_item` with `item < batch ≤ capacity`, and each
    /// whole-batch GEMM hoist's batched operand has base 0 and
    /// `per_item` equal to the dimension it is read with, so it reads
    /// and writes the first `batch × per_item` elements only (as
    /// `try_batch_gemm` argues). Whole-batch externs are handed their
    /// batched storages cut to `batch` items, and every reader and writer
    /// here sees those items only.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when `batch` is 0 or above the
    /// capacity.
    pub fn set_batch(&mut self, batch: usize) -> Result<(), RuntimeError> {
        let capacity = self.capacity();
        if batch == 0 || batch > capacity {
            return Err(RuntimeError::InvalidConfig {
                detail: format!("batch {batch} outside 1..={capacity}, the executor's capacity"),
            });
        }
        self.store.set_batch(batch);
        Ok(())
    }

    /// The compiled network, shared with every executor of the program.
    pub fn compiled(&self) -> &CompiledNet {
        self.program.compiled()
    }

    /// The learnable parameters.
    pub fn params(&self) -> &[ParamBinding] {
        &self.program.program.net.params
    }

    /// Total floats actually allocated: one storage per alias class of
    /// the compiler's buffer plan (the memory metric of the
    /// shared-buffer ablation).
    pub fn allocated_elements(&self) -> usize {
        self.store.total_elements()
    }

    /// Writes a data ensemble's batch: `data` holds `batch * per_item`
    /// values, item-major, for the current batch.
    ///
    /// # Errors
    ///
    /// Fails for unknown ensembles or wrong lengths.
    pub fn set_input(&mut self, ensemble: &str, data: &[f32]) -> Result<(), RuntimeError> {
        let (buffer, info) = self.program.program.input(ensemble)?;
        self.store.write(buffer, info, data)
    }

    /// Writes one batch item's slice of a data ensemble: `data` holds
    /// `per_item` values for batch position `item`. This is the serving
    /// path — coalesced single-sample requests land in their micro-batch
    /// slots without staging a whole-batch buffer first.
    ///
    /// # Errors
    ///
    /// Fails for unknown ensembles, wrong per-item lengths, or an item
    /// index outside the batch.
    pub fn set_input_item(
        &mut self,
        ensemble: &str,
        item: usize,
        data: &[f32],
    ) -> Result<(), RuntimeError> {
        let (buffer, info) = self.program.program.input(ensemble)?;
        self.store.write_item(buffer, info, item, data)
    }

    /// Reads a buffer: the current batch's items of a batched one.
    ///
    /// # Errors
    ///
    /// Fails for unknown buffers.
    pub fn read_buffer(&self, name: &str) -> Result<Vec<f32>, RuntimeError> {
        self.buffer(name).map(<[f32]>::to_vec)
    }

    /// Borrows a buffer: [`Executor::read_buffer`] without the copy, for
    /// per-step readers such as the gradient all-reduce.
    ///
    /// # Errors
    ///
    /// As [`Executor::read_buffer`].
    pub fn buffer(&self, name: &str) -> Result<&[f32], RuntimeError> {
        Ok(self.store.view(self.program.program.table.require(name)?))
    }

    /// Reads one batch item of a buffer (item 0 of an unbatched one is
    /// the whole buffer).
    ///
    /// # Errors
    ///
    /// Fails for unknown buffers, and for an item outside the current
    /// batch (any but 0 for an unbatched buffer).
    pub fn read_item(&self, name: &str, item: usize) -> Result<Vec<f32>, RuntimeError> {
        self.store
            .read_item(name, self.program.program.table.require(name)?, item)
    }

    /// Overwrites a buffer: the current batch's items of a batched one
    /// (test/diagnostic hook).
    ///
    /// # Errors
    ///
    /// Fails for unknown buffers and wrong lengths.
    pub fn write_buffer(&mut self, name: &str, data: &[f32]) -> Result<(), RuntimeError> {
        self.store
            .write(name, self.program.program.table.require(name)?, data)
    }

    /// The single plan-execution path behind every public entry point:
    /// runs one phase's groups in order, with optional per-group timing
    /// and an optional per-group hook layered on as instrumentation.
    fn run_phase(
        &mut self,
        backward: bool,
        mut timing: Option<&mut Vec<(String, f64)>>,
        mut after_group: Option<GroupHook<'_>>,
    ) {
        // The program is behind an `Arc` (shared with sibling executors),
        // so cloning the handle detaches the group iteration from
        // `&mut self`.
        let program = self.program.clone();
        let plan = program.plan();
        let batch = self.batch();
        let groups = if backward {
            for &storage in &program.program.zero_backward {
                self.store.storages[storage].fill(0.0);
            }
            &plan.backward
        } else {
            &plan.forward
        };
        for (gi, g) in groups.iter().enumerate() {
            let t0 = timing.is_some().then(std::time::Instant::now);
            self.run_group(g, batch, plan.n_slots);
            if let (Some(out), Some(t0)) = (timing.as_deref_mut(), t0) {
                out.push((g.name.clone(), t0.elapsed().as_secs_f64() * 1e3));
            }
            if let Some(hook) = after_group.as_deref_mut() {
                // The group's gradient-lane fold ran inside `run_group`,
                // so every parameter gradient this group produces is
                // final here even while later groups are still pending.
                hook(gi, self);
            }
        }
    }

    /// Runs forward propagation for the current batch.
    pub fn forward(&mut self) {
        self.run_phase(false, None, None);
    }

    /// Runs backward propagation (zeroing activation and parameter
    /// gradients first).
    pub fn backward(&mut self) {
        self.run_phase(true, None, None);
    }

    /// Runs backward propagation like [`Executor::backward`], invoking
    /// `hook(group_index, &self)` after each backward group completes.
    /// Because the gradient-lane fold happens inside the group, the
    /// parameter gradients owned by that group (see
    /// [`Executor::grad_buckets`]) are final when the hook fires — this
    /// is the seam that lets a communicator overlap ring all-reduce with
    /// the remaining backward passes.
    pub fn backward_hooked(&mut self, hook: GroupHook<'_>) {
        self.run_phase(true, None, Some(hook));
    }

    /// Runs forward propagation, returning per-group wall-clock
    /// milliseconds — the per-layer profile used by the Figure-15
    /// breakdown and the Figure 18–19 cluster model.
    pub fn forward_timed(&mut self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.run_phase(false, Some(&mut out), None);
        out
    }

    /// Runs backward propagation, returning per-group wall-clock
    /// milliseconds.
    pub fn backward_timed(&mut self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.run_phase(true, Some(&mut out), None);
        out
    }

    /// The learnable parameters grouped into communicator buckets, one
    /// per backward group that is the **last** to write some parameter's
    /// gradient, in the order [`Executor::backward_hooked`] fires;
    /// parameters whose gradient no group writes ride in the last
    /// bucket. Fixed at lowering.
    pub fn grad_buckets(&self) -> &[GradBucket] {
        &self.program.program.grad_buckets
    }

    /// The mean loss across batch items and loss ensembles after a
    /// forward pass.
    pub fn loss(&self) -> f32 {
        let losses = &self.program.program.losses;
        if losses.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for loss in losses {
            total += self.store.view(loss).iter().sum::<f32>();
        }
        total / (losses.len() * self.batch()) as f32
    }

    /// Applies `f` to each `(value, grad, lr_mult)` parameter pair.
    ///
    /// This is the solvers' access path; gradients are those accumulated
    /// by the last backward pass (summed over the batch).
    pub fn for_each_param_mut(&mut self, mut f: impl FnMut(&mut [f32], &[f32], f32)) {
        let storages = &mut self.store.storages;
        let program = &*self.program.program;
        for (p, &(vi, gi)) in program.net.params.iter().zip(&program.param_slots) {
            // vi != gi (checked at instantiation): split between them.
            let (value, grad) = if vi < gi {
                let (lo, hi) = storages.split_at_mut(gi);
                (&mut lo[vi], &hi[0])
            } else {
                let (lo, hi) = storages.split_at_mut(vi);
                (&mut hi[0], &lo[gi])
            };
            f(value, grad, p.lr_mult);
        }
    }

    /// Applies `f` to each parameter's `(grad buffer name, gradient)`
    /// pair, mutably — the gradient-hygiene (clipping / finite-check)
    /// access path, run between `backward` and `Solver::step`.
    pub fn for_each_param_grad_mut(&mut self, mut f: impl FnMut(&str, &mut [f32])) {
        let program = &*self.program.program;
        for (p, &(_, gi)) in program.net.params.iter().zip(&program.param_slots) {
            f(&p.grad, &mut self.store.storages[gi]);
        }
    }

    /// Scans the buffers selected by `kinds` for non-finite values and
    /// returns the first hit per buffer, named as declared. Buffer names
    /// and kinds come from the compiled net's sentinel hook
    /// (`CompiledNet::sentinel_buffers`); aliased storages are scanned
    /// once. `SentinelMode::Off` scans nothing; `Exhaustive` reads every
    /// element.
    pub fn scan_numerics(
        &self,
        mode: SentinelMode,
        kinds: impl Fn(latte_ir::BufferKind) -> bool,
    ) -> Vec<BufferAnomaly> {
        let Some(stride) = mode.stride() else {
            return Vec::new();
        };
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (name, kind) in self.compiled().sentinel_buffers() {
            if !kinds(kind) {
                continue;
            }
            let Ok(info) = self.program.program.table.require(name) else {
                continue;
            };
            if !seen.insert(info.storage) {
                continue;
            }
            if let Some((index, class)) = scan_slice(self.store.view(info), stride) {
                out.push(BufferAnomaly {
                    buffer: name.to_string(),
                    index,
                    class,
                });
            }
        }
        out
    }

    fn run_group(&mut self, g: &CGroup, batch: usize, n_slots: usize) {
        for seg in &g.segments {
            match seg {
                Segment::Batched(b) => self.run_batched_gemm(b),
                Segment::ExternWhole(e) => self.run_extern_whole(g, e),
                Segment::PerItem(kernels) => {
                    let seg = ItemSegment {
                        base: self.store.storages.as_mut_ptr(),
                        g,
                        kernels,
                        batch,
                        n_slots,
                    };
                    if g.parallel {
                        // Parallel groups take the lane-scratch path at
                        // EVERY thread count (including 1): the lane
                        // structure fixes the gradient summation order,
                        // which is what makes threads=4 bit-identical to
                        // threads=1.
                        self.run_items_parallel(seg);
                    } else {
                        self.pool.with_caller_ctx(|ctx| {
                            for item in 0..batch {
                                // SAFETY: single-threaded exclusive access
                                // through `&mut self`.
                                unsafe { run_item(ctx, seg, item, None) };
                            }
                        });
                    }
                }
            }
        }
    }

    /// Static interleaved schedule across the persistent pool, with
    /// fixed-lane parameter-gradient scratch reduced afterwards in lane
    /// order (see [`crate::pool`] for the determinism argument). Lane
    /// scratch is pool-owned: zeroed per group, never reallocated.
    fn run_items_parallel(&mut self, seg: ItemSegment<'_>) {
        let (g, batch) = (seg.g, seg.batch);
        // Lane count is capped by the batch (tail lanes would be empty)
        // but NEVER depends on the thread count.
        let n_lanes = GRAD_LANES.min(batch.max(1));
        let lane_len = g
            .grad_spans
            .last()
            .map_or(0, |&(_, offset, len)| offset + len);
        let lanes = self.pool.lane_scratch(n_lanes, lane_len);

        /// Everything the item job needs, bundled so one `unsafe impl
        /// Sync` covers the raw pointers (base storage + lane scratch).
        struct ItemJob<'a> {
            seg: ItemSegment<'a>,
            lanes: [*mut f32; GRAD_LANES],
            n_lanes: usize,
            nt: usize,
        }
        // SAFETY: workers access disjoint batched slices; shared
        // (unbatched) storages are read-only or redirected to lane
        // scratch, and each lane is owned by exactly one worker.
        unsafe impl Sync for ItemJob<'_> {}

        let job = ItemJob {
            seg,
            lanes,
            n_lanes,
            nt: self.pool.threads(),
        };
        // schedule(static, 1) over lanes: the driving worker owns lanes
        // first, first+step, …; lane `l` owns items l, l+L, … — an
        // item→accumulator mapping independent of the worker count, so
        // any `(first, step)` coverage of the lanes produces the same
        // bits.
        fn run_lanes(j: &ItemJob<'_>, ctx: &mut WorkerCtx, first: usize, step: usize) {
            let mut lane = first;
            while lane < j.n_lanes {
                let mut item = lane;
                while item < j.seg.batch {
                    // SAFETY: see module docs; this lane's scratch is
                    // exclusive to this worker.
                    unsafe { run_item(ctx, j.seg, item, Some(j.lanes[lane])) };
                    item += j.n_lanes;
                }
                lane += step;
            }
        }
        self.pool.run(&|tid, ctx| run_lanes(&job, ctx, tid, job.nt));

        // Synchronized reduction, folding lanes in lane order — the same
        // association for every thread count.
        for &(storage, offset, len) in &g.grad_spans {
            let main = &mut self.store.storages[storage];
            for &lane in &lanes[..n_lanes] {
                // SAFETY: the job finished; the caller again has exclusive
                // access to every lane, each `lane_len` long.
                let s = unsafe { std::slice::from_raw_parts(lane.add(offset), len) };
                for (m, v) in main.iter_mut().zip(s) {
                    *m += v;
                }
            }
        }
    }

    fn run_batched_gemm(&mut self, b: &BatchedGemm) {
        assert!(b.c != b.a && b.c != b.b, "batched gemm aliasing");
        let (m, k) = match b.batch_dim {
            BatchDim::M { k } => (self.batch(), k),
            BatchDim::K { m } => (m, self.batch()),
        };
        let base = self.store.storages.as_mut_ptr();
        // SAFETY: a, b, c are distinct storage indices (asserted); a and b
        // are only read. Each operand is cut to what the GEMM reads, so
        // at a batch below the capacity no item past it is in reach.
        let (a, bb, c) = unsafe {
            let av: &Vec<f32> = &*base.add(b.a);
            let bv: &Vec<f32> = &*base.add(b.b);
            let cv: &mut Vec<f32> = &mut *base.add(b.c);
            (
                &av[b.a_base..b.a_base + m * k],
                &bv[b.b_base..b.b_base + k * b.n],
                &mut cv[b.c_base..b.c_base + m * b.n],
            )
        };
        let ta = if b.ta { Transpose::Yes } else { Transpose::No };
        let tb = if b.tb { Transpose::Yes } else { Transpose::No };
        // Whole-batch GEMMs are the FLOP majority for FC layers: partition
        // macro-tiles across the pool (bit-identical for any worker count).
        Gemm::compute_parallel(self.pool.as_ref(), ta, tb, m, b.n, k, a, bb, c);
    }

    fn run_extern_whole(&mut self, g: &CGroup, e: &CExtern) {
        let batch = self.batch();
        let base = self.store.storages.as_mut_ptr();
        let mut views: Vec<&mut [f32]> = self
            .pool
            .with_caller_ctx(|ctx| std::mem::take(&mut ctx.scratch.views));
        for &i in &e.bufs {
            let b = &g.bufs[i];
            let len = if b.batched {
                batch * b.per_item
            } else {
                b.per_item
            };
            // SAFETY: lowering rejects duplicate storages per extern, so
            // these views are disjoint.
            views.push(unsafe { &mut (&mut *base.add(b.storage))[..len] });
        }
        let mut inv = ExternInvocation {
            attrs: &e.attrs,
            batch,
            item: None,
            per_item: &e.per_item,
            batched: &e.batched,
            bufs: views,
        };
        (e.f)(&mut inv).expect("extern kernel failed");
        let views = recycle(inv.bufs);
        self.pool.with_caller_ctx(|ctx| ctx.scratch.views = views);
    }
}

/// Executes one kernel for one batch item.
fn exec_kernel(k: &Kernel, cx: &mut ItemCx<'_>) {
    let Scratch {
        env,
        frame,
        columns,
        transfer,
        views,
    } = &mut cx.ctx.scratch;
    match k {
        Kernel::Loop { slot, extent, body } => {
            for v in 0..*extent {
                cx.ctx.scratch.env[*slot] = v as i64;
                for k in body {
                    exec_kernel(k, cx);
                }
            }
        }
        // SAFETY: `run_item` bound a view for every buffer of the group,
        // lowering proved every reference of the program in bounds for
        // all loop values, and the item owns what it writes (module
        // docs).
        Kernel::Elem(p) => unsafe { elem::run(p, env, frame, columns) },
        Kernel::Gemm(gm) => exec_gemm(gm, env, frame, &mut cx.ctx.gemm),
        // SAFETY: as for element programs; lowering built every run list
        // inside the two bindings' per-item spans and checked that the
        // two are different storages.
        Kernel::Transfer(t) => unsafe { t.run(env, frame, transfer) },
        Kernel::Extern(e) => {
            let mut bufs: Vec<&mut [f32]> = std::mem::take(views);
            bufs.extend(e.bufs.iter().map(|&i| frame[i].slice_mut(0, frame[i].len)));
            let mut inv = ExternInvocation {
                attrs: &e.attrs,
                batch: cx.batch,
                item: Some(cx.item),
                per_item: &e.per_item,
                batched: &e.batched,
                bufs,
            };
            (e.f)(&mut inv).expect("extern kernel failed");
            *views = recycle(inv.bufs);
        }
    }
}

fn exec_gemm(g: &CGemm, env: &[i64], frame: &[RawBuf], engine: &mut Gemm) {
    // Operand sizes are transpose-invariant (k*m == m*k).
    let a_need = g.m * g.k;
    let b_need = g.k * g.n;
    let a = frame[g.a.buf].slice(g.a.idx.eval(env), a_need);
    let b = frame[g.b.buf].slice(g.b.idx.eval(env), b_need);
    let c = frame[g.c.buf].slice_mut(g.c.idx.eval(env), g.m * g.n);
    let ta = if g.ta { Transpose::Yes } else { Transpose::No };
    let tb = if g.tb { Transpose::Yes } else { Transpose::No };
    engine.compute(ta, tb, g.m, g.n, g.k, a, b, c);
}
