//! Lowering: compiles the optimizer's loop-nest groups into executable
//! kernels.
//!
//! This is the runtime's stand-in for the paper's code-generation stage
//! (ParallelAccelerator.jl emitting C++ compiled by ICC). Every statement
//! is translated once, ahead of execution, into a [`Kernel`] tree whose
//! buffer references are pre-resolved affine functions of loop slots:
//!
//! * a perfect loop nest around one store (down to a bare assignment)
//!   becomes an element program ([`crate::elem`]): the expression tree
//!   is flattened once into a register program that runs strip-mined
//!   over fixed-width columns (the stand-in for `#pragma simd`
//!   vectorization; the compiler's `vectorize` flag selects the strip
//!   width);
//! * matched GEMM statements call the blocked kernel in `latte-tensor`;
//!   top-level fully-connected GEMMs whose operands are batched buffers
//!   are *hoisted* to one whole-batch GEMM per pass;
//! * data-copy nests and gather tables become transfer programs
//!   ([`crate::transfer`]): run lists with every clipping decision at the
//!   source boundary already made.
//!
//! Lowering statically verifies that every compiled reference stays inside
//! its buffer for all loop-variable values — a bounds proof that lets the
//! execution hot path use unchecked accesses.

use std::collections::HashMap;
use std::fmt;

use latte_core::{CompiledNet, Group};
use latte_ir::{Assign, BufRef, Expr, ExternOp, GemmStmt, IndexExpr, Stmt};

use crate::elem::{self, ElemProgram, Reg};
use crate::error::RuntimeError;
use crate::registry::{ExternFn, KernelRegistry};
use crate::store::BufferTable;
use crate::transfer::{Tables, Transfer};

/// A compiled affine index: `base + Σ terms[i].1 * env[terms[i].0]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CIdx {
    pub base: i64,
    pub terms: Vec<(usize, i64)>,
}

impl CIdx {
    pub fn constant(base: i64) -> Self {
        CIdx {
            base,
            terms: Vec::new(),
        }
    }

    pub fn eval(&self, env: &[i64]) -> i64 {
        let mut v = self.base;
        for &(slot, coef) in &self.terms {
            v += coef * env[slot];
        }
        v
    }

    /// The coefficient of a slot (0 when absent).
    pub fn coef(&self, slot: usize) -> i64 {
        self.terms
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Removes a slot's term and returns its coefficient (0 when
    /// absent): how an element program splits an index into where its
    /// nest starts and the stride of each of the nest's loops.
    pub fn take_coef(&mut self, slot: usize) -> i64 {
        let coef = self.coef(slot);
        self.terms.retain(|(s, _)| *s != slot);
        coef
    }

    /// Minimum and maximum value over slot ranges `[0, extent)`.
    pub fn range(&self, extents: &[usize]) -> (i64, i64) {
        let mut lo = self.base;
        let mut hi = self.base;
        for &(slot, coef) in &self.terms {
            let max_v = extents.get(slot).map(|&e| e as i64 - 1).unwrap_or(0);
            if coef >= 0 {
                hi += coef * max_v;
            } else {
                lo += coef * max_v;
            }
        }
        (lo, hi)
    }
}

impl fmt::Display for CIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms: Vec<String> = self
            .terms
            .iter()
            .map(|(slot, coef)| match coef {
                1 => format!("s{slot}"),
                _ => format!("{coef}*s{slot}"),
            })
            .collect();
        let body = terms.join(" + ");
        match (body.is_empty(), self.base) {
            (true, base) => write!(f, "{base}"),
            (false, 0) => write!(f, "{body}"),
            (false, base) => write!(f, "{body} + {base}"),
        }
    }
}

/// A buffer reference resolved to a buffer-table index plus an affine
/// element offset.
#[derive(Debug, Clone)]
pub(crate) struct CRef {
    pub buf: usize,
    pub idx: CIdx,
}

/// A compiled GEMM.
#[derive(Debug, Clone)]
pub(crate) struct CGemm {
    pub ta: bool,
    pub tb: bool,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub a: CRef,
    pub b: CRef,
    pub c: CRef,
}

/// A whole-batch GEMM hoisted out of the per-item loop. Operand fields
/// are *storage* indices (not group buffer indices): the whole storage is
/// the batched operand. The batch is not lowered in: it fills `m` or `k`
/// (`batch_dim`), and the executor supplies it at every call.
#[derive(Debug, Clone)]
pub(crate) struct BatchedGemm {
    /// `true` transposes the (batch-major) left operand.
    pub ta: bool,
    pub tb: bool,
    pub batch_dim: BatchDim,
    pub n: usize,
    pub a: usize,
    pub a_base: usize,
    pub b: usize,
    pub b_base: usize,
    pub c: usize,
    pub c_base: usize,
}

/// Which dimension of a [`BatchedGemm`] the batch fills, holding the
/// other of `m` and `k`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchDim {
    /// `C(batch × n) += A(batch × k) · op(B)`: the FC forward and
    /// backward-data hoists.
    M { k: usize },
    /// `C(m × n) += A(batch × m)ᵀ · B(batch × n)`: the weight gradient.
    K { m: usize },
}

/// A compiled extern-kernel call.
#[derive(Clone)]
pub(crate) struct CExtern {
    pub op: String,
    pub f: ExternFn,
    pub attrs: std::collections::BTreeMap<String, f64>,
    pub bufs: Vec<usize>,
    /// Per-item element count and batchedness of each entry of `bufs`:
    /// what every invocation reports to the kernel.
    pub per_item: Vec<usize>,
    pub batched: Vec<bool>,
}

impl std::fmt::Debug for CExtern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CExtern")
            .field("op", &self.op)
            .field("bufs", &self.bufs)
            .finish_non_exhaustive()
    }
}

/// An executable kernel.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    Loop {
        slot: usize,
        extent: usize,
        body: Vec<Kernel>,
    },
    /// A perfect nest around a single store, or a bare assignment.
    Elem(ElemProgram),
    Gemm(CGemm),
    /// A data-copy nest or a gather table.
    Transfer(Transfer),
    Extern(CExtern),
}

/// One buffer used by a group.
#[derive(Debug, Clone)]
pub(crate) struct BufBinding {
    pub storage: usize,
    pub per_item: usize,
    pub batched: bool,
    pub param_grad: bool,
}

/// A schedulable compiled group.
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    PerItem(Vec<Kernel>),
    Batched(BatchedGemm),
    ExternWhole(CExtern),
}

/// A compiled group: its buffer table plus segments.
#[derive(Debug, Clone)]
pub(crate) struct CGroup {
    pub name: String,
    pub parallel: bool,
    pub bufs: Vec<BufBinding>,
    /// The parameter-gradient storages among `bufs`, ascending, each
    /// with its span `(storage, offset, len)` in a gradient lane's
    /// scratch: what a parallel group redirects and folds.
    pub grad_spans: Vec<(usize, usize, usize)>,
    /// Buffer name behind each `bufs` entry, for the printed plan.
    pub buf_names: Vec<String>,
    pub segments: Vec<Segment>,
    /// Operand names of each `Segment::Batched`, in segment order, laid
    /// out as the batched kernel's `[a, b, c]` (the hoist may swap the
    /// statement's operands). Batched GEMMs address raw storage rather
    /// than the buffer table, so the printed plan needs the names directly.
    pub gemm_names: Vec<[String; 3]>,
}

/// The fully lowered program: the kernel groups of both phases, built
/// once per [`CompiledProgram`](crate::CompiledProgram) and shared by its
/// executors, each a thin driver over this plan.
#[derive(Debug)]
pub struct ExecutionPlan {
    pub(crate) forward: Vec<CGroup>,
    pub(crate) backward: Vec<CGroup>,
    /// Loop-variable slots the widest group needs.
    pub(crate) n_slots: usize,
}

impl ExecutionPlan {
    /// Number of lowered forward groups.
    pub fn forward_groups(&self) -> usize {
        self.forward.len()
    }

    /// Number of lowered backward groups.
    pub fn backward_groups(&self) -> usize {
        self.backward.len()
    }
}

/// The lowered program as text: per group its schedule, buffer table
/// and segments — whole-batch GEMM shapes, and per-item kernels down to
/// each element program's instruction list and strip width. What
/// `latte-explain --kernels` prints and `tests/golden_ir.rs` pins.
impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (title, groups) in [("forward", &self.forward), ("backward", &self.backward)] {
            writeln!(f, "== {title} kernels ==")?;
            for g in groups {
                write!(f, "{g}")?;
            }
        }
        Ok(())
    }
}

/// BLAS's letter for an operand's transposition.
fn t(transposed: bool) -> char {
    if transposed {
        'T'
    } else {
        'N'
    }
}

impl fmt::Display for CGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let schedule = if self.parallel { "parallel" } else { "serial" };
        writeln!(f, "group {} [{schedule}]", self.name)?;
        for (i, (b, name)) in self.bufs.iter().zip(&self.buf_names).enumerate() {
            let kind = if b.batched { "per item" } else { "shared" };
            writeln!(f, "  b{i} = {name} ({} {kind})", b.per_item)?;
        }
        let mut names = self.gemm_names.iter();
        for seg in &self.segments {
            match seg {
                Segment::PerItem(kernels) => {
                    writeln!(f, "  per item:")?;
                    for k in kernels {
                        k.render(f, 4)?;
                    }
                }
                Segment::Batched(g) => {
                    let [a, b, c] = names.next().expect("a name triple per batched gemm");
                    let (m, k) = match g.batch_dim {
                        BatchDim::M { k } => ("B".to_string(), k.to_string()),
                        BatchDim::K { m } => (m.to_string(), "B".to_string()),
                    };
                    writeln!(
                        f,
                        "  whole batch: gemm {}{} m={m} n={} k={k} A={a}+{} B={b}+{} C={c}+{}",
                        t(g.ta),
                        t(g.tb),
                        g.n,
                        g.a_base,
                        g.b_base,
                        g.c_base
                    )?;
                }
                Segment::ExternWhole(e) => {
                    writeln!(f, "  whole batch: extern {}{:?}", e.op, e.bufs)?;
                }
            }
        }
        Ok(())
    }
}

impl Kernel {
    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = " ".repeat(indent);
        match self {
            Kernel::Loop { extent: 0, .. } => writeln!(f, "{pad}barrier"),
            Kernel::Loop { slot, extent, body } => {
                writeln!(f, "{pad}for s{slot} in 0..{extent}")?;
                body.iter().try_for_each(|k| k.render(f, indent + 2))
            }
            Kernel::Elem(p) => p
                .to_string()
                .lines()
                .try_for_each(|line| writeln!(f, "{pad}{line}")),
            Kernel::Gemm(g) => writeln!(
                f,
                "{pad}gemm {}{} m={} n={} k={} A=b{}[{}] B=b{}[{}] C=b{}[{}]",
                t(g.ta),
                t(g.tb),
                g.m,
                g.n,
                g.k,
                g.a.buf,
                g.a.idx,
                g.b.buf,
                g.b.idx,
                g.c.buf,
                g.c.idx
            ),
            Kernel::Transfer(t) => writeln!(f, "{pad}{t}"),
            Kernel::Extern(e) => writeln!(f, "{pad}extern {}{:?}", e.op, e.bufs),
        }
    }
}

/// Lowers a compiled network against its resolved buffer table, storing
/// each transfer table once across the plan. The plan is one item's: the
/// batch enters only when an executor runs it.
pub(crate) fn lower(
    net: &CompiledNet,
    table: &BufferTable,
    registry: &KernelRegistry,
) -> Result<ExecutionPlan, RuntimeError> {
    let mut max_slots = 1;
    let mut tables = Tables::default();
    let mut lower_phase = |groups: &[Group]| -> Result<Vec<CGroup>, RuntimeError> {
        let mut out = Vec::with_capacity(groups.len());
        for g in groups {
            out.push(lower_group(g, net, table, registry, &mut tables, &mut max_slots)?);
        }
        Ok(out)
    };
    let forward = lower_phase(&net.forward)?;
    let backward = lower_phase(&net.backward)?;
    Ok(ExecutionPlan {
        forward,
        backward,
        n_slots: max_slots,
    })
}

struct GroupLowerer<'a> {
    table: &'a BufferTable,
    registry: &'a KernelRegistry,
    tables: &'a mut Tables,
    vectorize: bool,
    slots: HashMap<String, usize>,
    /// Extent per slot (for bounds verification).
    slot_extents: Vec<usize>,
    bufs: Vec<BufBinding>,
    buf_names: Vec<String>,
    buf_index: HashMap<String, usize>,
}

fn lower_group(
    group: &Group,
    net: &CompiledNet,
    table: &BufferTable,
    registry: &KernelRegistry,
    tables: &mut Tables,
    max_slots: &mut usize,
) -> Result<CGroup, RuntimeError> {
    let mut lw = GroupLowerer {
        table,
        registry,
        tables,
        vectorize: net.vectorize,
        slots: HashMap::new(),
        slot_extents: Vec::new(),
        bufs: Vec::new(),
        buf_names: Vec::new(),
        buf_index: HashMap::new(),
    };
    let mut segments: Vec<Segment> = Vec::new();
    let mut gemm_names: Vec<[String; 3]> = Vec::new();
    let mut current: Vec<Kernel> = Vec::new();
    let parallel = group_is_parallel(group);

    for stmt in &group.stmts {
        // Whole-batch hoists first.
        if let Stmt::Gemm(g) = stmt {
            if let Some((b, names)) = lw.try_batch_gemm(g)? {
                if !current.is_empty() {
                    segments.push(Segment::PerItem(std::mem::take(&mut current)));
                }
                segments.push(Segment::Batched(b));
                gemm_names.push(names);
                continue;
            }
        }
        if let Stmt::Extern(e) = stmt {
            let (f, whole) = registry.get(&e.op)?;
            if whole {
                let ce = lw.lower_extern(e, f.clone())?;
                if !current.is_empty() {
                    segments.push(Segment::PerItem(std::mem::take(&mut current)));
                }
                segments.push(Segment::ExternWhole(ce));
                continue;
            }
        }
        current.push(lw.lower_stmt(stmt)?);
    }
    if !current.is_empty() {
        segments.push(Segment::PerItem(current));
    }
    *max_slots = (*max_slots).max(lw.slot_extents.len());
    let lowered = CGroup {
        name: group.name.clone(),
        parallel,
        grad_spans: grad_spans(&lw.bufs),
        bufs: lw.bufs,
        buf_names: lw.buf_names,
        segments,
        gemm_names,
    };
    // The vectors above grew by pushing and keep that slack; a plan lives
    // as long as its program, so hand back a copy whose every vector —
    // buffer table, names, segments, kernel bodies, element-program
    // instruction lists — is allocated at its exact length.
    Ok(lowered.clone())
}

/// Lays a group's parameter-gradient storages out back to back in a
/// gradient lane's scratch. A parameter gradient is unbatched, so a
/// binding's per-item length is its storage's.
fn grad_spans(bufs: &[BufBinding]) -> Vec<(usize, usize, usize)> {
    let mut storages: Vec<(usize, usize)> =
        bufs.iter().filter(|b| b.param_grad).map(|b| (b.storage, b.per_item)).collect();
    storages.sort_unstable();
    storages.dedup();
    let mut offset = 0;
    storages
        .into_iter()
        .map(|(s, len)| {
            offset += len;
            (s, offset - len, len)
        })
        .collect()
}

fn group_is_parallel(group: &Group) -> bool {
    fn any_parallel(s: &Stmt) -> bool {
        let mut found = false;
        s.visit(&mut |st| {
            if let Stmt::For(l) = st {
                found |= l.annot.parallel;
            }
        });
        found
    }
    group.stmts.iter().any(any_parallel)
}

impl GroupLowerer<'_> {
    fn slot(&mut self, var: &str, extent: usize) -> usize {
        if let Some(&s) = self.slots.get(var) {
            self.slot_extents[s] = extent;
            return s;
        }
        let s = self.slot_extents.len();
        self.slots.insert(var.to_string(), s);
        self.slot_extents.push(extent);
        s
    }

    fn buf(&mut self, name: &str) -> Result<usize, RuntimeError> {
        if let Some(&i) = self.buf_index.get(name) {
            return Ok(i);
        }
        let info = self.table.require(name)?;
        let binding = BufBinding {
            storage: info.storage,
            per_item: info.per_item,
            batched: info.batched,
            param_grad: matches!(info.kind, latte_ir::BufferKind::ParamGrad),
        };
        self.bufs.push(binding);
        self.buf_names.push(name.to_string());
        let i = self.bufs.len() - 1;
        self.buf_index.insert(name.to_string(), i);
        Ok(i)
    }

    fn cidx(&mut self, e: &IndexExpr) -> Result<CIdx, RuntimeError> {
        let mut terms = Vec::new();
        for (var, coef) in e.terms() {
            let slot = self.slots.get(var).copied().ok_or_else(|| {
                RuntimeError::Malformed {
                    detail: format!("index uses unbound variable `{var}`"),
                }
            })?;
            terms.push((slot, coef));
        }
        Ok(CIdx {
            base: e.offset(),
            terms,
        })
    }

    /// Compiles a buffer reference, flattening multi-dim indices through
    /// the buffer's strides and statically checking bounds.
    fn cref(&mut self, r: &BufRef) -> Result<CRef, RuntimeError> {
        let buf = self.buf(&r.buffer)?;
        let info = self.table.require(&r.buffer)?;
        if r.indices.len() != info.shape.rank() {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "reference {r} has {} indices but buffer has rank {}",
                    r.indices.len(),
                    info.shape.rank()
                ),
            });
        }
        let mut flat = CIdx::constant(0);
        for (idx, &stride) in r.indices.iter().zip(info.shape.strides()) {
            let c = self.cidx(idx)?;
            flat.base += c.base * stride as i64;
            for (slot, coef) in c.terms {
                let existing = flat.terms.iter_mut().find(|(s, _)| *s == slot);
                match existing {
                    Some((_, e)) => *e += coef * stride as i64,
                    None => flat.terms.push((slot, coef * stride as i64)),
                }
            }
        }
        // One spelling per affine function: element programs compare
        // indices structurally to recognise in-place updates.
        flat.terms.retain(|&(_, coef)| coef != 0);
        flat.terms.sort_unstable_by_key(|&(slot, _)| slot);
        let (lo, hi) = flat.range(&self.slot_extents);
        if lo < 0 || hi >= info.per_item as i64 {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "reference {r} ranges over [{lo}, {hi}] outside buffer of {} elements",
                    info.per_item
                ),
            });
        }
        Ok(CRef { buf, idx: flat })
    }

    /// Emits `e` into an element program, returning the register that
    /// holds its value.
    fn emit(&mut self, e: &Expr, b: &mut elem::Builder) -> Result<Reg, RuntimeError> {
        Ok(match e {
            Expr::Const(c) => b.constant(*c),
            Expr::Load(r) => {
                let src = self.cref(r)?;
                b.load(src)
            }
            Expr::Unary(op, x) => {
                let x = self.emit(x, b)?;
                b.un(*op, x)
            }
            Expr::Binary(op, x, y) => {
                let x = self.emit(x, b)?;
                let y = self.emit(y, b)?;
                b.bin(*op, x, y)
            }
        })
    }

    /// Lowers the assignment `a` inside the perfect loop nest `nest`
    /// (`(slot, extent)`, outermost first; empty for a bare assignment)
    /// into one element program.
    fn lower_assign(
        &mut self,
        a: &Assign,
        nest: &[(usize, usize)],
    ) -> Result<Kernel, RuntimeError> {
        let mut b = elem::Builder::default();
        self.emit(&a.value, &mut b)?;
        let dest = self.cref(&a.dest)?;
        Ok(Kernel::Elem(b.finish(dest, a.op, nest, self.vectorize, &self.bufs)))
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<Kernel, RuntimeError> {
        match stmt {
            Stmt::For(l) => {
                // A perfect nest around a single store is one element
                // program: it walks the rows itself instead of being
                // re-entered, indices re-evaluated, once per row.
                let mut nest = vec![l];
                while let [Stmt::For(inner)] = nest[nest.len() - 1].body.as_slice() {
                    if nest.iter().any(|outer| outer.var == inner.var) {
                        break;
                    }
                    nest.push(inner);
                }
                if let [Stmt::Assign(a)] = nest[nest.len() - 1].body.as_slice() {
                    let nest: Vec<_> = nest
                        .iter()
                        .map(|l| (self.slot(&l.var, l.extent), l.extent))
                        .collect();
                    return self.lower_assign(a, &nest);
                }
                let slot = self.slot(&l.var, l.extent);
                let body = l
                    .body
                    .iter()
                    .map(|s| self.lower_stmt(s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Kernel::Loop {
                    slot,
                    extent: l.extent,
                    body,
                })
            }
            Stmt::Assign(a) => self.lower_assign(a, &[]),
            Stmt::Gemm(g) => Ok(Kernel::Gemm(self.lower_gemm(g)?)),
            Stmt::Copy(c) => {
                let (dest, src) = (self.buf(&c.dest)?, self.buf(&c.src)?);
                let offsets = c
                    .offsets
                    .iter()
                    .map(|o| self.cidx(o))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut t = Transfer::copy(c, dest, src, &self.bufs, offsets, &self.slot_extents)?;
                t.share_table(self.tables);
                Ok(Kernel::Transfer(t))
            }
            Stmt::Gather(g) => {
                let (dest, src) = (self.buf(&g.dest)?, self.buf(&g.src)?);
                let mut t = Transfer::table(g, dest, src, &self.bufs)?;
                t.share_table(self.tables);
                Ok(Kernel::Transfer(t))
            }
            Stmt::Extern(e) => {
                let (f, whole) = self.registry.get(&e.op)?;
                if whole {
                    return Err(RuntimeError::Malformed {
                        detail: format!("whole-batch extern `{}` nested inside a loop", e.op),
                    });
                }
                let f = f.clone();
                Ok(Kernel::Extern(self.lower_extern(e, f)?))
            }
        }
    }

    fn lower_gemm(&mut self, g: &GemmStmt) -> Result<CGemm, RuntimeError> {
        let a = CRef {
            buf: self.buf(&g.a)?,
            idx: self.cidx(&g.a_off)?,
        };
        let b = CRef {
            buf: self.buf(&g.b)?,
            idx: self.cidx(&g.b_off)?,
        };
        let c = CRef {
            buf: self.buf(&g.c)?,
            idx: self.cidx(&g.c_off)?,
        };
        // Static bounds: offset range + operand extent within the buffer.
        for (r, need, name) in [
            (&a, g.m * g.k, &g.a),
            (&b, g.k * g.n, &g.b),
            (&c, g.m * g.n, &g.c),
        ] {
            let (lo, hi) = r.idx.range(&self.slot_extents);
            let len = self.table.require(name)?.per_item as i64;
            if lo < 0 || hi + need as i64 > len {
                return Err(RuntimeError::Malformed {
                    detail: format!(
                        "gemm operand `{name}` spans [{lo}, {}] outside {len} elements",
                        hi + need as i64
                    ),
                });
            }
        }
        Ok(CGemm {
            ta: g.ta,
            tb: g.tb,
            m: g.m,
            n: g.n,
            k: g.k,
            a,
            b,
            c,
        })
    }

    /// Recognizes the three whole-batch GEMM forms (fully-connected
    /// forward, backward-data, backward-weights) and hoists them out of
    /// the per-item loop.
    /// On success also returns the operand buffer names in the batched
    /// kernel's `[a, b, c]` order (the hoist may swap the statement's
    /// operands), for the printed plan.
    ///
    /// Each hoist is in bounds at every batch, so it is lowered without
    /// one. Every batched operand has base 0 and `per_item` equal to the
    /// per-item dimension it is read with (`k` or `n` in the forward,
    /// `k` or `m` in the backward-data, `m` or `n` in the weight
    /// gradient), and its storage is `per_item × batch`: exactly the
    /// `batch × per_item` matrix the hoist reads or writes. The shared
    /// operand does not depend on the batch, and the GEMM checks its
    /// slice length at every call.
    fn try_batch_gemm(
        &mut self,
        g: &GemmStmt,
    ) -> Result<Option<(BatchedGemm, [String; 3])>, RuntimeError> {
        if !(g.a_off.is_constant() && g.b_off.is_constant() && g.c_off.is_constant()) {
            return Ok(None);
        }
        let (a_base, b_base, c_base) = (g.a_off.offset(), g.b_off.offset(), g.c_off.offset());
        if a_base < 0 || b_base < 0 || c_base < 0 {
            return Ok(None);
        }
        let ai = self.table.require(&g.a)?.clone();
        let bi = self.table.require(&g.b)?.clone();
        let ci = self.table.require(&g.c)?.clone();
        let (a, b, c) = (ai.storage, bi.storage, ci.storage);

        // FC forward: per-item C(1xN) += A(1xK)·op(B). Batched:
        // C(batch x N) += A(batch x K)·op(B).
        if g.m == 1
            && ai.batched
            && ci.batched
            && !bi.batched
            && ai.per_item == g.k
            && ci.per_item == g.n
            && a_base == 0
            && c_base == 0
            && !g.ta
        {
            return Ok(Some((
                BatchedGemm {
                    ta: false,
                    tb: g.tb,
                    batch_dim: BatchDim::M { k: g.k },
                    n: g.n,
                    a,
                    a_base: 0,
                    b,
                    b_base: b_base as usize,
                    c,
                    c_base: 0,
                },
                [g.a.clone(), g.b.clone(), g.c.clone()],
            )));
        }
        // FC backward-data: per-item C(Mx1) += op(A)(MxK)·B(Kx1).
        // Batched: C'(batch x M) += B'(batch x K) · op(A)ᵀ.
        if g.n == 1
            && bi.batched
            && ci.batched
            && !ai.batched
            && bi.per_item == g.k
            && ci.per_item == g.m
            && b_base == 0
            && c_base == 0
        {
            return Ok(Some((
                BatchedGemm {
                    ta: false,
                    // stored A is (m x k) when !ta → logical Aᵀ needs transpose;
                    // stored A is (k x m) when ta → usable directly.
                    tb: !g.ta,
                    batch_dim: BatchDim::M { k: g.k },
                    n: g.m,
                    a: b,
                    a_base: 0,
                    b: a,
                    b_base: a_base as usize,
                    c,
                    c_base: 0,
                },
                [g.b.clone(), g.a.clone(), g.c.clone()],
            )));
        }
        // Weight gradient (outer product): per-item C(MxN) += A(Mx1)·B(1xN)
        // with A, B batched and C shared. Batched:
        // C += A'(batch x M)ᵀ · B'(batch x N).
        if g.k == 1
            && ai.batched
            && bi.batched
            && !ci.batched
            && ai.per_item == g.m
            && bi.per_item == g.n
            && a_base == 0
            && b_base == 0
            && c_base == 0
        {
            return Ok(Some((
                BatchedGemm {
                    ta: true,
                    tb: false,
                    batch_dim: BatchDim::K { m: g.m },
                    n: g.n,
                    a,
                    a_base: 0,
                    b,
                    b_base: 0,
                    c,
                    c_base: 0,
                },
                [g.a.clone(), g.b.clone(), g.c.clone()],
            )));
        }
        Ok(None)
    }

    fn lower_extern(
        &mut self,
        e: &ExternOp,
        f: ExternFn,
    ) -> Result<CExtern, RuntimeError> {
        let mut bufs = Vec::with_capacity(e.buffers.len());
        let mut storages = Vec::new();
        for name in &e.buffers {
            let i = self.buf(name)?;
            let st = self.bufs[i].storage;
            if storages.contains(&st) {
                return Err(RuntimeError::Malformed {
                    detail: format!(
                        "extern `{}` receives aliasing buffers (storage {st} twice)",
                        e.op
                    ),
                });
            }
            storages.push(st);
            bufs.push(i);
        }
        Ok(CExtern {
            op: e.op.clone(),
            f,
            attrs: e.attrs.clone(),
            per_item: bufs.iter().map(|&i| self.bufs[i].per_item).collect(),
            batched: bufs.iter().map(|&i| self.bufs[i].batched).collect(),
            bufs,
        })
    }
}
