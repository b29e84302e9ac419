//! Element programs: the runtime's `#pragma simd`.
//!
//! The paper compiles every neuron body into a vectorised loop. Here
//! lowering flattens the body's expression tree, once, into a register
//! program — `Const`, `Load`, `Un`, `Bin` in SSA order, then one store —
//! and [`run`] executes it *strip-mined*: one loop of the nest, the
//! *lanes*, is cut into strips of [`STRIP`] lanes, every register is a
//! `[f32; STRIP]` column, and each instruction runs over a whole column
//! before the next one starts. The `match` on the opcode therefore
//! happens once per strip, not once per element, and the lane loops
//! underneath it are plain slice loops the compiler vectorises.
//!
//! A program covers a whole perfect nest, not just its lane loop: the
//! loops around the lanes are *rows*, which [`run`] walks itself,
//! bumping one address per reference, instead of being re-entered — and
//! every index re-evaluated — once per row. Adjacent loops that every
//! reference walks contiguously merge into one (an in-place ReLU over
//! `h × w × c` is a single loop of `h·w·c` lanes).
//!
//! The lanes are the nest's innermost loop unless that loop is shorter
//! than one vector: then lowering moves the longest loop the store can be
//! reordered over innermost instead, so a 2×2 max-pool runs its 4-element
//! window as 4 rows over thousands of output lanes, not thousands of
//! rows of 4 ([`Builder::finish`] states the three conditions and why
//! they keep every bit).
//!
//! Three things keep the cheap shapes (copy, ReLU, `x * y`) at the cost
//! of a hand-written slice loop:
//!
//! * a unit-stride load of storage the store cannot touch is *borrowed*:
//!   its register is the buffer itself, nothing is copied;
//! * lane-invariant instructions (constants, stride-0 loads, anything
//!   computed from only those) are scalars, evaluated once per call or
//!   per row and folded into the operation that uses them;
//! * when the destination is unit-stride the root operation is *fused*
//!   into the store: `dest[i] += x[i] * y[i]` is one pass — and with no
//!   column to stage, one strip as long as the row.
//!
//! # Why the results are the sequential loops', bit for bit
//!
//! Rows run in order, and lanes are independent: every instruction is a
//! pure lane-wise function evaluated by the same [`UnaryOp::apply`] /
//! [`BinOp::apply`] the sequential loop would call, in the same
//! association. A stride-0 destination (a dot product, a max, a bias
//! gradient) folds its lanes into the destination *in lane order*, one
//! [`AssignOp::apply`] at a time, which is exactly the order of the
//! sequential loop. A lane loop moved innermost changes the order of the
//! iterations but not the sequence of updates any one destination
//! element receives.
//!
//! A strip reads all its lanes before it stores any of them, so it is
//! only legal when no store can feed a later lane's load. [`Builder::finish`]
//! proves that: a load that shares storage with the destination must
//! address the *same element in the same lane* (in-place updates such as
//! `g[i] = g[i] * step(v[i])`); any other overlap — `a[i+1] = a[i]` —
//! makes the nest run at width 1, where "strip" and "element" coincide.
//! The compiler's `vectorize` flag picks the width (off ⇒ 1), so both
//! widths go through this one code path.

use std::fmt;

use latte_ir::{AssignOp, BinOp, UnaryOp};
use latte_tensor::mac;

use crate::exec::RawBuf;
use crate::lower::{BufBinding, CRef};

/// Lanes per strip: the width of a register column.
pub(crate) const STRIP: usize = 64;

/// `f32` lanes in one vector register (AVX): a lane loop shorter than
/// this leaves the vector unit partly idle, so [`Builder::finish`] looks
/// for a longer one.
const VECTOR: usize = 8;

/// A register: the index of the instruction that defines it.
pub(crate) type Reg = usize;

/// One instruction; instruction `i` defines register `i`.
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    Const(f32),
    /// The element read on lane 0 of row 0: the program's own loop slots
    /// are taken out of the index and kept as the step's [`Strides`].
    Load {
        src: CRef,
    },
    Un(UnaryOp, Reg),
    Bin(BinOp, Reg, Reg),
}

impl Inst {
    /// Whether two instructions compute the same value (constants by bit
    /// pattern, so `0.0` and `-0.0` stay apart).
    fn same(&self, other: &Inst) -> bool {
        match (self, other) {
            (Inst::Const(a), Inst::Const(b)) => a.to_bits() == b.to_bits(),
            (Inst::Load { src: a }, Inst::Load { src: b }) => a.buf == b.buf && a.idx == b.idx,
            (Inst::Un(o, a), Inst::Un(p, b)) => o == p && a == b,
            (Inst::Bin(o, a, b), Inst::Bin(p, c, d)) => o == p && a == c && b == d,
            _ => false,
        }
    }
}

/// When, and where to, an instruction is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sched {
    /// The same value on every lane of every row, and out of the store's
    /// reach: one scalar, evaluated once per call.
    Once,
    /// The same value on every lane of a row: one scalar per row.
    Row,
    /// A unit-stride load the store cannot touch: the register is the
    /// buffer.
    Borrow,
    /// Evaluated into its column, every strip.
    Strip,
    /// The root of a unit-stride store, or of any product accumulation
    /// (`dest += x * y`): evaluated straight into the destination, never
    /// into a column.
    Fused,
}

/// Emits instructions in SSA order, reusing the register of an identical
/// earlier instruction (so `v * v` loads `v` once).
#[derive(Debug, Default)]
pub(crate) struct Builder {
    insts: Vec<Inst>,
}

impl Builder {
    pub fn constant(&mut self, c: f32) -> Reg {
        self.push(Inst::Const(c))
    }

    pub fn load(&mut self, src: CRef) -> Reg {
        self.push(Inst::Load { src })
    }

    pub fn un(&mut self, op: UnaryOp, a: Reg) -> Reg {
        self.push(Inst::Un(op, a))
    }

    pub fn bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        self.push(Inst::Bin(op, a, b))
    }

    fn push(&mut self, inst: Inst) -> Reg {
        if let Some(r) = self.insts.iter().position(|i| i.same(&inst)) {
            return r;
        }
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// Closes the program with its store, `dest op= <last register>`,
    /// inside the perfect loop nest `nest` — `(slot, extent)` pairs,
    /// outermost first; empty for a bare assignment — and decides the
    /// lane loop, the strip width and each instruction's schedule. Two
    /// adjacent loops that every reference walks contiguously are one
    /// loop; the innermost loop becomes the lanes, the loops around it
    /// the rows, in the nest's order.
    ///
    /// When vectorising is on and that innermost loop is too short to
    /// fill one vector ([`VECTOR`] lanes), the longest loop that is longer
    /// and that the store may be reordered over moves innermost and
    /// becomes the lanes instead (a 2×2 max-pool's window of 4 becomes
    /// four rows, its thousands of outputs the lanes). A loop qualifies
    /// when
    ///
    /// 1. the destination walks it (a non-zero stride),
    /// 2. the destination is injective over all the loops it walks — no
    ///    two iterations that differ in a walked loop store to one
    ///    element, and
    /// 3. no load shares the destination's storage.
    ///
    /// The results stay bit-identical. By (3) the program writes nothing
    /// it reads, so every load sees the same value in any order, and each
    /// instruction computes the same value per iteration. By (2) the
    /// iterations that update one destination element are exactly those
    /// that agree on every walked loop, the moved one included: they
    /// differ only in the loops of stride 0, which keep their relative
    /// order, so each element receives the same `op=` updates in the
    /// same sequence — `=`, `+=` and `max=` alike, at either strip width.
    /// By (1) and (2) the lanes of one strip write distinct elements.
    ///
    /// `bufs` is the owning group's buffer table: two references can
    /// overlap exactly when their bindings share a storage.
    pub fn finish(
        mut self,
        mut dest: CRef,
        op: AssignOp,
        nest: &[(usize, usize)],
        vectorize: bool,
        bufs: &[BufBinding],
    ) -> ElemProgram {
        assert!(!self.insts.is_empty(), "an element program stores a value");
        let root = self.insts.len() - 1;
        // Take the nest's slots out of every index: one stride per loop,
        // outermost first. The store's strides go last.
        let split = |idx: &mut crate::lower::CIdx| -> Vec<i64> {
            nest.iter().map(|&(slot, _)| idx.take_coef(slot)).collect()
        };
        let mut strides: Vec<Vec<i64>> = self
            .insts
            .iter_mut()
            .map(|inst| match inst {
                Inst::Load { src } => split(&mut src.idx),
                _ => Vec::new(),
            })
            .collect();
        strides.push(split(&mut dest.idx));
        let mut loops: Vec<LoopDim> = nest
            .iter()
            .map(|&(slot, extent)| LoopDim {
                slots: vec![slot],
                extent,
            })
            .collect();
        // Loop `d` merges into the loop inside it when one step of `d`
        // is, for every reference, a full trip of the inner loop.
        for d in (0..loops.len().saturating_sub(1)).rev() {
            let inner = loops[d + 1].extent as i64;
            if strides
                .iter()
                .all(|s| s.is_empty() || s[d] == s[d + 1] * inner)
            {
                let outer = loops.remove(d);
                loops[d].extent *= outer.extent;
                loops[d].slots.splice(0..0, outer.slots);
                strides.iter_mut().filter(|s| !s.is_empty()).for_each(|s| {
                    s.remove(d);
                });
            }
        }
        let dbind = &bufs[dest.buf];
        let writes_what_it_reads = self.insts.iter().any(
            |inst| matches!(inst, Inst::Load { src } if bufs[src.buf].storage == dbind.storage),
        );
        if vectorize && !writes_what_it_reads {
            if let Some(d) = lane_loop(&loops, &strides[root + 1]) {
                loops[d..].rotate_left(1);
                strides
                    .iter_mut()
                    .filter(|s| !s.is_empty())
                    .for_each(|s| s[d..].rotate_left(1));
            }
        }
        let lanes = loops.pop();
        let rows = loops;
        // Split each reference's strides into (lane, rows).
        let mut strides = strides.into_iter().map(|mut s| {
            let lane = if lanes.is_some() {
                s.pop().unwrap_or(0)
            } else {
                0
            };
            Strides { lane, rows: s }
        });
        let by: Vec<Strides> = strides.by_ref().take(root + 1).collect();
        let dby = strides.next().expect("the store's strides go last");

        let mut width = if vectorize { STRIP } else { 1 };
        let mut sched: Vec<Sched> = Vec::with_capacity(root + 1);
        for (i, inst) in self.insts.iter().enumerate() {
            let s = match inst {
                Inst::Const(_) => Sched::Once,
                Inst::Load { src } => {
                    let b = &bufs[src.buf];
                    if b.storage == dbind.storage {
                        // The one overlap a strip tolerates: lane `l`
                        // reads the element lane `l` is about to write.
                        let in_place = b.batched == dbind.batched
                            && b.per_item == dbind.per_item
                            && src.idx == dest.idx
                            && by[i] == dby
                            && dby.lane != 0;
                        if !in_place {
                            width = 1;
                        }
                        Sched::Strip
                    } else {
                        match by[i].lane {
                            0 if by[i].rows.iter().all(|&s| s == 0) => Sched::Once,
                            0 => Sched::Row,
                            1 => Sched::Borrow,
                            _ => Sched::Strip,
                        }
                    }
                }
                Inst::Un(_, a) => invariance(&[sched[*a]]),
                Inst::Bin(_, a, b) => invariance(&[sched[*a], sched[*b]]),
            };
            sched.push(s);
        }
        let product = op == AssignOp::Add && matches!(self.insts[root], Inst::Bin(BinOp::Mul, ..));
        if product
            || dby.lane == 1
                && sched[root] == Sched::Strip
                && matches!(self.insts[root], Inst::Un(..) | Inst::Bin(..))
        {
            sched[root] = Sched::Fused;
        }
        // What advancing row loop `d` by one — every loop inside it
        // wrapping back to 0 — adds to an address with these strides.
        let bump = |by: &Strides, d: usize| -> i64 {
            let wrapped: i64 = (d + 1..rows.len())
                .map(|j| by.rows[j] * (rows[j].extent as i64 - 1))
                .sum();
            by.rows[d] - wrapped
        };
        let loads: Vec<Reg> = (0..=root)
            .filter(|&i| matches!(self.insts[i], Inst::Load { .. }))
            .collect();
        let bumps = (0..rows.len())
            .map(|d| {
                loads
                    .iter()
                    .map(|&r| (r, bump(&by[r], d)))
                    .chain([(root + 1, bump(&dby, d))])
                    .filter(|&(_, by)| by != 0)
                    .collect()
            })
            .collect();
        let having =
            |wanted: Sched| -> Vec<Reg> { (0..=root).filter(|&i| sched[i] == wanted).collect() };
        let fma = matches!(
            (op, &self.insts[root]),
            (AssignOp::Add, Inst::Bin(BinOp::Mul, ..))
        ) && latte_tensor::detect_fma();
        ElemProgram {
            width,
            fma,
            once: having(Sched::Once),
            per_row: having(Sched::Row),
            per_strip: having(Sched::Strip),
            loads,
            steps: self
                .insts
                .into_iter()
                .zip(sched.iter().copied())
                .zip(by)
                .map(|((inst, sched), by)| Step { inst, sched, by })
                .collect(),
            rows,
            bumps,
            lanes,
            dest,
            dby,
            op,
        }
    }
}

/// The loop a destination with strides `dest` (one per loop of `loops`)
/// should run as the lanes in place of the innermost one, if the
/// innermost is shorter than [`VECTOR`]: the longest loop longer than it
/// that the destination walks, ties going to the inner one, provided
/// the destination is injective. Conditions (1) and (2) of
/// [`Builder::finish`]; the caller checks (3).
fn lane_loop(loops: &[LoopDim], dest: &[i64]) -> Option<usize> {
    let inner = loops.last()?.extent;
    if inner >= VECTOR || !injective(loops, dest) {
        return None;
    }
    (0..loops.len())
        .filter(|&d| dest[d] != 0 && loops[d].extent > inner)
        .max_by_key(|&d| loops[d].extent)
}

/// Whether `Σ strides[d] · i_d` is a different address for every
/// combination of the walked loops' counters. Sorted by stride, each
/// walked loop must step over everything the finer ones reach together
/// (a mixed-radix number): then the coarsest loop in which two
/// combinations differ decides their order.
fn injective(loops: &[LoopDim], strides: &[i64]) -> bool {
    let mut walked: Vec<(i64, i64)> = loops
        .iter()
        .zip(strides)
        .filter(|&(_, &s)| s != 0)
        .map(|(l, &s)| (s.abs(), l.extent.saturating_sub(1) as i64))
        .collect();
    walked.sort_unstable();
    let mut reach = 0;
    walked.iter().all(|&(stride, last)| {
        let steps_over = stride > reach;
        reach += stride * last;
        steps_over
    })
}

/// An operation varies no faster than its fastest-varying operand.
fn invariance(operands: &[Sched]) -> Sched {
    if operands.iter().all(|&s| s == Sched::Once) {
        Sched::Once
    } else if operands
        .iter()
        .all(|&s| matches!(s, Sched::Once | Sched::Row))
    {
        Sched::Row
    } else {
        Sched::Strip
    }
}

/// How far, in elements, one step of each of the program's loops moves
/// a reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Strides {
    lane: i64,
    /// One per row loop, outermost first.
    rows: Vec<i64>,
}

/// An instruction, its schedule and — for a load — its strides.
#[derive(Debug, Clone)]
struct Step {
    inst: Inst,
    sched: Sched,
    by: Strides,
}

/// One loop of the program: a loop of the nest, or several adjacent ones
/// merged (`slots` outermost first).
#[derive(Debug, Clone)]
struct LoopDim {
    slots: Vec<usize>,
    extent: usize,
}

impl LoopDim {
    fn name(&self) -> String {
        let slots: Vec<String> = self.slots.iter().map(|s| format!("s{s}")).collect();
        match slots.len() {
            1 => slots.concat(),
            _ => format!("({})", slots.join(":")),
        }
    }
}

/// One lowered perfect nest `for .. { for i in 0..n { dest op= expr } }`
/// (or a bare assignment).
#[derive(Debug, Clone)]
pub(crate) struct ElemProgram {
    /// The loops around the lanes, outermost first.
    rows: Vec<LoopDim>,
    /// Per row loop, per load register and for the store (register
    /// `steps.len()`): what to add to its address when that loop advances
    /// by one and every loop inside it wraps around. Zeros are left out.
    bumps: Vec<Vec<(Reg, i64)>>,
    /// The innermost loop; `None` for a bare assignment, which is one
    /// lane.
    lanes: Option<LoopDim>,
    /// Lanes per strip: [`STRIP`], or 1 when the compiler's `vectorize`
    /// flag is off or a store could feed a later lane's load.
    width: usize,
    steps: Vec<Step>,
    /// Registers by schedule, each in program order.
    once: Vec<Reg>,
    per_row: Vec<Reg>,
    per_strip: Vec<Reg>,
    /// The load registers: the addresses a call binds and a row bumps.
    loads: Vec<Reg>,
    /// The store: lane 0 of row 0, and its strides.
    dest: CRef,
    dby: Strides,
    op: AssignOp,
    /// A product accumulation on a host with AVX2 and FMA: its store
    /// runs compiled for them ([`mac_store`]).
    fma: bool,
}

#[cfg(test)]
impl ElemProgram {
    pub fn width(&self) -> usize {
        self.width
    }
}

impl fmt::Display for ElemProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let loops: Vec<String> = self
            .rows
            .iter()
            .chain(&self.lanes)
            .map(|l| format!("{} in 0..{}", l.name(), l.extent))
            .collect();
        match loops.is_empty() {
            true => writeln!(f, "elem once")?,
            false => writeln!(f, "elem {} width {}", loops.join(", "), self.width)?,
        }
        // An index with the program's own loops put back in.
        let full = |r: &CRef, by: &Strides| {
            let strides = by.rows.iter().chain(self.lanes.as_ref().map(|_| &by.lane));
            let mut terms: Vec<String> = self
                .rows
                .iter()
                .chain(&self.lanes)
                .zip(strides)
                .filter(|(_, &stride)| stride != 0)
                .map(|(l, &stride)| match stride {
                    1 => l.name(),
                    _ => format!("{stride}*{}", l.name()),
                })
                .collect();
            let outside = r.idx.to_string();
            if outside != "0" || terms.is_empty() {
                terms.insert(0, outside);
            }
            format!("b{}[{}]", r.buf, terms.join(" + "))
        };
        for (i, Step { inst, sched, by }) in self.steps.iter().enumerate() {
            let text = match inst {
                Inst::Const(c) => format!("const {c}"),
                Inst::Load { src } => format!("load {}", full(src, by)),
                Inst::Un(op, a) => format!("{} r{a}", op.name()),
                Inst::Bin(op, a, b) => format!("{} r{a}, r{b}", bin_name(*op)),
            };
            let sched = match sched {
                Sched::Once => "once",
                Sched::Row => "per row",
                Sched::Borrow => "borrow",
                Sched::Strip => "per strip",
                Sched::Fused => "fused",
            };
            writeln!(f, "  r{i} = {text:<44} {sched}")?;
        }
        let op = match self.op {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Max => "max=",
        };
        let dest = full(&self.dest, &self.dby);
        writeln!(f, "  store {dest} {op} r{}", self.steps.len() - 1)
    }
}

fn bin_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Max => "max",
        BinOp::Min => "min",
        BinOp::EqIndicator => "eq",
    }
}

/// A worker's register file: one column per instruction of the longest
/// program it has run, the address each load register (and, one past the
/// last register, the store) stands at in the current row, and the row
/// loops' counters. Grows, never shrinks.
#[derive(Default)]
pub(crate) struct Columns {
    cols: Vec<[f32; STRIP]>,
    addr: Vec<*mut f32>,
    counters: Vec<usize>,
}

impl ElemProgram {
    /// Whether a reference with these strides stays inside its view on
    /// every lane of every row (what lowering proved; debug builds
    /// re-check it per call).
    fn in_bounds(&self, r: &CRef, by: &Strides, env: &[i64], frame: &[RawBuf]) -> bool {
        let first = r.idx.eval(env);
        let (mut lo, mut hi) = (first, first);
        let strides = by.rows.iter().chain(self.lanes.as_ref().map(|_| &by.lane));
        for (l, stride) in self.rows.iter().chain(&self.lanes).zip(strides) {
            let reach = stride * (l.extent as i64 - 1);
            lo += reach.min(0);
            hi += reach.max(0);
        }
        lo >= 0 && hi < frame[r.buf].len as i64
    }
}

impl CRef {
    /// The address of the element this reference names under `env`.
    ///
    /// # Safety
    ///
    /// `frame[self.buf]` is a live view and the index lands inside it.
    #[inline(always)]
    unsafe fn at(&self, env: &[i64], frame: &[RawBuf]) -> *mut f32 {
        let view = &frame[self.buf];
        let i = self.idx.eval(env);
        debug_assert!(
            i >= 0 && (i as usize) < view.len,
            "element {i} of {}",
            view.len
        );
        view.ptr.offset(i as isize)
    }
}

/// An operand: a value per lane, or one value for every lane.
#[derive(Clone, Copy)]
enum Opd<'a> {
    Lanes(&'a [f32]),
    Scalar(f32),
}

/// One call's view of the register file.
#[derive(Clone, Copy)]
struct Regs<'a> {
    steps: &'a [Step],
    cols: *mut f32,
    addr: *mut *mut f32,
}

impl Regs<'_> {
    /// Register `r`'s own column; a lane-invariant register keeps its
    /// value in lane 0.
    #[inline(always)]
    unsafe fn col(&self, r: Reg) -> *mut f32 {
        self.cols.add(r * STRIP)
    }

    /// Register `r` on lanes `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// `r` has been evaluated for these lanes, or — a borrow — its
    /// address is bound and those lanes are inside the buffer.
    #[inline(always)]
    unsafe fn opd<'b>(&self, r: Reg, start: usize, len: usize) -> Opd<'b> {
        match self.steps[r].sched {
            Sched::Once | Sched::Row => Opd::Scalar(*self.col(r)),
            Sched::Borrow => Opd::Lanes(std::slice::from_raw_parts(
                (*self.addr.add(r)).add(start),
                len,
            )),
            Sched::Strip | Sched::Fused => Opd::Lanes(std::slice::from_raw_parts(self.col(r), len)),
        }
    }

    /// Evaluates the lane-invariant register `r` into lane 0 of its
    /// column.
    ///
    /// # Safety
    ///
    /// As [`run`]; the load addresses are bound and the instruction's
    /// operands (lane-invariant themselves) evaluated.
    #[inline(always)]
    unsafe fn eval_scalar(&self, r: Reg) {
        *self.col(r) = match &self.steps[r].inst {
            Inst::Const(c) => *c,
            Inst::Load { .. } => **self.addr.add(r),
            Inst::Un(op, a) => op.apply(*self.col(*a)),
            Inst::Bin(op, a, b) => op.apply(*self.col(*a), *self.col(*b)),
        };
    }

    /// Evaluates register `r` for lanes `[start, start + len)` into its
    /// column.
    ///
    /// # Safety
    ///
    /// As [`run`]; the load addresses are bound and the instruction's
    /// operands evaluated for these lanes.
    #[inline(always)]
    unsafe fn eval(&self, r: Reg, start: usize, len: usize) {
        // Operands are earlier registers, so no operand is this column.
        let out = std::slice::from_raw_parts_mut(self.col(r), len);
        match &self.steps[r].inst {
            Inst::Const(c) => out.fill(*c),
            Inst::Load { .. } => {
                let lane = self.steps[r].by.lane as isize;
                let base = (*self.addr.add(r)).offset(start as isize * lane);
                match lane {
                    0 => out.fill(*base),
                    1 => out.copy_from_slice(std::slice::from_raw_parts(base, len)),
                    _ => {
                        for (l, o) in out.iter_mut().enumerate() {
                            *o = *base.offset(l as isize * lane);
                        }
                    }
                }
            }
            Inst::Un(op, a) => un(*op, self.opd(*a, start, len), out, AssignOp::Set),
            Inst::Bin(op, a, b) => bin(
                *op,
                self.opd(*a, start, len),
                self.opd(*b, start, len),
                out,
                AssignOp::Set,
            ),
        }
    }
}

/// Runs one element program for the current loop values `env` and batch
/// item `frame`.
///
/// # Safety
///
/// `frame` holds a live view for every buffer index the program names,
/// and every reference of the program stays inside its view for every
/// `env` the enclosing loops produce, every row and every lane —
/// lowering verifies exactly that before it builds a program. No other
/// thread writes the storages the program reads, or touches the ones it
/// writes, while it runs (the executor's per-item disjointness).
pub(crate) unsafe fn run(p: &ElemProgram, env: &[i64], frame: &[RawBuf], sc: &mut Columns) {
    let n = p.lanes.as_ref().map_or(1, |l| l.extent);
    if n == 0 || p.rows.iter().any(|r| r.extent == 0) {
        return;
    }
    debug_assert!(
        p.in_bounds(&p.dest, &p.dby, env, frame),
        "the store leaves its buffer\n{p}"
    );
    debug_assert!(
        p.steps.iter().all(|s| match &s.inst {
            Inst::Load { src } => p.in_bounds(src, &s.by, env, frame),
            _ => true,
        }),
        "a load leaves its buffer\n{p}"
    );
    let k = p.steps.len();
    if sc.cols.len() < k {
        sc.cols.resize(k, [0.0; STRIP]);
        sc.addr.resize(k + 1, std::ptr::null_mut());
    }
    sc.counters.clear();
    sc.counters.resize(p.rows.len(), 0);
    let regs = Regs {
        steps: &p.steps,
        cols: sc.cols.as_mut_ptr().cast::<f32>(),
        addr: sc.addr.as_mut_ptr(),
    };
    for &r in &p.loads {
        if let Inst::Load { src } = &p.steps[r].inst {
            *regs.addr.add(r) = src.at(env, frame);
        }
    }
    let root = k - 1;
    *regs.addr.add(k) = p.dest.at(env, frame);
    for &r in &p.once {
        regs.eval_scalar(r);
    }
    // With nothing to stage in columns a row needs no cutting up.
    let strip = if p.per_strip.is_empty() && p.width > 1 {
        n
    } else {
        p.width
    };
    loop {
        for &r in &p.per_row {
            regs.eval_scalar(r);
        }
        let dest = *regs.addr.add(k);
        let mut start = 0;
        while start < n {
            let len = (n - start).min(strip);
            for &r in &p.per_strip {
                regs.eval(r, start, len);
            }
            if let (AssignOp::Add, Inst::Bin(BinOp::Mul, a, b)) = (p.op, &p.steps[root].inst) {
                // A product accumulation, `fused` whatever its stride.
                let (x, y) = (regs.opd(*a, start, len), regs.opd(*b, start, len));
                let lane = p.dby.lane as isize;
                mac_store(p.fma, dest.offset(start as isize * lane), lane, x, y, len);
            } else if p.dby.lane == 1 {
                // SAFETY (of the `&mut`): every operand is a column or a
                // borrow of another storage, so nothing else views `out`.
                let out = std::slice::from_raw_parts_mut(dest.add(start), len);
                match (p.steps[root].sched, &p.steps[root].inst) {
                    (Sched::Fused, Inst::Un(op, a)) => un(*op, regs.opd(*a, start, len), out, p.op),
                    (Sched::Fused, Inst::Bin(op, a, b)) => bin(
                        *op,
                        regs.opd(*a, start, len),
                        regs.opd(*b, start, len),
                        out,
                        p.op,
                    ),
                    _ => emit(regs.opd(root, start, len), |x| x, out, p.op),
                }
            } else if p.dby.lane == 0 {
                // A reduction: fold the lanes in order, the sequential
                // loop's association.
                *dest = match regs.opd(root, start, len) {
                    Opd::Lanes(v) => fold(*dest, v.iter().copied(), p.op),
                    Opd::Scalar(s) => fold(*dest, std::iter::repeat_n(s, len), p.op),
                };
            } else {
                // SAFETY (of the `&mut`s): a non-zero lane stride gives
                // every lane its own element, and every operand is a
                // column or a borrow of another storage.
                let lane = p.dby.lane as isize;
                let base = dest.offset(start as isize * lane);
                let out = (0..len as isize).map(|l| &mut *base.offset(l * lane));
                match regs.opd(root, start, len) {
                    Opd::Lanes(v) => store(out.zip(v.iter().copied()), p.op),
                    Opd::Scalar(s) => store(out.zip(std::iter::repeat(s)), p.op),
                }
            }
            start += len;
        }
        // Next row: advance the innermost row loop that has iterations
        // left, wrapping the ones inside it.
        let mut d = p.rows.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            sc.counters[d] += 1;
            if sc.counters[d] < p.rows[d].extent {
                break;
            }
            sc.counters[d] = 0;
        }
        for &(r, by) in &p.bumps[d] {
            let a = regs.addr.add(r);
            *a = (*a).offset(by as isize);
        }
    }
}

/// `out[l] op= f(a[l])`, with both matches outside the lane loop.
#[inline(always)]
fn un(op: UnaryOp, a: Opd<'_>, out: &mut [f32], assign: AssignOp) {
    macro_rules! go {
        ($($v:ident),*) => {
            match op {
                $(UnaryOp::$v => emit(a, |x| UnaryOp::$v.apply(x), out, assign),)*
            }
        };
    }
    go!(Neg, Exp, Ln, Tanh, Sigmoid, Sqrt, Abs, Step)
}

/// `out[l] op= f(a[l], b[l])`, with every match outside the lane loop.
/// A lane-invariant operand is folded into the function, not splatted.
#[inline(always)]
fn bin(op: BinOp, a: Opd<'_>, b: Opd<'_>, out: &mut [f32], assign: AssignOp) {
    macro_rules! go {
        ($($v:ident),*) => {
            match op {
                $(BinOp::$v => {
                    let f = |x, y| BinOp::$v.apply(x, y);
                    match (a, b) {
                        (Opd::Lanes(a), Opd::Lanes(b)) => {
                            let vals = a.iter().zip(b).map(|(&x, &y)| f(x, y));
                            store(out.iter_mut().zip(vals), assign)
                        }
                        (a, Opd::Scalar(s)) => emit(a, |x| f(x, s), out, assign),
                        (Opd::Scalar(s), b) => emit(b, |y| f(s, y), out, assign),
                    }
                })*
            }
        };
    }
    go!(Add, Sub, Mul, Div, Max, Min, EqIndicator)
}

/// `out[l] op= f(a[l])`.
#[inline(always)]
fn emit(a: Opd<'_>, f: impl Fn(f32) -> f32, out: &mut [f32], assign: AssignOp) {
    match a {
        Opd::Lanes(a) => store(out.iter_mut().zip(a.iter().map(|&x| f(x))), assign),
        Opd::Scalar(s) => store(out.iter_mut().zip(std::iter::repeat(f(s))), assign),
    }
}

/// `*o op= v` for each pair, the match on `op` outside the loop.
#[inline(always)]
fn store<'a>(pairs: impl Iterator<Item = (&'a mut f32, f32)>, assign: AssignOp) {
    match assign {
        AssignOp::Set => pairs.for_each(|(o, v)| *o = v),
        AssignOp::Add => pairs.for_each(|(o, v)| *o += v),
        AssignOp::Max => pairs.for_each(|(o, v)| *o = o.max(v)),
    }
}

/// `dest += x * y` on `len` lanes whose destinations lie `lane` elements
/// apart (0: all at `dest`, a dot product folded in lane order), by the
/// IR's rule ([`AssignOp::apply_bin`]): the product is never rounded on
/// its own. With `fma` ([`latte_tensor::detect_fma`], asked once when
/// the program is built) it runs a copy compiled for AVX2 and FMA, so
/// each [`mac`] is one `vfmadd` rather than a call to libm's `fmaf` (some
/// 30x slower); the bits are the same either way.
///
/// # Safety
///
/// The destinations are inside their buffer, and no operand views them
/// (every operand is a column or a borrow of another storage); `fma`
/// only if the host has both features.
#[inline(always)]
unsafe fn mac_store(fma: bool, dest: *mut f32, lane: isize, x: Opd<'_>, y: Opd<'_>, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn fused(dest: *mut f32, lane: isize, x: Opd<'_>, y: Opd<'_>, len: usize) {
            mac_lanes(dest, lane, x, y, len)
        }
        if fma {
            // SAFETY: the caller's.
            return fused(dest, lane, x, y, len);
        }
    }
    mac_lanes(dest, lane, x, y, len)
}

/// [`mac_store`] for whichever features the caller is compiled with.
#[inline(always)]
unsafe fn mac_lanes(dest: *mut f32, lane: isize, x: Opd<'_>, y: Opd<'_>, len: usize) {
    match lane {
        1 => mac_into(x, y, std::slice::from_raw_parts_mut(dest, len).iter_mut()),
        // Each `&mut` ends before the next is made, so with `lane == 0`
        // the lanes fold into `*dest` one after another.
        _ => mac_into(x, y, (0..len as isize).map(|l| &mut *dest.offset(l * lane))),
    }
}

/// `*o = mac(*o, x[l], y[l])` for each lane's destination `o`, in lane
/// order: `dest += x * y` by the IR's rule ([`AssignOp::apply_bin`]),
/// the product never rounded on its own.
#[inline(always)]
fn mac_into<'a>(x: Opd<'_>, y: Opd<'_>, out: impl Iterator<Item = &'a mut f32>) {
    match (x, y) {
        (Opd::Lanes(x), Opd::Lanes(y)) => {
            out.zip(x.iter().zip(y)).for_each(|(o, (&x, &y))| *o = mac(*o, x, y))
        }
        (Opd::Lanes(x), Opd::Scalar(y)) => out.zip(x).for_each(|(o, &x)| *o = mac(*o, x, y)),
        (Opd::Scalar(x), Opd::Lanes(y)) => out.zip(y).for_each(|(o, &y)| *o = mac(*o, x, y)),
        (Opd::Scalar(x), Opd::Scalar(y)) => out.for_each(|o| *o = mac(*o, x, y)),
    }
}

/// `acc op= v0; acc op= v1; …` — a reduction in lane order.
#[inline(always)]
fn fold(mut acc: f32, v: impl Iterator<Item = f32>, assign: AssignOp) -> f32 {
    match assign {
        AssignOp::Set => acc = v.last().unwrap_or(acc),
        AssignOp::Add => v.for_each(|x| acc += x),
        AssignOp::Max => v.for_each(|x| acc = acc.max(x)),
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::CIdx;
    use proptest::prelude::*;
    use std::hint::black_box;

    /// The interpreter the strip program replaced — a boxed tree walked
    /// once per element, calling `op.apply` — kept as the oracle.
    #[derive(Debug, Clone)]
    enum Tree {
        Const(f32),
        Load(usize),
        Un(UnaryOp, Box<Tree>),
        Bin(BinOp, Box<Tree>, Box<Tree>),
    }

    impl Tree {
        fn un(op: UnaryOp, x: Tree) -> Tree {
            Tree::Un(op, Box::new(x))
        }

        fn bin(op: BinOp, a: Tree, b: Tree) -> Tree {
            Tree::Bin(op, Box::new(a), Box::new(b))
        }

        fn eval(&self, load: &dyn Fn(usize) -> f32) -> f32 {
            match self {
                Tree::Const(c) => *c,
                Tree::Load(k) => load(*k),
                Tree::Un(op, x) => op.apply(x.eval(load)),
                Tree::Bin(op, a, b) => op.apply(a.eval(load), b.eval(load)),
            }
        }

        /// The first load the tree reads, left to right.
        fn first_load(&self) -> Option<usize> {
            match self {
                Tree::Const(_) => None,
                Tree::Load(k) => Some(*k),
                Tree::Un(_, x) => x.first_load(),
                Tree::Bin(_, a, b) => a.first_load().or_else(|| b.first_load()),
            }
        }

        fn emit(&self, refs: &[Ref], b: &mut Builder) -> Reg {
            match self {
                Tree::Const(c) => b.constant(*c),
                Tree::Load(k) => b.load(refs[*k].cref()),
                Tree::Un(op, x) => {
                    let x = x.emit(refs, b);
                    b.un(*op, x)
                }
                Tree::Bin(op, x, y) => {
                    let (x, y) = (x.emit(refs, b), y.emit(refs, b));
                    b.bin(*op, x, y)
                }
            }
        }
    }

    /// `buf[base + Σ strides[d] * i_d]`, `i_d` being loop slot `d`.
    #[derive(Debug, Clone, PartialEq)]
    struct Ref {
        buf: usize,
        base: i64,
        strides: Vec<i64>,
    }

    impl Ref {
        /// A unit-stride walk of `buf` by the only loop.
        fn unit(buf: usize) -> Ref {
            Ref {
                buf,
                base: 0,
                strides: vec![1],
            }
        }

        fn cref(&self) -> CRef {
            let terms = self.strides.iter().copied().enumerate();
            CRef {
                buf: self.buf,
                idx: CIdx {
                    base: self.base,
                    terms: terms.filter(|t| t.1 != 0).collect(),
                },
            }
        }

        fn at(&self, i: &[usize]) -> usize {
            let off: i64 = self.strides.iter().zip(i).map(|(s, &i)| s * i as i64).sum();
            (self.base + off) as usize
        }
    }

    /// `for i0 in 0..extents[0] { for i1 .. { dest op= tree } }` over
    /// plain vectors.
    #[derive(Debug, Clone)]
    struct Loop {
        tree: Tree,
        loads: Vec<Ref>,
        dest: Ref,
        op: AssignOp,
        extents: Vec<usize>,
    }

    impl Loop {
        /// The sequential nest, element by element, each store as the
        /// interpreter makes it ([`AssignOp::apply_bin`] at a binary root).
        fn reference(&self, bufs: &mut [Vec<f32>]) {
            let total: usize = self.extents.iter().product();
            let mut i = vec![0usize; self.extents.len()];
            for _ in 0..total {
                let load = |k: usize| bufs[self.loads[k].buf][self.loads[k].at(&i)];
                let (buf, at) = (self.dest.buf, self.dest.at(&i));
                let d = bufs[buf][at];
                bufs[buf][at] = match &self.tree {
                    Tree::Bin(op, x, y) => self.op.apply_bin(d, *op, x.eval(&load), y.eval(&load)),
                    tree => self.op.apply(d, tree.eval(&load)),
                };
                for d in (0..i.len()).rev() {
                    i[d] += 1;
                    if i[d] < self.extents[d] {
                        break;
                    }
                    i[d] = 0;
                }
            }
        }

        /// Each buffer is its own storage.
        fn program(&self, vectorize: bool, n_bufs: usize) -> ElemProgram {
            let table: Vec<BufBinding> = (0..n_bufs)
                .map(|storage| BufBinding {
                    storage,
                    per_item: 0,
                    batched: false,
                    param_grad: false,
                })
                .collect();
            let mut b = Builder::default();
            self.tree.emit(&self.loads, &mut b);
            let nest: Vec<_> = self.extents.iter().copied().enumerate().collect();
            b.finish(self.dest.cref(), self.op, &nest, vectorize, &table)
        }
    }

    fn views(bufs: &mut [Vec<f32>]) -> Vec<RawBuf> {
        bufs.iter_mut()
            .map(|b| RawBuf {
                ptr: b.as_mut_ptr(),
                len: b.len(),
            })
            .collect()
    }

    fn execute(p: &ElemProgram, bufs: &mut [Vec<f32>], sc: &mut Columns) {
        // SAFETY: the callers size every buffer for every lane and row of
        // every reference (debug builds assert it in `run`).
        unsafe { run(p, &[0; 3], &views(bufs), sc) };
    }

    const UNARY: [UnaryOp; 8] = [
        UnaryOp::Neg,
        UnaryOp::Exp,
        UnaryOp::Ln,
        UnaryOp::Tanh,
        UnaryOp::Sigmoid,
        UnaryOp::Sqrt,
        UnaryOp::Abs,
        UnaryOp::Step,
    ];
    const BINARY: [BinOp; 7] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Max,
        BinOp::Min,
        BinOp::EqIndicator,
    ];
    const ASSIGN: [AssignOp; 3] = [AssignOp::Set, AssignOp::Add, AssignOp::Max];
    /// Lane extents; the first four are shorter than one vector.
    const EXTENTS: [usize; 8] = [1, 2, 4, 7, 63, 64, 65, 200];
    const LOADS: usize = 6;
    /// Longest buffer any reference needs: base < 4, lane stride <= 2
    /// over 200 lanes, 3 such rows back to back and one row further on
    /// (64 rows come only with lanes shorter than 8).
    const LEN: usize = 4 + 2 * 200 * 4;

    /// A random tree over `LOADS` loads, drawing from `codes`.
    fn tree(codes: &mut impl Iterator<Item = u32>, depth: usize) -> Tree {
        let c = codes.next().unwrap_or(0);
        let pick = (c / 4) as usize;
        match (c % 4, depth) {
            (0, _) => Tree::Const([0.0, -0.0, 1.0, 0.5, -2.0, f32::NEG_INFINITY][pick % 6]),
            (1, _) | (_, 0) => Tree::Load(pick % LOADS),
            (2, d) => Tree::un(UNARY[pick % 8], tree(codes, d - 1)),
            (_, d) => Tree::bin(BINARY[pick % 7], tree(codes, d - 1), tree(codes, d - 1)),
        }
    }

    /// Buffer contents with repeats (so `eq` fires), zeros of both signs
    /// and a few non-finite values.
    fn contents(seed: u32, buf: usize) -> Vec<f32> {
        (0..LEN)
            .map(|i| {
                let h =
                    (i as u32 ^ seed.rotate_left(buf as u32 * 7)).wrapping_mul(2654435761) >> 20;
                match h % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NAN,
                    k => (k as f32 - 12.0) / 4.0,
                }
            })
            .collect()
    }

    /// `to_bits` equality, up to the two things `f32` itself leaves to
    /// the compiler's operand order: which NaN payload an add of two NaNs
    /// keeps, and which zero `f32::max`/`min` return for `0.0` against
    /// `-0.0`.
    fn assert_same_bits(got: &[Vec<f32>], want: &[Vec<f32>], what: &str) {
        for (b, (g, w)) in got.iter().zip(want).enumerate() {
            for (i, (x, y)) in g.iter().zip(w).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits()
                        || (x.is_nan() && y.is_nan())
                        || (*x == 0.0 && *y == 0.0),
                    "{what}: buffer {b} element {i}: {x} ({:#x}) vs {y} ({:#x})",
                    x.to_bits(),
                    y.to_bits()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any element nest — every op, lane and row strides 0/1/2,
        /// reductions, in-place and shifted self-aliases, one strip or
        /// several, one row or several, short lanes under many rows (which
        /// lowering may turn around) — leaves every buffer bit-identical to
        /// the sequential loops, at both widths.
        #[test]
        fn strip_programs_match_the_sequential_loop(
            codes in proptest::collection::vec(0u32..1000, 40),
            shapes in proptest::collection::vec((1usize..4, 0i64..4, 0i64..3, 0i64..4), LOADS),
            dest in (0i64..4, 0i64..3, 0i64..4),
            alias in 0usize..6,
            op in 0usize..3,
            extent in 0usize..8,
            rows in 0usize..3,
            seed in 0u32..1_000_000,
        ) {
            // One loop, or 3 rows around it, or 64 rows around a loop
            // shorter than one vector (row stride 0, 1, 2, or 3 = rows
            // back to back, which lets the two loops merge).
            // Buffer 0 is the destination; loads read buffers 1..=3,
            // except the tree's first, which `alias` may point at the
            // destination: 1 = the very element being written, 2 = the
            // one after it, 3 = the one a row (or a lane, in one loop)
            // further on.
            let n = match rows {
                2 => EXTENTS[extent % 4],
                _ => EXTENTS[extent],
            };
            let strides = |row: i64, lane: i64| match (rows, row) {
                (0, _) => vec![lane],
                (_, 3) => vec![lane * n as i64, lane],
                (_, row) => vec![row, lane],
            };
            let dest = Ref { buf: 0, base: dest.0, strides: strides(dest.2, dest.1) };
            let mut loads: Vec<Ref> = shapes
                .iter()
                .map(|&(buf, base, lane, row)| Ref { buf, base, strides: strides(row, lane) })
                .collect();
            let tree = tree(&mut codes.into_iter(), 4);
            let first = tree.first_load().unwrap_or(0);
            match alias {
                1 => loads[first] = dest.clone(),
                2 => loads[first] = Ref { base: (dest.base + 1) % 4, ..dest.clone() },
                3 => loads[first] = Ref { base: dest.base + dest.strides[0], ..dest.clone() },
                _ => {}
            }
            let lp = Loop {
                tree,
                loads,
                dest,
                op: ASSIGN[op],
                extents: match rows {
                    0 => vec![n],
                    1 => vec![3, n],
                    _ => vec![64, n],
                },
            };
            let start: Vec<Vec<f32>> = (0..4).map(|b| contents(seed, b)).collect();
            let mut want = start.clone();
            lp.reference(&mut want);
            let mut sc = Columns::default();
            for vectorize in [true, false] {
                let p = lp.program(vectorize, 4);
                prop_assert!(p.width() == 1 || vectorize);
                let mut got = start.clone();
                execute(&p, &mut got, &mut sc);
                assert_same_bits(&got, &want, &format!("vectorize={vectorize}\n{p}"));
            }
        }
    }

    /// The negative control: `a[i+1] = a[i]` smears `a[0]` over the
    /// buffer when run in order, and would merely shift it if a strip
    /// loaded 64 lanes before storing any.
    #[test]
    fn a_shifted_self_alias_runs_at_width_one() {
        let lp = Loop {
            tree: Tree::Load(0),
            loads: vec![Ref::unit(0)],
            dest: Ref {
                base: 1,
                ..Ref::unit(0)
            },
            op: AssignOp::Set,
            extents: vec![100],
        };
        let p = lp.program(true, 1);
        assert_eq!(p.width(), 1, "{p}");
        let mut bufs = vec![(0..101).map(|i| i as f32).collect::<Vec<_>>()];
        execute(&p, &mut bufs, &mut Columns::default());
        assert!(bufs[0].iter().all(|&v| v == 0.0), "{:?}", &bufs[0][..8]);

        // The same loop writing in place is a legal strip.
        let in_place = Loop {
            dest: Ref::unit(0),
            ..lp
        };
        assert_eq!(in_place.program(true, 1).width(), STRIP);
    }

    /// Two names for one storage overlap just like one name does.
    #[test]
    fn overlap_is_judged_by_storage_not_by_name() {
        let table = |storages: [usize; 2]| -> Vec<BufBinding> {
            storages
                .iter()
                .map(|&storage| BufBinding {
                    storage,
                    per_item: 8,
                    batched: true,
                    param_grad: false,
                })
                .collect()
        };
        let build = |bufs: &[BufBinding]| {
            let mut b = Builder::default();
            b.load(
                Ref {
                    base: 1,
                    ..Ref::unit(1)
                }
                .cref(),
            );
            b.finish(Ref::unit(0).cref(), AssignOp::Set, &[(0, 7)], true, bufs)
        };
        assert_eq!(build(&table([0, 1])).width(), STRIP);
        assert_eq!(build(&table([5, 5])).width(), 1);
    }

    /// tanh's derivative, `g * (1 - v*v)`, over `n` lanes.
    fn dtanh(n: usize) -> Loop {
        let v = || Tree::Load(1);
        let one_minus_vv = Tree::bin(
            BinOp::Sub,
            Tree::Const(1.0),
            Tree::bin(BinOp::Mul, v(), v()),
        );
        Loop {
            tree: Tree::bin(BinOp::Mul, Tree::Load(0), one_minus_vv),
            loads: vec![Ref::unit(1), Ref::unit(2)],
            dest: Ref::unit(0),
            op: AssignOp::Set,
            extents: vec![n],
        }
    }

    #[test]
    fn contiguous_rows_merge_into_one_loop() {
        // relu in place over 4 rows of 16 back to back: one loop of 64.
        let rows = Ref {
            buf: 0,
            base: 0,
            strides: vec![16, 1],
        };
        let lp = Loop {
            tree: Tree::bin(BinOp::Max, Tree::Load(0), Tree::Const(0.0)),
            loads: vec![rows.clone()],
            dest: rows,
            op: AssignOp::Set,
            extents: vec![4, 16],
        };
        let text = lp.program(true, 1).to_string();
        assert!(
            text.starts_with("elem (s0:s1) in 0..64 width 64\n"),
            "{text}"
        );
        assert!(text.contains("load b0[(s0:s1)]"), "{text}");
        // A gap between the rows keeps them apart.
        let gapped = Ref {
            buf: 0,
            base: 0,
            strides: vec![20, 1],
        };
        let lp = Loop {
            loads: vec![gapped.clone()],
            dest: gapped,
            ..lp
        };
        let text = lp.program(true, 1).to_string();
        assert!(
            text.starts_with("elem s0 in 0..4, s1 in 0..16 width 64\n"),
            "{text}"
        );
        assert!(text.contains("store b0[20*s0 + s1]"), "{text}");
    }

    #[test]
    fn repeated_subtrees_share_a_register() {
        // v is loaded once: two loads, a constant, sub, two muls.
        let text = dtanh(64).program(true, 3).to_string();
        assert_eq!(text.matches("load").count(), 2, "{text}");
        assert_eq!(text.lines().count(), 1 + 6 + 1, "{text}");
        assert!(text.contains("fused"), "{text}");
    }

    /// A 2×2 max-pool over `outputs` outputs: each the max of its window
    /// of 4, staged back to back (as lowering stages a pool's input).
    fn max_pool(outputs: usize) -> Loop {
        Loop {
            tree: Tree::Load(0),
            loads: vec![Ref {
                buf: 1,
                base: 0,
                strides: vec![4, 1],
            }],
            dest: Ref {
                buf: 0,
                base: 0,
                strides: vec![1, 0],
            },
            op: AssignOp::Max,
            extents: vec![outputs, 4],
        }
    }

    fn max_pool_by_hand(bufs: &mut [Vec<f32>], outputs: usize) {
        let [d, x] = bufs else { unreachable!() };
        for (d, x) in d[..outputs].iter_mut().zip(x.chunks_exact(4)) {
            *d = x.iter().fold(*d, |m, &v| m.max(v));
        }
    }

    /// Its gradient: `gin[4o + j] += g[o] * (x[4o + j] == v[o])`.
    fn pool_gradient(outputs: usize) -> Loop {
        let r = |buf, strides: [i64; 2]| Ref {
            buf,
            base: 0,
            strides: strides.to_vec(),
        };
        Loop {
            tree: Tree::bin(
                BinOp::Mul,
                Tree::Load(0),
                Tree::bin(BinOp::EqIndicator, Tree::Load(1), Tree::Load(2)),
            ),
            loads: vec![r(1, [1, 0]), r(2, [4, 1]), r(3, [1, 0])],
            dest: r(0, [4, 1]),
            op: AssignOp::Add,
            extents: vec![outputs, 4],
        }
    }

    fn pool_gradient_by_hand(bufs: &mut [Vec<f32>], outputs: usize) {
        let [d, g, x, v] = bufs else { unreachable!() };
        let windows = d.chunks_exact_mut(4).zip(x.chunks_exact(4));
        for ((d, x), (g, v)) in windows.zip(g.iter().zip(v.iter())).take(outputs) {
            for (d, x) in d.iter_mut().zip(x) {
                if x == v {
                    *d += g;
                }
            }
        }
    }

    /// The loops `lp` lowers to, as the program's first line prints them
    /// (rows, then the lanes), after checking its bits against the
    /// sequential loop.
    fn loops_of(lp: &Loop, vectorize: bool) -> String {
        let n_bufs = 1 + lp.loads.iter().map(|r| r.buf).max().unwrap_or(0);
        let p = lp.program(vectorize, n_bufs);
        let start: Vec<Vec<f32>> = (0..n_bufs).map(|b| contents(7, b)).collect();
        let mut want = start.clone();
        lp.reference(&mut want);
        let mut got = start;
        execute(&p, &mut got, &mut Columns::default());
        assert_same_bits(&got, &want, &p.to_string());
        p.to_string().lines().next().unwrap_or_default().to_string()
    }

    #[test]
    fn a_max_pool_runs_its_outputs_as_lanes() {
        assert_eq!(
            loops_of(&max_pool(128), true),
            "elem s1 in 0..4, s0 in 0..128 width 64"
        );
    }

    #[test]
    fn a_pool_gradient_runs_its_outputs_as_lanes() {
        assert_eq!(
            loops_of(&pool_gradient(128), true),
            "elem s1 in 0..4, s0 in 0..128 width 64"
        );
    }

    /// `db[c] += g[4p + c]`: the long loop is the reduction, which the
    /// destination does not walk.
    #[test]
    fn a_bias_gradient_keeps_its_lanes() {
        let lp = Loop {
            tree: Tree::Load(0),
            loads: vec![Ref {
                buf: 1,
                base: 0,
                strides: vec![4, 1],
            }],
            dest: Ref {
                buf: 0,
                base: 0,
                strides: vec![0, 1],
            },
            op: AssignOp::Add,
            extents: vec![128, 4],
        };
        assert_eq!(
            loops_of(&lp, true),
            "elem s0 in 0..128, s1 in 0..4 width 64"
        );
    }

    /// `d[i + j] += x[4i + j]`: iterations of both loops meet in one
    /// element, in an order turning the loops around would change.
    #[test]
    fn a_destination_that_is_not_injective_keeps_its_lanes() {
        let lp = Loop {
            dest: Ref {
                buf: 0,
                base: 0,
                strides: vec![1, 1],
            },
            op: AssignOp::Add,
            ..max_pool(64)
        };
        assert_eq!(loops_of(&lp, true), "elem s0 in 0..64, s1 in 0..4 width 64");
    }

    /// A max-pool reading its windows from the destination's own buffer,
    /// past the outputs: no overlap, but no reordering over a store
    /// that shares storage with a load either.
    #[test]
    fn a_load_of_the_destination_storage_keeps_the_lanes() {
        let lp = Loop {
            loads: vec![Ref {
                buf: 0,
                base: 128,
                strides: vec![4, 1],
            }],
            ..max_pool(128)
        };
        assert_eq!(loops_of(&lp, true), "elem s0 in 0..128, s1 in 0..4 width 1");
    }

    #[test]
    fn vectorize_off_keeps_the_lanes() {
        assert_eq!(
            loops_of(&max_pool(128), false),
            "elem s0 in 0..128, s1 in 0..4 width 1"
        );
    }

    /// Seconds per run of `lp` as a program and as `hand`, the loop one
    /// would write by hand over the same buffers: the two are timed in
    /// alternating batches of a few microseconds for at least 300 ms, and
    /// each keeps its best batch. A shared host can slow every call for
    /// stretches of tens of milliseconds, the program more than the hand
    /// loop (a max-pool reads 2.0x when quiet and 2.7-3.1x inside such a
    /// stretch), so a window of a few tens of milliseconds may hold only
    /// slow batches; one of 300 ms almost always holds quiet ones too.
    fn race(lp: &Loop, sc: &mut Columns, hand: impl Fn(&mut [Vec<f32>])) -> (f64, f64) {
        let n_bufs = 1 + lp.loads.iter().map(|r| r.buf).max().unwrap_or(0);
        let len = 8 + lp.extents.iter().product::<usize>() * 4;
        let mut bufs: Vec<Vec<f32>> = (0..n_bufs)
            .map(|b| {
                (0..len)
                    .map(|i| ((i * 7 + b * 3) % 11) as f32 - 5.0)
                    .collect()
            })
            .collect();
        let p = lp.program(true, n_bufs);
        let frame = views(&mut bufs);
        const WINDOW: std::time::Duration = std::time::Duration::from_millis(300);
        let calls = (50_000 / len).max(1);
        let per_call = |f: &mut dyn FnMut()| {
            let t0 = std::time::Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        };
        let (mut program, mut by_hand) = (f64::INFINITY, f64::INFINITY);
        let start = std::time::Instant::now();
        while start.elapsed() < WINDOW {
            // SAFETY: `len` covers every lane and row of every reference
            // the callers build (strides of at most 4).
            program = program.min(per_call(&mut || unsafe {
                run(black_box(&p), &[0; 4], black_box(&frame), sc)
            }));
            by_hand = by_hand.min(per_call(&mut || hand(black_box(&mut bufs))));
        }
        (program, by_hand)
    }

    /// The release-mode gate `scripts/check.sh` and CI run. Both sides of
    /// each comparison are timed in this process, in alternating batches,
    /// best batch of each over a 300 ms window, and compared as a ratio,
    /// so a slow or noisy host scales them alike.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ratios: run with --release")]
    fn strip_programs_beat_the_tree_walk_and_keep_up_with_a_slice_loop() {
        let mut sc = Columns::default();

        // The LSTM's g * (1 - v*v) at its n = 64, against the per-element
        // tree walk that used to run it.
        let lp = dtanh(64);
        let (strip, walk) = race(&lp, &mut sc, |bufs| lp.reference(bufs));
        println!(
            "g*(1-v*v) n=64: strip {:.1} ns, tree walk {:.1} ns, ratio {:.1}x",
            strip * 1e9,
            walk * 1e9,
            walk / strip
        );
        assert!(
            walk / strip >= 5.0,
            "the strip program is only {:.1}x the tree walk",
            walk / strip
        );

        // dest += x * y against the slice loop one would write by hand:
        // one long row, and 64 rows of 64.
        let fma = |extents: Vec<usize>| {
            let rows = |buf| Ref {
                buf,
                base: 0,
                strides: if extents.len() == 2 {
                    vec![extents[1] as i64, 1]
                } else {
                    vec![1]
                },
            };
            Loop {
                tree: Tree::bin(BinOp::Mul, Tree::Load(0), Tree::Load(1)),
                loads: vec![rows(1), rows(2)],
                dest: rows(0),
                op: AssignOp::Add,
                extents,
            }
        };
        for extents in [vec![4096], vec![64, 64]] {
            let (strip, plain) = race(&fma(extents.clone()), &mut sc, |bufs| {
                let [d, x, y] = bufs else { unreachable!() };
                let n = extents.iter().product();
                for ((d, x), y) in d[..n].iter_mut().zip(&x[..n]).zip(&y[..n]) {
                    *d += x * y;
                }
            });
            println!(
                "dest += x*y {extents:?}: strip {:.1} ns, slice loop {:.1} ns, ratio {:.2}x",
                strip * 1e9,
                plain * 1e9,
                strip / plain
            );
            assert!(
                strip <= plain * 1.25,
                "{extents:?}: the strip program takes {:.2}x a plain slice loop",
                strip / plain
            );
        }
        // A single 64-lane call cannot hide its set-up (three addresses to
        // evaluate, one dispatch) behind 8 ns of arithmetic; it is bounded
        // on its own.
        let (strip, plain) = race(&fma(vec![64]), &mut sc, |bufs| {
            let [d, x, y] = bufs else { unreachable!() };
            for ((d, x), y) in d[..64].iter_mut().zip(&x[..64]).zip(&y[..64]) {
                *d += x * y;
            }
        });
        println!(
            "dest += x*y [64], one call: strip {:.1} ns, slice loop {:.1} ns, +{:.1} ns",
            strip * 1e9,
            plain * 1e9,
            (strip - plain) * 1e9
        );
        assert!(
            strip <= plain * 4.0,
            "a 64-lane call costs {:.2}x the loop it runs",
            strip / plain
        );
    }

    /// The release-mode gate for the lane loop [`Builder::finish`]
    /// chooses, timed as the gate above: a 2×2 max-pool and its gradient
    /// over VGG's first pool tile (8 × 16 × 16 outputs), against the loops
    /// one would write by hand. With the 4-element window as the lanes
    /// they ran at 7.5× and 12.4× the hand loops; with the outputs as the
    /// lanes, at 2–3×.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ratios: run with --release")]
    fn pooling_runs_its_outputs_at_vector_width() {
        let mut sc = Columns::default();
        let outputs = 8 * 16 * 16;
        let mut gate = |name: &str, lp: Loop, hand: &dyn Fn(&mut [Vec<f32>]), bound: f64| {
            let (program, by_hand) = race(&lp, &mut sc, hand);
            println!(
                "{name} 8x16x16: program {:.1} ns, by hand {:.1} ns, ratio {:.2}x (<= {bound})",
                program * 1e9,
                by_hand * 1e9,
                program / by_hand
            );
            assert!(
                program <= by_hand * bound,
                "{name}: the program takes {:.2}x the hand-written loop\n{}",
                program / by_hand,
                lp.program(true, 4)
            );
        };
        gate(
            "max-pool",
            max_pool(outputs),
            &|bufs| max_pool_by_hand(bufs, outputs),
            3.5,
        );
        gate(
            "max-pool gradient",
            pool_gradient(outputs),
            &|bufs| pool_gradient_by_hand(bufs, outputs),
            5.0,
        );
    }

    /// A measurement, not a gate (EXPERIMENTS.md quotes it): the shapes
    /// conv nets are made of — what `exec.rs` used to hand-match, one row
    /// per call — as programs over whole nests, against the nests one
    /// would write by hand (index arithmetic hoisted, nothing
    /// interpreted: the floor compiled code would reach, far below what
    /// the old per-row matcher did).
    ///
    /// `cargo test --release -p latte-runtime --lib conv_shapes -- --ignored --nocapture`
    #[test]
    #[ignore = "prints a table; asserts nothing"]
    fn conv_shapes_against_hand_written_nests() {
        let mut sc = Columns::default();
        let r = |buf, strides: &[i64]| Ref {
            buf,
            base: 0,
            strides: strides.to_vec(),
        };
        // VGG's first group: 16 x 32 pixels of 16 channels.
        let (h, w, c) = (16usize, 32usize, 16usize);
        let px = [(w * c) as i64, c as i64, 1];
        let mut case = |name: &str, lp: Loop, hand: &dyn Fn(&mut [Vec<f32>])| {
            let (program, by_hand) = race(&lp, &mut sc, hand);
            println!(
                "{name:<34} program {:8.1} ns   by hand {:8.1} ns   x{:.2}",
                program * 1e9,
                by_hand * 1e9,
                program / by_hand
            );
        };
        case(
            "relu in place 16x32x16",
            Loop {
                tree: Tree::bin(BinOp::Max, Tree::Load(0), Tree::Const(0.0)),
                loads: vec![r(0, &px)],
                dest: r(0, &px),
                op: AssignOp::Set,
                extents: vec![h, w, c],
            },
            &|bufs| {
                bufs[0][..h * w * c]
                    .iter_mut()
                    .for_each(|v| *v = v.max(0.0))
            },
        );
        case(
            "relu gradient 16x32x16",
            Loop {
                tree: Tree::bin(
                    BinOp::Mul,
                    Tree::Load(0),
                    Tree::un(UnaryOp::Step, Tree::Load(1)),
                ),
                loads: vec![r(0, &px), r(1, &px)],
                dest: r(0, &px),
                op: AssignOp::Set,
                extents: vec![h, w, c],
            },
            &|bufs| {
                let [g, v] = bufs else { unreachable!() };
                for (g, v) in g[..h * w * c].iter_mut().zip(&v[..h * w * c]) {
                    *g = if *v > 0.0 { *g } else { 0.0 };
                }
            },
        );
        case(
            "bias broadcast 16x32 rows of 16",
            Loop {
                tree: Tree::Load(0),
                loads: vec![r(1, &[0, 0, 1])],
                dest: r(0, &px),
                op: AssignOp::Set,
                extents: vec![h, w, c],
            },
            &|bufs| {
                let [d, b] = bufs else { unreachable!() };
                for row in d[..h * w * c].chunks_exact_mut(c) {
                    row.copy_from_slice(&b[..c]);
                }
            },
        );
        case(
            "bias gradient 16x32 rows of 16",
            Loop {
                tree: Tree::Load(0),
                loads: vec![r(1, &px)],
                dest: r(0, &[0, 0, 1]),
                op: AssignOp::Add,
                extents: vec![h, w, c],
            },
            &|bufs| {
                let [d, g] = bufs else { unreachable!() };
                for row in g[..h * w * c].chunks_exact(c) {
                    for (d, g) in d[..c].iter_mut().zip(row) {
                        *d += g;
                    }
                }
            },
        );
        // LeNet's first conv (28 px, `channel_div` 4): tiles of 112 pixels
        // of 5 channels, the one bias broadcast short enough to turn.
        case(
            "bias broadcast 112 rows of 5",
            Loop {
                tree: Tree::Load(0),
                loads: vec![r(1, &[0, 1])],
                dest: r(0, &[5, 1]),
                op: AssignOp::Set,
                extents: vec![112, 5],
            },
            &|bufs| {
                let [d, b] = bufs else { unreachable!() };
                for row in d[..112 * 5].chunks_exact_mut(5) {
                    row.copy_from_slice(&b[..5]);
                }
            },
        );
        // 2x2 pooling, each output over a window of 4, per tile of the
        // ledger's nets: VGG's two pools (16 and 32 channels), LeNet's
        // (5 and 12). The output loops merge into one.
        for (shape, outputs) in [
            ("8x16x16", 8 * 16 * 16),
            ("4x8x32", 4 * 8 * 32),
            ("2x14x5", 2 * 14 * 5),
            ("1x7x12", 7 * 12),
        ] {
            case(
                &format!("max-pool {shape} windows of 4"),
                max_pool(outputs),
                &|bufs| max_pool_by_hand(bufs, outputs),
            );
            case(
                &format!("max-pool gradient {shape}"),
                pool_gradient(outputs),
                &|bufs| pool_gradient_by_hand(bufs, outputs),
            );
        }
    }
}
