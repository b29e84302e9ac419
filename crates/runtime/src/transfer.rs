//! Transfer programs: the runtime's data movement.
//!
//! Synthesis emits one kind of data-movement nest — the generic im2col
//! that stages a connected ensemble's values, and its scatter-accumulate
//! in backward — and, for a mapping with no affine structure, a table of
//! source offsets. Both lower to a [`Transfer`]: lists of [`Run`]s, each
//! `pre` padding, `len` moved and `post` padding elements walked with the
//! list's two strides. A gather zeroes the padding and copies the rest;
//! a scatter skips the padding and accumulates the rest back.
//!
//! One function computes a clipped interval, [`Geometry::generate`], and
//! one touches a buffer, [`walk`]. Lowering calls the generator once per
//! combination of the enclosing (tile) loops a copy's offsets move with
//! and keeps the lists in a mixed-radix table, so running a copy is a
//! lookup and a walk; a gather table is run-length encoded into the same
//! list (`-1` is padding, consecutive offsets extend a run). A copy whose
//! table would pass [`MAX_TABLE_RUNS`] keeps its geometry instead and
//! calls the same generator, into the worker's reused [`Work`], and the
//! same walk on every call. DESIGN.md §10.2 has the layout.
//!
//! # Why the walk needs no bounds checks
//!
//! Every run of every list lies inside the two per-item views it is
//! walked over, by construction:
//!
//! * the destination side of a copy is `offset + extent ≤ shape` per
//!   dimension, proved in [`Transfer::copy`] over the whole range of the
//!   enclosing loops, for a shape whose element count is the buffer's;
//! * the source side is clipped by the generator to `0 ≤ index < dim` in
//!   every source dimension, again for a shape whose element count is
//!   the buffer's;
//! * a table's entries are checked one by one in [`Transfer::table`];
//! * the two views are different storages (checked with the rest), so the
//!   slices [`walk`] forms never overlap, and the executor's per-item
//!   disjointness (see [`crate::exec`]) keeps other threads off both.
//!
//! Debug builds check every access of the walk against the live views.

use std::fmt;
use std::sync::Arc;

use latte_ir::{CopyStmt, GatherStmt};

use crate::error::RuntimeError;
use crate::exec::RawBuf;
use crate::lower::{BufBinding, CIdx};

/// The most runs — rows of the nest, over every combination of the
/// enclosing loops it moves with — a copy may precompile: 80 MiB of
/// table at 20 bytes a run. The zoo's largest at published size, in VGG
/// at 224 px, has 1 605 632 (EXPERIMENTS.md has the census).
const MAX_TABLE_RUNS: usize = 1 << 22;

/// `pre` padding, `len` moved, `post` padding elements, consecutive in
/// the destination. Every field is an element count or an offset into
/// one item's view of a buffer, which [`Transfer::ends`] bounds by `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// First destination element of the run (padding included).
    d_off: u32,
    /// First *moved* source element; 0 when `len` is 0.
    s_off: u32,
    pre: u32,
    len: u32,
    post: u32,
}

const _: () = assert!(std::mem::size_of::<Run>() == 20);

impl Run {
    fn elements(&self) -> i64 {
        i64::from(self.pre) + i64::from(self.len) + i64::from(self.post)
    }
}

/// A complete transfer for fixed values of the enclosing loops: the runs
/// in the order the nest visits them, and the element strides within one.
#[derive(Debug, Clone, Default, PartialEq)]
struct RunList {
    s_step: i64,
    d_step: i64,
    runs: Vec<Run>,
}

impl RunList {
    /// Appends a run, folding it into the previous one when the two are
    /// adjacent in the destination and either is all padding, or the
    /// moved parts meet with no padding between them and are adjacent in
    /// the source as well. Element order is unchanged either way.
    fn push(&mut self, run: Run) {
        if let Some(prev) = self.runs.last_mut() {
            if i64::from(prev.d_off) + prev.elements() * self.d_step == i64::from(run.d_off) {
                if run.len == 0 {
                    prev.post += run.pre + run.post;
                    return;
                }
                if prev.len == 0 {
                    *prev = Run {
                        d_off: prev.d_off,
                        pre: prev.pre + prev.post + run.pre,
                        ..run
                    };
                    return;
                }
                if prev.post == 0
                    && run.pre == 0
                    && i64::from(prev.s_off) + i64::from(prev.len) * self.s_step
                        == i64::from(run.s_off)
                {
                    prev.len += run.len;
                    prev.post = run.post;
                    return;
                }
            }
        }
        if run.elements() > 0 {
            self.runs.push(run);
        }
    }
}

/// A copy nest as synthesis describes it, reduced to what the generator
/// reads: `dest[offsets + i] ⇄ src[src_base + coefs · (offsets + i)]` for
/// every `i` below `extents`.
#[derive(Debug, Clone)]
struct Geometry {
    /// Iterated extent per destination dimension.
    extents: Vec<usize>,
    dest_strides: Vec<usize>,
    /// Global starting index per destination dimension.
    offsets: Vec<CIdx>,
    src_dims: Vec<usize>,
    /// `coefs[s][d]`: source dimension `s`'s dependence on global
    /// destination index `d`.
    coefs: Vec<Vec<i64>>,
    /// Constant part of each source index.
    src_base: Vec<i64>,
}

/// What generating a list per call needs, kept per worker so that it
/// allocates nothing once grown: the list, and the nest's odometer (a
/// counter per outer destination dimension, then an index per source
/// dimension).
#[derive(Debug, Default)]
pub(crate) struct Work {
    list: RunList,
    odo: Vec<i64>,
}

/// A row-major offset into `dims`, by Horner's rule.
fn flat(dims: &[usize], index: impl Fn(usize) -> i64) -> i64 {
    (0..dims.len()).fold(0, |acc, s| acc * dims[s] as i64 + index(s))
}

impl Geometry {
    /// Rows of the nest: one run each, before any fold together.
    fn rows(&self) -> usize {
        self.extents[..self.extents.len() - 1].iter().product()
    }

    /// Leaves in `work.list` the nest's runs under `env`: one per row of
    /// the innermost dimension, which — every source index being affine
    /// in the row's counter — is valid on one interval `[lo, hi)`.
    #[allow(clippy::needless_range_loop)] // walks several parallel index arrays
    fn generate(&self, env: &[i64], work: &mut Work) {
        let last = self.extents.len() - 1;
        let nsd = self.src_dims.len();
        let inner = self.extents[last] as i64;
        let Work { list, odo } = work;
        list.runs.clear();
        list.d_step = self.dest_strides[last] as i64;
        list.s_step = flat(&self.src_dims, |s| self.coefs[s][last]);
        odo.clear();
        odo.resize(last, 0);
        odo.extend_from_slice(&self.src_base);
        let (ctr, sidx) = odo.split_at_mut(last);
        let mut d_off = 0i64;
        for (d, offset) in self.offsets.iter().enumerate() {
            let o = offset.eval(env);
            d_off += o * self.dest_strides[d] as i64;
            for s in 0..nsd {
                sidx[s] += self.coefs[s][d] * o;
            }
        }
        let ceil = |a: i64, b: i64| -(-a).div_euclid(b);
        for _ in 0..self.rows() {
            // Intersect 0 <= v + coef * i < dim over the source dimensions;
            // a falling index is a rising one counted from the far end.
            let (mut lo, mut hi) = (0i64, inner);
            for s in 0..nsd {
                let dim = self.src_dims[s] as i64;
                let (v, coef) = match self.coefs[s][last] {
                    coef if coef < 0 => (dim - 1 - sidx[s], -coef),
                    coef => (sidx[s], coef),
                };
                if coef > 0 {
                    lo = lo.max(ceil(-v, coef));
                    hi = hi.min(ceil(dim - v, coef));
                } else if v < 0 || v >= dim {
                    hi = 0;
                }
            }
            let lo = lo.clamp(0, inner);
            let hi = hi.clamp(lo, inner);
            // Both offsets lie in their views (module doc), whose lengths
            // `Transfer::ends` bounded by `u32`.
            let s_off = if hi > lo {
                flat(&self.src_dims, |s| sidx[s]) + lo * list.s_step
            } else {
                0
            };
            list.push(Run {
                d_off: d_off as u32,
                s_off: s_off as u32,
                pre: lo as u32,
                len: (hi - lo) as u32,
                post: (inner - hi) as u32,
            });
            // Advance the odometer over the outer dimensions.
            let mut d = last;
            while d > 0 {
                d -= 1;
                ctr[d] += 1;
                d_off += self.dest_strides[d] as i64;
                for s in 0..nsd {
                    sidx[s] += self.coefs[s][d];
                }
                if ctr[d] < self.extents[d] as i64 {
                    break;
                }
                let n = self.extents[d] as i64;
                ctr[d] = 0;
                d_off -= self.dest_strides[d] as i64 * n;
                for s in 0..nsd {
                    sidx[s] -= self.coefs[s][d] * n;
                }
            }
        }
    }
}

/// Where a transfer's run lists come from.
#[derive(Debug, Clone)]
enum Lists {
    /// Precompiled: one list per combination of values of `slots` (the
    /// enclosing loops the offsets depend on, `(slot, extent)`, major
    /// first), in mixed-radix order.
    Table {
        slots: Vec<(usize, usize)>,
        lists: Arc<[RunList]>,
    },
    /// Generated on every call.
    PerCall(Box<Geometry>),
}

/// The precompiled tables lowering has built so far, kept so that an
/// equal one is stored once: a gather and the scatter of its gradient
/// walk the same runs.
#[derive(Debug, Default)]
pub(crate) struct Tables(Vec<Arc<[RunList]>>);

/// A compiled data-copy nest or gather table.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    dest: usize,
    src: usize,
    /// `false` gathers into `dest`; `true` scatter-accumulates into `src`.
    scatter: bool,
    lists: Lists,
}

fn malformed(detail: String) -> RuntimeError {
    RuntimeError::Malformed { detail }
}

impl Transfer {
    /// The per-item lengths of a transfer's two buffers: different
    /// storages, since [`walk`] forms a slice of each, and each with
    /// element counts that fit a run's `u32` fields.
    fn ends(dest: usize, src: usize, bufs: &[BufBinding]) -> Result<(usize, usize), RuntimeError> {
        let (d, s) = (&bufs[dest], &bufs[src]);
        let too_long = |len: usize| u32::try_from(len).is_err();
        if d.storage == s.storage || too_long(d.per_item) || too_long(s.per_item) {
            return Err(malformed(format!(
                "transfer b{dest} <- b{src}: one storage on both ends, or {} / {} elements overflow a run",
                d.per_item, s.per_item
            )));
        }
        Ok((d.per_item, s.per_item))
    }

    /// Compiles a copy nest between buffers `dest` and `src` of `bufs`.
    /// `offsets` are the statement's, compiled over the group's loop
    /// slots, whose extents are `slot_extents`.
    pub(crate) fn copy(
        c: &CopyStmt,
        dest: usize,
        src: usize,
        bufs: &[BufBinding],
        offsets: Vec<CIdx>,
        slot_extents: &[usize],
    ) -> Result<Self, RuntimeError> {
        let (dest_len, src_len) = Self::ends(dest, src, bufs)?;
        let ndd = c.extents.len();
        let nsd = c.src_shape.len();
        let count = |shape: &[usize]| shape.iter().product::<usize>();
        if ndd == 0
            || [c.dest_shape.len(), offsets.len()] != [ndd; 2]
            || c.map.len() != nsd
            || [count(&c.dest_shape), count(&c.src_shape)] != [dest_len, src_len]
        {
            return Err(malformed(format!(
                "copy `{}` {:?} <- `{}` {:?}: ranks or shapes do not match the buffers",
                c.dest, c.dest_shape, c.src, c.src_shape
            )));
        }
        // Static bound: offset + extent within dest shape per dim.
        for (d, off) in offsets.iter().enumerate() {
            let (lo, hi) = off.range(slot_extents);
            if lo < 0 || hi + c.extents[d] as i64 > c.dest_shape[d] as i64 {
                return Err(malformed(format!(
                    "copy dim {d} covers [{lo}, {}] outside extent {}",
                    hi + c.extents[d] as i64,
                    c.dest_shape[d]
                )));
            }
        }
        // Trim unit iteration dimensions with zero offset: their index is
        // always 0, so they contribute nothing and only add rows (pooling
        // windows routinely end in a channel extent of 1).
        let keep: Vec<usize> = (0..ndd)
            .filter(|&d| !(c.extents[d] == 1 && offsets[d] == CIdx::constant(0)))
            .collect();
        let keep = if keep.is_empty() { vec![ndd - 1] } else { keep };
        // Decompose each source map into coefficients over the kept dest
        // dims (variables d0..d{ndd-1}); any other variable is malformed.
        let mut coefs = vec![vec![0i64; keep.len()]; nsd];
        for (s, m) in c.map.iter().enumerate() {
            for (var, coef) in m.terms() {
                let d = var.strip_prefix('d').and_then(|v| v.parse::<usize>().ok());
                let Some(d) = d.filter(|&d| d < ndd) else {
                    return Err(malformed(format!(
                        "copy map uses unexpected variable `{var}`"
                    )));
                };
                if let Some(k) = keep.iter().position(|&kept| kept == d) {
                    coefs[s][k] = coef;
                }
            }
        }
        let dest_shape = latte_tensor::Shape::new(c.dest_shape.clone());
        let geometry = Geometry {
            extents: keep.iter().map(|&d| c.extents[d]).collect(),
            dest_strides: keep.iter().map(|&d| dest_shape.strides()[d]).collect(),
            offsets: keep.iter().map(|&d| offsets[d].clone()).collect(),
            src_dims: c.src_shape.clone(),
            coefs,
            src_base: c.map.iter().map(|m| m.offset()).collect(),
        };

        // The enclosing loops the offsets move with, major first.
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for &(slot, _) in geometry.offsets.iter().flat_map(|o| &o.terms) {
            slots.push((slot, slot_extents[slot].max(1)));
        }
        slots.sort_unstable();
        slots.dedup();
        let combos = slots.iter().fold(1, |n: usize, s| n.saturating_mul(s.1));
        let lists = if combos.saturating_mul(geometry.rows()) <= MAX_TABLE_RUNS {
            let mut work = Work::default();
            let mut env = vec![0i64; slot_extents.len()];
            let lists = (0..combos).map(|idx| {
                // Mixed-radix decode, major first.
                let mut rem = idx;
                for &(slot, extent) in slots.iter().rev() {
                    env[slot] = (rem % extent) as i64;
                    rem /= extent;
                }
                geometry.generate(&env, &mut work);
                work.list.runs.shrink_to_fit();
                std::mem::take(&mut work.list)
            });
            Lists::Table {
                lists: lists.collect(),
                slots,
            }
        } else {
            Lists::PerCall(Box::new(geometry))
        };
        Ok(Transfer {
            dest,
            src,
            scatter: c.scatter,
            lists,
        })
    }

    /// Compiles a gather table between buffers `dest` and `src` of
    /// `bufs`, rejecting any entry that is not `-1` or an element of
    /// `src`, and a table longer than `dest`.
    pub(crate) fn table(
        g: &GatherStmt,
        dest: usize,
        src: usize,
        bufs: &[BufBinding],
    ) -> Result<Self, RuntimeError> {
        let (dest_len, src_len) = Self::ends(dest, src, bufs)?;
        if g.table.len() > dest_len {
            return Err(malformed(format!(
                "gather table of {} entries overruns `{}` of {dest_len} elements",
                g.table.len(),
                g.dest
            )));
        }
        let mut list = RunList {
            s_step: 1,
            d_step: 1,
            runs: Vec::new(),
        };
        for (i, &t) in g.table.iter().enumerate() {
            if t < -1 || t >= src_len as i64 {
                return Err(malformed(format!(
                    "gather table entry {i} is {t}, outside `{}` of {src_len} elements",
                    g.src
                )));
            }
            let moved = u32::from(t >= 0);
            // `i < dest_len` and `t < src_len`, both bounded by `ends`.
            list.push(Run {
                d_off: i as u32,
                s_off: t.max(0) as u32,
                pre: 1 - moved,
                len: moved,
                post: 0,
            });
        }
        Ok(Transfer {
            dest,
            src,
            scatter: g.scatter,
            lists: Lists::Table {
                slots: Vec::new(),
                lists: Arc::new([list]),
            },
        })
    }

    /// Points this transfer's table at an equal one already in `tables`,
    /// or adds it there.
    pub(crate) fn share_table(&mut self, tables: &mut Tables) {
        let Lists::Table { lists, .. } = &mut self.lists else {
            return;
        };
        match tables.0.iter().find(|seen| seen[..] == lists[..]) {
            Some(seen) => *lists = Arc::clone(seen),
            None => tables.0.push(Arc::clone(lists)),
        }
    }

    /// Runs the transfer for one batch item under the enclosing loops'
    /// values `env`.
    ///
    /// # Safety
    ///
    /// `frame` holds the item's live view of every buffer of the group
    /// the transfer was compiled in, each at least its binding's
    /// `per_item` long, the two the transfer names being different
    /// storages; `env` holds a value below its loop's extent in every
    /// slot; and no other thread touches either view meanwhile.
    pub(crate) unsafe fn run(&self, env: &[i64], frame: &[RawBuf], work: &mut Work) {
        let list = match &self.lists {
            Lists::Table { slots, lists } => {
                let idx = slots
                    .iter()
                    .fold(0, |idx, &(slot, extent)| idx * extent + env[slot] as usize);
                &lists[idx]
            }
            Lists::PerCall(geometry) => {
                geometry.generate(env, work);
                &work.list
            }
        };
        walk(list, self.scatter, &frame[self.dest], &frame[self.src]);
    }
}

/// Moves one list's elements: zero, copy, zero for a gather; skip,
/// accumulate, skip for a scatter.
///
/// # Safety
///
/// Every run of `list` lies inside `dest` and `src`, which are live,
/// non-overlapping, and this thread's alone for the call. (Debug builds
/// check every access against the views.)
unsafe fn walk(list: &RunList, scatter: bool, dest: &RawBuf, src: &RawBuf) {
    let (s_step, d_step) = (list.s_step, list.d_step);
    let at = |view: &RawBuf, i: i64| {
        debug_assert!(i >= 0 && (i as usize) < view.len, "{i} of {}", view.len);
        view.ptr.offset(i as isize)
    };
    for r in &list.runs {
        let (pre, len, post) = (r.pre as usize, r.len as usize, r.post as usize);
        let (d_off, s_off) = (i64::from(r.d_off), i64::from(r.s_off));
        // The first moved destination element.
        let d0 = d_off + i64::from(r.pre) * d_step;
        if scatter && s_step == 1 && d_step == 1 && len > 0 {
            let moved = dest.slice(d0, len);
            for (sv, dv) in src.slice_mut(s_off, len).iter_mut().zip(moved) {
                *sv += dv;
            }
        } else if scatter {
            for i in 0..i64::from(r.len) {
                *at(src, s_off + i * s_step) += *at(dest, d0 + i * d_step);
            }
        } else if d_step == 1 {
            dest.slice_mut(d_off, pre).fill(0.0);
            if s_step == 1 && len > 0 {
                dest.slice_mut(d0, len)
                    .copy_from_slice(src.slice(s_off, len));
            } else {
                for (i, dv) in dest.slice_mut(d0, len).iter_mut().enumerate() {
                    *dv = *at(src, s_off + i as i64 * s_step);
                }
            }
            dest.slice_mut(d0 + i64::from(r.len), post).fill(0.0);
        } else {
            // A destination stride: an inner dimension is tiled. Rare, so
            // plainly: zero the run, then move what is moved.
            for i in 0..r.elements() {
                *at(dest, d_off + i * d_step) = 0.0;
            }
            for i in 0..i64::from(r.len) {
                *at(dest, d0 + i * d_step) = *at(src, s_off + i * s_step);
            }
        }
    }
}

impl fmt::Display for Transfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.scatter {
            true => write!(f, "scatter b{} +=> b{}: ", self.dest, self.src)?,
            false => write!(f, "copy b{} <- b{}: ", self.dest, self.src)?,
        }
        match &self.lists {
            Lists::Table { lists, .. } => {
                let runs: usize = lists.iter().map(|l| l.runs.len()).sum();
                write!(f, "{} program(s), {runs} runs", lists.len())
            }
            Lists::PerCall(_) => write!(f, "per call"),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use latte_ir::IndexExpr;
    use proptest::prelude::*;

    use super::*;

    /// Buffer contents with zeros of both signs and a few non-finite
    /// values: a transfer moves bits, whatever they spell.
    fn contents(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32 ^ seed).wrapping_mul(2654435761) >> 20;
                match h % 19 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NAN,
                    k => (k as f32 - 10.0) / 4.0,
                }
            })
            .collect()
    }

    fn bindings(dest_len: usize, src_len: usize) -> Vec<BufBinding> {
        [dest_len, src_len]
            .iter()
            .enumerate()
            .map(|(storage, &per_item)| BufBinding {
                storage,
                per_item,
                batched: true,
                param_grad: false,
            })
            .collect()
    }

    fn run(t: &Transfer, env: &[i64], dest: &mut [f32], src: &mut [f32], work: &mut Work) {
        let frame = [dest, src].map(|b| RawBuf {
            ptr: b.as_mut_ptr(),
            len: b.len(),
        });
        // SAFETY: the two views are live, distinct and as long as the
        // bindings the transfer was compiled against; debug builds
        // re-check every run against them.
        unsafe { t.run(env, &frame, work) };
    }

    fn same_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "{what}: element {i} is {g} ({:#x}), want {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
        Ok(())
    }

    /// The statement's meaning, one destination element at a time: the
    /// affine map evaluated per source dimension, out of range ⇒ padding
    /// (what `latte_oracle::interp` does; this crate cannot depend on it).
    fn reference_copy(c: &CopyStmt, offsets: &[i64], dest: &mut [f32], src: &mut [f32]) {
        let strides = |shape: &[usize]| -> Vec<usize> {
            (0..shape.len())
                .map(|d| shape[d + 1..].iter().product())
                .collect()
        };
        let (dest_strides, src_strides) = (strides(&c.dest_shape), strides(&c.src_shape));
        let total: usize = c.extents.iter().product();
        let mut g = HashMap::new();
        for step in 0..total {
            let (mut rem, mut d_flat) = (step, 0);
            for d in (0..c.extents.len()).rev() {
                let at = offsets[d] + (rem % c.extents[d]) as i64;
                rem /= c.extents[d];
                d_flat += at as usize * dest_strides[d];
                g.insert(CopyStmt::dim_var(d), at);
            }
            let mut s_flat = Some(0);
            for (s, m) in c.map.iter().enumerate() {
                let at = m.eval(&g);
                let inside = at >= 0 && at < c.src_shape[s] as i64;
                s_flat = s_flat
                    .filter(|_| inside)
                    .map(|f| f + at as usize * src_strides[s]);
            }
            match (c.scatter, s_flat) {
                (true, Some(s)) => src[s] += dest[d_flat],
                (true, None) => {}
                (false, Some(s)) => dest[d_flat] = src[s],
                (false, None) => dest[d_flat] = 0.0,
            }
        }
    }

    fn reference_table(g: &GatherStmt, dest: &mut [f32], src: &mut [f32]) {
        for (i, &t) in g.table.iter().enumerate() {
            match (g.scatter, t >= 0) {
                (true, true) => src[t as usize] += dest[i],
                (true, false) => {}
                (false, true) => dest[i] = src[t as usize],
                (false, false) => dest[i] = 0.0,
            }
        }
    }

    /// A copy statement plus its offsets over `slot_extents`.
    struct Case {
        stmt: CopyStmt,
        offsets: Vec<CIdx>,
        slot_extents: Vec<usize>,
    }

    impl Case {
        /// Compiles the statement, then runs it and the reference for
        /// every combination of the enclosing loops, one after another
        /// over the same buffers, comparing both buffers each time.
        fn check(&self, seed: u32) -> Result<(), TestCaseError> {
            let dest_len: usize = self.stmt.dest_shape.iter().product();
            let src_len: usize = self.stmt.src_shape.iter().product();
            let t = Transfer::copy(
                &self.stmt,
                0,
                1,
                &bindings(dest_len, src_len),
                self.offsets.clone(),
                &self.slot_extents,
            )
            .expect("a well-formed copy");
            let mut got = [contents(dest_len, seed), contents(src_len, !seed)];
            let mut want = got.clone();
            let mut work = Work::default();
            let combos: usize = self.slot_extents.iter().product();
            for combo in 0..combos {
                let mut rem = combo;
                let env: Vec<i64> = self
                    .slot_extents
                    .iter()
                    .map(|&e| {
                        let v = rem % e;
                        rem /= e;
                        v as i64
                    })
                    .collect();
                let at: Vec<i64> = self.offsets.iter().map(|o| o.eval(&env)).collect();
                let [dest, src] = &mut got;
                run(&t, &env, dest, src, &mut work);
                let [dest, src] = &mut want;
                reference_copy(&self.stmt, &at, dest, src);
                same_bits(
                    &got[0],
                    &want[0],
                    &format!("dest under {env:?}\n{:?}", self.stmt),
                )?;
                same_bits(
                    &got[1],
                    &want[1],
                    &format!("src under {env:?}\n{:?}", self.stmt),
                )?;
            }
            Ok(())
        }
    }

    /// Draws a copy from `codes`: any dest and source rank, extents from
    /// 0 up to the shape, offsets that move with up to `loops` enclosing
    /// loops, and a source map that is either arbitrary (coefficients
    /// -2..=2, most rows clipped or empty) or window-shaped (source
    /// dimension `s` reads dest dimensions `s` and `s + rank`, stride 1
    /// or 2, padded on either side: unit innermost runs, some clipped).
    fn draw(codes: &[u32], ndd: usize, nsd: usize, loops: usize, scatter: bool) -> Case {
        let mut codes = codes.iter().copied().cycle();
        let mut below = |n: usize| codes.next().expect("cycled") as usize % n.max(1);
        let slot_extents: Vec<usize> = (0..loops).map(|_| 1 + below(3)).collect();
        let dest_shape: Vec<usize> = (0..ndd).map(|_| 1 + below(4)).collect();
        let mut extents = Vec::new();
        let mut offsets = Vec::new();
        for &dim in &dest_shape {
            // One draw in eight iterates nothing in this dimension.
            let extent = if below(8) == 0 { 0 } else { 1 + below(dim) };
            let mut slack = dim - extent;
            let mut off = CIdx::constant(0);
            if loops > 0 && below(2) == 0 {
                let slot = below(loops);
                let reach = slot_extents[slot] - 1;
                let coef = slack.checked_div(reach).map_or(1, |most| below(most + 1));
                if coef > 0 {
                    off.terms.push((slot, coef as i64));
                    slack -= coef * reach;
                }
            }
            off.base = below(slack + 1) as i64;
            extents.push(extent);
            offsets.push(off);
        }
        let src_shape: Vec<usize> = (0..nsd).map(|_| 1 + below(5)).collect();
        let windows = below(2) == 0;
        let map = (0..nsd)
            .map(|s| {
                let base = if windows {
                    -(below(3) as i64)
                } else {
                    below(src_shape[s] + 4) as i64 - 2
                };
                let mut m = IndexExpr::constant(base);
                for d in 0..ndd {
                    let coef = match (windows, d % nsd == s) {
                        (true, true) if d < nsd => 1 + below(2) as i64,
                        (true, true) => 1,
                        (true, false) => 0,
                        (false, _) => below(5) as i64 - 2,
                    };
                    m = m + IndexExpr::var(CopyStmt::dim_var(d)).scaled(coef);
                }
                m
            })
            .collect();
        Case {
            stmt: CopyStmt {
                dest: "dest".into(),
                dest_shape,
                extents,
                offsets: vec![IndexExpr::zero(); ndd],
                src: "src".into(),
                src_shape,
                map,
                scatter,
            },
            offsets,
            slot_extents,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any copy nest leaves both buffers bit-identical to evaluating
        /// the statement one destination element at a time.
        #[test]
        fn copies_match_the_statement(
            codes in proptest::collection::vec(0u32..1_000_000, 48),
            ndd in 1usize..6,
            nsd in 1usize..5,
            loops in 0usize..3,
            scatter in 0usize..2,
            seed in 0u32..1_000_000,
        ) {
            draw(&codes, ndd, nsd, loops, scatter == 1).check(seed)?;
        }

        /// Any gather table — holes, ascending stretches, reversals,
        /// repeats, shorter than the destination or exactly as long —
        /// leaves both buffers bit-identical to reading the table entry
        /// by entry.
        #[test]
        fn tables_match_entry_by_entry(
            codes in proptest::collection::vec((0usize..4, 0usize..1000), 0..40),
            tail in 0usize..3,
            src_len in 1usize..12,
            scatter in 0usize..2,
            seed in 0u32..1_000_000,
        ) {
            let mut table: Vec<i64> = Vec::new();
            for (kind, pick) in codes {
                let prev = table.last().copied().unwrap_or(-1);
                table.push(match kind {
                    0 => -1,
                    1 if prev + 1 < src_len as i64 => prev + 1,
                    2 if prev > 0 => prev - 1,
                    _ => (pick % src_len) as i64,
                });
            }
            let dest_len = (table.len() + tail).max(1);
            let g = GatherStmt {
                dest: "dest".into(),
                dest_len,
                src: "src".into(),
                table: Arc::new(table),
                scatter: scatter == 1,
            };
            let t = Transfer::table(&g, 0, 1, &bindings(dest_len, src_len)).expect("a valid table");
            let mut got = [contents(dest_len, seed), contents(src_len, !seed)];
            let mut want = got.clone();
            let [dest, src] = &mut got;
            run(&t, &[], dest, src, &mut Work::default());
            let [dest, src] = &mut want;
            reference_table(&g, dest, src);
            same_bits(&got[0], &want[0], &format!("dest by {:?}", g.table))?;
            same_bits(&got[1], &want[1], &format!("src by {:?}", g.table))?;
        }
    }

    fn table_of(
        entries: &[i64],
        dest_len: usize,
        src_len: usize,
    ) -> Result<Transfer, RuntimeError> {
        let g = GatherStmt {
            dest: "dest".into(),
            dest_len,
            src: "src".into(),
            table: Arc::new(entries.to_vec()),
            scatter: false,
        };
        Transfer::table(&g, 0, 1, &bindings(dest_len, src_len))
    }

    #[test]
    fn a_table_is_run_length_encoded() {
        // Two holes, 3..=5, a hole, 5 again, then 0..=1: three runs.
        let t = table_of(&[-1, -1, 3, 4, 5, -1, 5, 0, 1], 9, 6).expect("valid");
        assert_eq!(t.to_string(), "copy b0 <- b1: 1 program(s), 3 runs");
        let identity: Vec<i64> = (0..64).collect();
        let t = table_of(&identity, 64, 64).expect("valid");
        assert_eq!(t.to_string(), "copy b0 <- b1: 1 program(s), 1 runs");
    }

    #[test]
    fn a_table_that_would_leave_its_buffers_is_rejected() {
        for (entries, what) in [
            (&[0, 6][..], "an entry past the source"),
            (&[0, -2][..], "an entry below -1"),
            (
                &[0; 10][..],
                "more entries than the destination has elements",
            ),
        ] {
            let err = table_of(entries, 9, 6).expect_err(what);
            assert!(
                matches!(err, RuntimeError::Malformed { .. }),
                "{what}: {err}"
            );
        }
    }

    /// A 3x3 window over a 4x4 image with a one-pixel border, written
    /// the way synthesis writes pooling and convolution inputs: unit
    /// dimensions around the ones that move.
    fn window(dest_shape: Vec<usize>, extents: Vec<usize>, offsets: Vec<CIdx>) -> Case {
        let ndd = dest_shape.len();
        let var = |d: usize| IndexExpr::var(CopyStmt::dim_var(d));
        Case {
            stmt: CopyStmt {
                dest: "dest".into(),
                dest_shape,
                extents,
                offsets: vec![IndexExpr::zero(); ndd],
                src: "src".into(),
                src_shape: vec![4, 4],
                map: vec![var(1) + var(3) + -1, var(2) + var(4) + -1],
                scatter: false,
            },
            offsets,
            slot_extents: vec![2],
        }
    }

    #[test]
    fn unit_dimensions_are_trimmed_without_changing_the_copy() {
        let zero = || CIdx::constant(0);
        // Leading and trailing unit dimensions go; the unit dimension
        // whose offset follows the enclosing loop stays.
        let tiled = CIdx {
            base: 0,
            terms: vec![(0, 1)],
        };
        window(
            vec![1, 2, 4, 3, 3, 1],
            vec![1, 1, 4, 3, 3, 1],
            vec![zero(), tiled, zero(), zero(), zero(), zero()],
        )
        .check(7)
        .expect("trimmed around a tiled unit dimension");
        // A unit dimension at a constant non-zero offset stays too.
        window(
            vec![1, 2, 4, 3, 3],
            vec![1, 1, 4, 3, 3],
            vec![zero(), CIdx::constant(1), zero(), zero(), zero()],
        )
        .check(8)
        .expect("trimmed around an offset unit dimension");
        // Nothing but unit dimensions: the last one is kept to iterate.
        window(vec![1, 1, 1, 1, 1], vec![1; 5], vec![zero(); 5])
            .check(9)
            .expect("all unit dimensions");
    }

    /// More rows, over the enclosing loop's two values, than a table may
    /// hold: the copy keeps its geometry and generates per call, through
    /// the same generator and the same walk.
    #[test]
    fn a_copy_past_the_table_bound_generates_per_call() {
        let rows = MAX_TABLE_RUNS / 2 + 1;
        let var = |d: usize| IndexExpr::var(CopyStmt::dim_var(d));
        let case = Case {
            stmt: CopyStmt {
                dest: "dest".into(),
                dest_shape: vec![rows, 2],
                extents: vec![rows, 1],
                offsets: vec![IndexExpr::zero(); 2],
                src: "src".into(),
                src_shape: vec![1000, 3],
                // Rows 3.. read the source shifted by the tile; the rest
                // is padding.
                map: vec![var(0) + -3, var(1) + 1],
                scatter: false,
            },
            offsets: vec![
                CIdx::constant(0),
                CIdx {
                    base: 0,
                    terms: vec![(0, 1)],
                },
            ],
            slot_extents: vec![2],
        };
        let t = Transfer::copy(
            &case.stmt,
            0,
            1,
            &bindings(2 * rows, 3000),
            case.offsets.clone(),
            &case.slot_extents,
        )
        .expect("well-formed");
        assert_eq!(t.to_string(), "copy b0 <- b1: per call");
        case.check(3).expect("per call");
        let scatter = Case {
            stmt: CopyStmt {
                scatter: true,
                ..case.stmt
            },
            ..case
        };
        scatter.check(4).expect("per call, scattering");
    }
}
