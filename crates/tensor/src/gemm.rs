//! Single-precision general matrix multiplication.
//!
//! The paper's compiler pattern-matches synthesized loop nests into calls to
//! MKL's `sgemm` through a simplified interface `gemm(transA, transB, m, n,
//! k, A, B, C)` with implicit `alpha = beta = 1` (accumulate into `C`). MKL
//! is not available here, so this module provides the substitute both the
//! Latte stack and the Caffe-style baseline call — exactly the arrangement
//! the paper evaluates ("Because both Latte and Caffe use MKL, ... they have
//! the same performance for computing these fully-connected layers").
//!
//! Every entry point computes `C += op(A) * op(B)` by the one
//! multiply-accumulate rule of the IR ([`crate::mac`]): per output, start
//! from `C`, then for `p` ascending `c = mac(c, A[i, p], B[p, j])`, one
//! fused multiply-add, one rounding. So a matched GEMM and the loop nest
//! it replaced give the same bits, and so do all the kernels below, on
//! any host and at any thread count:
//!
//! * [`gemm_naive`] — the rule as a textbook triple loop, the bit oracle
//!   every kernel is held to.
//! * [`Gemm::compute`] — the library kernel. One `match` on the shape
//!   class and the host's ISA picks one of four kernels:
//!   - **narrow** — outputs at most 32 wide with `A` untransposed (every
//!     forward convolution of the `(y, x, c)` layout, whose `n` is its
//!     channel count). Each row of `C` is held in registers over the
//!     whole `k` against a small `k x n` panel of B. *narrow-AVX*
//!     (AVX2+FMA hosts) runs blocks of rows at vector width with `vfmadd`;
//!     *narrow-portable* is a scalar loop of `mac`;
//!   - **tiled** — everything else, the Goto/BLIS decomposition:
//!     operands packed into zero-padded micro-panels (`MR`-row A panels,
//!     `NR`-column B panels), an `MR x NR` register-blocked micro-kernel
//!     per output tile, which loads its tile of `C` before each `KC` block
//!     of `k` and stores it after. *tiled-FMA* (AVX2+FMA hosts) runs
//!     `vfmadd`; *tiled-portable* runs `mac`.
//! * [`Gemm::compute_parallel`] — the tiled decomposition with the
//!   `(ic, jc)` macro-tile grid statically partitioned across a worker
//!   pool ([`GemmPool`]). Every output element is produced by exactly one
//!   worker, its `KC` blocks in ascending order, so results are
//!   **bit-identical** to [`Gemm::compute`] for any worker count. A
//!   GEMM that would not split (one worker, a narrow output, too few
//!   flops, fewer than two macro-tiles) runs on the caller's engine
//!   without waking the pool.
//!
//! The block sizes are fixed constants, cache choices only: no bit
//! depends on them. The parallel partition rests on every engine cutting
//! the same `MC x NC` grid.

use crate::{detect_fma, mac};

/// Rows of the register-blocked micro-kernel (A micro-panel height).
const MR: usize = 4;
/// Columns of the register-blocked micro-kernel (B micro-panel width).
const NR: usize = 16;
/// The `k` block of the tiled kernels (the packed panels kept in cache).
/// Each block carries on from `C`, so no bit depends on it.
const KC: usize = 256;
/// Columns of `C` in a macro-tile (the packed B block kept in cache).
const NC: usize = 512;
/// Rows of `C` in a macro-tile (the packed A block).
const MC: usize = 64;
// Packed panels are micro-panel grids with no padding between them.
const _: () = assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR));

/// Below this many multiply-adds a GEMM is not worth fanning out; the
/// parallel entry runs it on the caller instead.
const MIN_PARALLEL_FLOPS: usize = 2 * 64 * 64 * 64;

/// Outputs at most this narrow (with `A` untransposed) take the
/// register-row path instead of the tiled kernel: at vector width a row
/// of `C` is at most four YMM accumulators.
const NARROW: usize = 32;

/// Whether an operand of [`Gemm::compute`] is transposed.
///
/// `A` is logically `m x k` after the op is applied; `B` is logically
/// `k x n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand as stored.
    Yes,
}

/// Reference GEMM: `C += op(A) * op(B)` via the textbook triple loop,
/// each output carried on from `C` by [`mac`] in ascending `k` — the
/// rule itself, which every kernel of [`Gemm`] meets bit for bit.
///
/// `a` is `m x k` when `ta` is [`Transpose::No`], else `k x m` (stored
/// row-major); `b` is `k x n` when `tb` is [`Transpose::No`], else `n x k`;
/// `c` is always `m x n` row-major.
///
/// # Panics
///
/// Panics if any slice is shorter than its shape requires.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
pub fn gemm_naive(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    check_lens(m, n, k, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let cv = &mut c[i * n + j];
            for p in 0..k {
                let av = match ta {
                    Transpose::No => a[i * k + p],
                    Transpose::Yes => a[p * m + i],
                };
                let bv = match tb {
                    Transpose::No => b[p * n + j],
                    Transpose::Yes => b[j * k + p],
                };
                *cv = mac(*cv, av, bv);
            }
        }
    }
}

/// A worker pool the parallel GEMM entry can fan tiles out over.
///
/// `latte-runtime`'s persistent pool implements this; tests may implement
/// it sequentially (the partitioning is correct for any execution order).
///
/// # Safety
///
/// [`Gemm::compute_parallel`] has every worker write its own macro-tiles
/// of `C` through one raw pointer; the writes are disjoint only if
/// `run_gemm(job)` invokes `job(tid, engine)` exactly once for every `tid`
/// in `0..threads()`, each invocation with exclusive access to its own
/// engine, and returns only after all invocations complete.
pub unsafe trait GemmPool {
    /// Number of workers `run_gemm` drives.
    fn threads(&self) -> usize;
    /// Runs `job(tid, engine)` on every worker and waits for completion.
    fn run_gemm(&self, job: &(dyn Fn(usize, &mut Gemm) + Sync));
    /// Runs `job(engine)` once on the calling thread without waking the
    /// other workers: how a GEMM that does not split runs.
    fn run_serial(&self, job: &mut dyn FnMut(&mut Gemm));
}

/// Cache-blocked GEMM engine.
///
/// The engine owns packing buffers so repeated calls (the common case inside
/// a training loop) do not reallocate.
///
/// # Examples
///
/// ```
/// use latte_tensor::gemm::{Gemm, Transpose};
///
/// let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = vec![5.0, 6.0, 7.0, 8.0]; // 2x2
/// let mut c = vec![0.0; 4];
/// Gemm::new().compute(Transpose::No, Transpose::No, 2, 2, 2, &a, &b, &mut c);
/// assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Gemm {
    /// Whether the AVX2+FMA kernels are usable on this host.
    fma: bool,
    pack_a: Vec<f32>,
    pack_b: Vec<f32>,
}

impl Default for Gemm {
    fn default() -> Self {
        Gemm::new()
    }
}

/// `C` handed to worker closures: workers write disjoint tile regions.
#[derive(Clone, Copy)]
struct CPtr {
    ptr: *mut f32,
    len: usize,
}
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

impl CPtr {
    /// All of `C` as a slice.
    ///
    /// # Safety
    ///
    /// Nothing else may access `C` while the slice lives.
    unsafe fn whole<'a>(self) -> &'a mut [f32] {
        // SAFETY: `ptr` covers `len` elements; exclusivity is the caller's.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Gemm {
    /// Creates an engine for this host's ISA.
    pub fn new() -> Self {
        Gemm {
            fma: detect_fma(),
            pack_a: Vec::new(),
            pack_b: Vec::new(),
        }
    }

    /// Computes `C += op(A) * op(B)`.
    ///
    /// Shapes follow [`gemm_naive`], and so do the bits (any NaN for a
    /// NaN), on any host; [`Gemm::compute_parallel`] gives the same.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than its shape requires.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
    pub fn compute(
        &mut self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        check_lens(m, n, k, a, b, c);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let cp = CPtr {
            ptr: c.as_mut_ptr(),
            len: c.len(),
        };
        // SAFETY: a single part owns every output; `c` is exclusively
        // borrowed.
        unsafe { self.dispatch(ta, tb, m, n, k, a, b, cp, 0, 1) };
    }

    /// Computes `C += op(A) * op(B)` with the `(ic, jc)` macro-tile grid
    /// statically partitioned across `pool`'s workers.
    ///
    /// Every output element is produced by exactly one worker, its `k`
    /// blocks in ascending order — so the result is bit-identical to
    /// [`Gemm::compute`] for *any* pool size. A GEMM with a narrow output,
    /// under `MIN_PARALLEL_FLOPS`, or of fewer than two macro-tiles runs on
    /// the caller's engine ([`GemmPool::run_serial`]): waking the team would
    /// cost more than it shares.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than its shape requires, or if a
    /// worker panics.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
    pub fn compute_parallel(
        pool: &dyn GemmPool,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        check_lens(m, n, k, a, b, c);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let nparts = pool.threads().min(m.div_ceil(MC) * n.div_ceil(NC));
        if nparts < 2 || is_narrow(ta, n) || 2 * m * n * k < MIN_PARALLEL_FLOPS {
            pool.run_serial(&mut |eng| eng.compute(ta, tb, m, n, k, a, b, c));
            return;
        }
        let cp = CPtr {
            ptr: c.as_mut_ptr(),
            len: c.len(),
        };
        pool.run_gemm(&|tid, eng| {
            // Bind the whole CPtr (not its fields) so the closure
            // captures the Sync wrapper, not the raw pointer.
            let grid_c = cp;
            if tid < nparts {
                // SAFETY: `GemmPool`'s contract runs each `tid` once with
                // its own engine, so parts `0..nparts` are distinct; every
                // engine cuts the same `MC x NC` grid (constants), so
                // their macro-tiles (tile index mod `nparts`) are
                // disjoint. `c` stays borrowed until `run_gemm` returns.
                unsafe { eng.dispatch(ta, tb, m, n, k, a, b, grid_c, tid, nparts) };
            }
        });
    }

    /// The kernel choice, one `match` on shape class x ISA. Runs part
    /// `part` of `nparts` of the tiled grid; a narrow kernel always runs
    /// whole (`compute_parallel` never splits a narrow output).
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` must cover their shapes (`check_lens`), `c` must
    /// outlive the call, and concurrent callers must use distinct `part`
    /// values under one common `nparts > 1`, so their tile writes to `c`
    /// are disjoint. A narrow output must come with `nparts == 1`, and
    /// with `nparts == 1` nothing else may access `c`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn dispatch(
        &mut self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: CPtr,
        part: usize,
        nparts: usize,
    ) {
        debug_assert!(
            nparts == 1 || !is_narrow(ta, n),
            "a narrow output is never split"
        );
        match (is_narrow(ta, n), self.fma) {
            // Narrow-AVX: reads whole 8-lane rows of B.
            #[cfg(target_arch = "x86_64")]
            (true, true) => {
                let pb = narrow_panel(&mut self.pack_b, tb, n, k, b, n.next_multiple_of(8));
                // SAFETY: `fma` is set only when AVX2+FMA were detected;
                // `a` and `c` cover `m x k` and `m x n`, `pb` is `k` rows
                // of `n.next_multiple_of(8)`, and `c` is ours (a narrow
                // output comes with `nparts == 1`).
                unsafe { narrow_rows_avx(m, n, k, a, pb, c.whole()) };
            }
            // Narrow-portable.
            (true, _) => {
                let pb = narrow_panel(&mut self.pack_b, tb, n, k, b, n);
                // SAFETY: a narrow output comes with `nparts == 1`, so `c`
                // is ours.
                narrow_rows(m, n, k, a, pb, unsafe { c.whole() });
            }
            // Tiled-FMA.
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `fma` is set only when AVX2+FMA were detected; the
            // tile ownership is the caller's contract.
            (false, true) => unsafe {
                self.compute_tiles(ta, tb, m, n, k, a, b, c, part, nparts, kernel_mr_nr_fma)
            },
            // Tiled-portable.
            // SAFETY: the tile ownership is the caller's contract.
            (false, _) => unsafe {
                self.compute_tiles(ta, tb, m, n, k, a, b, c, part, nparts, kernel_mr_nr)
            },
        }
    }

    /// Computes the macro-tiles whose flat index `t ≡ part (mod nparts)`
    /// over the `(jc, ic)` grid with `micro`. Each tile takes its `pc`
    /// blocks in ascending order, whatever the partition: the order [`mac`]
    /// needs.
    ///
    /// # Safety
    ///
    /// Concurrent callers must use distinct `part` values under one
    /// common `nparts`, so tile writes to `c` are disjoint. `c` must cover
    /// `m * n` elements and outlive the call. `micro` must be callable on
    /// this host.
    #[allow(clippy::too_many_arguments)]
    unsafe fn compute_tiles(
        &mut self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: CPtr,
        part: usize,
        nparts: usize,
        micro: Micro,
    ) {
        debug_assert!(c.len >= m * n);
        let n_ic = m.div_ceil(MC);
        let n_jc = n.div_ceil(NC);
        // Ensure pack capacity once; panels overwrite (and re-pad) fully.
        if self.pack_a.len() < MC * KC {
            self.pack_a.resize(MC * KC, 0.0);
        }
        if self.pack_b.len() < NC * KC {
            self.pack_b.resize(NC * KC, 0.0);
        }
        for jci in 0..n_jc {
            let owns_any = (0..n_ic).any(|ici| (jci * n_ic + ici) % nparts == part);
            if !owns_any {
                continue;
            }
            let jc = jci * NC;
            let nb = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kb = KC.min(k - pc);
                pack_b_panels(tb, b, k, n, pc, kb, jc, nb, &mut self.pack_b);
                for ici in 0..n_ic {
                    if (jci * n_ic + ici) % nparts != part {
                        continue;
                    }
                    let ic = ici * MC;
                    let mb = MC.min(m - ic);
                    pack_a_panels(ta, a, m, k, ic, mb, pc, kb, &mut self.pack_a);
                    // SAFETY: this part owns the tile; `micro` is the
                    // caller's.
                    unsafe { self.macro_kernel(ic, mb, jc, nb, kb, n, c, micro) };
                }
            }
        }
    }

    /// Runs `micro` over one packed `mb x nb x kb` macro-tile. A whole
    /// micro-tile runs on `C` in place; one cut by the edge of `C` runs on
    /// a copy padded to `MR x NR`.
    ///
    /// # Safety
    ///
    /// `c` must cover rows `[ic, ic+mb)` x cols `[jc, jc+nb)` of an
    /// `? x n` matrix with no concurrent writer for that region, and
    /// `micro` must be callable on this host.
    #[allow(clippy::too_many_arguments)] // a macro-tile is six coordinates
    unsafe fn macro_kernel(
        &self,
        ic: usize,
        mb: usize,
        jc: usize,
        nb: usize,
        kb: usize,
        n: usize,
        c: CPtr,
        micro: Micro,
    ) {
        for j0 in (0..nb).step_by(NR) {
            let nrb = NR.min(nb - j0);
            let bp = &self.pack_b[(j0 / NR) * kb * NR..][..kb * NR];
            for i0 in (0..mb).step_by(MR) {
                let mrb = MR.min(mb - i0);
                let ap = &self.pack_a[(i0 / MR) * kb * MR..][..kb * MR];
                debug_assert!((ic + i0 + mrb - 1) * n + jc + j0 + nrb <= c.len);
                // SAFETY (every block below): the micro-tile's `mrb` rows
                // of `nrb` are this call's by the function contract, and
                // `micro` is callable.
                let tile = unsafe { c.ptr.add((ic + i0) * n + jc + j0) };
                if mrb == MR && nrb == NR {
                    unsafe { micro(kb, ap, bp, tile, n) };
                    continue;
                }
                let crow = |r| unsafe { std::slice::from_raw_parts_mut(tile.add(r * n), nrb) };
                let mut pad = [0.0f32; MR * NR];
                for r in 0..mrb {
                    pad[r * NR..][..nrb].copy_from_slice(crow(r));
                }
                unsafe { micro(kb, ap, bp, pad.as_mut_ptr(), NR) };
                for r in 0..mrb {
                    crow(r).copy_from_slice(&pad[r * NR..][..nrb]);
                }
            }
        }
    }
}

/// The `k x width` panel of `op(B)` a narrow kernel reads, its columns
/// past `n` zero. `b` itself when it already is one; otherwise packed
/// into `pack`: B stored `(n x k)` — per-element dot products would be
/// scalar reductions, which LLVM will not vectorize under strict FP — or
/// rows to pad, either way a small panel whose inner loop is independent
/// lanes. Rows overwrite (and re-pad) fully, so the buffer never shrinks
/// and the tiled path that shares it never re-zeroes it.
fn narrow_panel<'p>(
    pack: &'p mut Vec<f32>,
    tb: Transpose,
    n: usize,
    k: usize,
    b: &'p [f32],
    width: usize,
) -> &'p [f32] {
    if tb == Transpose::No && width == n {
        return &b[..k * n];
    }
    if pack.len() < k * width {
        pack.resize(k * width, 0.0);
    }
    for (p, row) in pack.chunks_exact_mut(width).take(k).enumerate() {
        match tb {
            Transpose::No => row[..n].copy_from_slice(&b[p * n..p * n + n]),
            Transpose::Yes => {
                for (j, v) in row[..n].iter_mut().enumerate() {
                    *v = b[j * k + p];
                }
            }
        }
        row[n..].fill(0.0);
    }
    &pack[..k * width]
}

fn is_narrow(ta: Transpose, n: usize) -> bool {
    // The narrow path reads A row-wise, so it requires untransposed A.
    ta == Transpose::No && n <= NARROW
}

/// Narrow-portable: each row of `C` takes [`mac`] over the full `k`, `p`
/// ascending. `pb` is `op(B)`, `k` rows of `n`.
fn narrow_rows(m: usize, n: usize, k: usize, a: &[f32], pb: &[f32], c: &mut [f32]) {
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)).take(m) {
        for (&av, brow) in arow.iter().zip(pb.chunks_exact(n)) {
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = mac(*cv, av, bv);
            }
        }
    }
}

/// Narrow-AVX, [`narrow_rows`] at vector width: blocks of `R` rows, each
/// row's `n` columns in `⌈n/8⌉` YMM accumulators loaded from `C`; each `k`
/// step broadcasts `A[i, p]` and `vfmadd`s the row of B into them. `R`
/// keeps about twelve accumulators live (8 rows for `n <= 8`, then 6, 4,
/// 3); the last `m mod R` rows run one at a time.
///
/// # Safety
///
/// AVX2 and FMA must be available; `a` must cover `m x k`, `c` `m x n`
/// (`1 <= n <= NARROW`) and `pb` `k` rows of `n.next_multiple_of(8)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn narrow_rows_avx(m: usize, n: usize, k: usize, a: &[f32], pb: &[f32], c: &mut [f32]) {
    debug_assert!((1..=NARROW).contains(&n));
    debug_assert!(a.len() >= m * k && c.len() >= m * n && pb.len() >= k * n.next_multiple_of(8));
    let (a, pb, c) = (a.as_ptr(), pb.as_ptr(), c.as_mut_ptr());
    // SAFETY (all four arms): the caller's contract, with `V = ⌈n/8⌉`.
    unsafe {
        match n.div_ceil(8) {
            1 => narrow_blocks_avx::<8, 1>(m, n, k, a, pb, c),
            2 => narrow_blocks_avx::<6, 2>(m, n, k, a, pb, c),
            3 => narrow_blocks_avx::<4, 3>(m, n, k, a, pb, c),
            _ => narrow_blocks_avx::<3, 4>(m, n, k, a, pb, c),
        }
    }
}

/// [`narrow_rows_avx`] for `V = ⌈n/8⌉` vectors a row, `R` rows a block.
///
/// # Safety
///
/// As [`narrow_rows_avx`], through raw pointers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn narrow_blocks_avx<const R: usize, const V: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: *const f32,
    pb: *const f32,
    c: *mut f32,
) {
    use std::arch::x86_64::*;
    // The last vector of a row holds `n - 8(V-1)` columns of C; its other
    // lanes are neither loaded nor stored (their B lanes are padding).
    let tail = n - 8 * (V - 1);
    let lanes: [i32; 8] = std::array::from_fn(|j| if j < tail { -1 } else { 0 });
    // SAFETY: `lanes` is 32 readable bytes.
    let mask = unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) };
    let mut i = 0;
    while i < m {
        // SAFETY: rows `i..i + R` (or `i`) are below `m`; the rest is the
        // caller's contract.
        unsafe {
            if i + R <= m {
                narrow_block_avx::<R, V>(i, n, k, a, pb, c, mask);
                i += R;
            } else {
                narrow_block_avx::<1, V>(i, n, k, a, pb, c, mask);
                i += 1;
            }
        }
    }
}

/// Rows `i0..i0 + R` of [`narrow_rows_avx`].
///
/// # Safety
///
/// As [`narrow_rows_avx`], with `i0 + R <= m` and `mask` selecting the
/// first `n - 8(V-1)` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn narrow_block_avx<const R: usize, const V: usize>(
    i0: usize,
    n: usize,
    k: usize,
    a: *const f32,
    pb: *const f32,
    c: *mut f32,
    mask: std::arch::x86_64::__m256i,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    // SAFETY (every access below): row `i0 + r < m` of C spans
    // `[(i0 + r)n, (i0 + r)n + n)`, its last vector masked to the lanes
    // inside it; row `i0 + r` of A has `k` elements; B's row `p < k` has
    // `8V` padded elements.
    unsafe {
        for (r, row) in acc.iter_mut().enumerate() {
            let crow = c.add((i0 + r) * n);
            for (v, cv) in row.iter_mut().enumerate() {
                *cv = if v + 1 < V {
                    _mm256_loadu_ps(crow.add(8 * v))
                } else {
                    _mm256_maskload_ps(crow.add(8 * v), mask)
                };
            }
        }
        for p in 0..k {
            let brow = pb.add(p * 8 * V);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add((i0 + r) * k + p));
                for (v, cv) in row.iter_mut().enumerate() {
                    *cv = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow.add(8 * v)), *cv);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let crow = c.add((i0 + r) * n);
            for (v, &cv) in row.iter().enumerate() {
                if v + 1 < V {
                    _mm256_storeu_ps(crow.add(8 * v), cv);
                } else {
                    _mm256_maskstore_ps(crow.add(8 * v), mask, cv);
                }
            }
        }
    }
}

/// Packs `op(A)`'s `mb x kb` block (rows `ic..`, k `pc..`) into
/// zero-padded `MR`-row micro-panels: element `(panel, p, r)` lands at
/// `panel * kb * MR + p * MR + r`.
#[allow(clippy::too_many_arguments)]
fn pack_a_panels(
    ta: Transpose,
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mb: usize,
    pc: usize,
    kb: usize,
    dst: &mut [f32],
) {
    let panels = mb.div_ceil(MR);
    for pi in 0..panels {
        let rows = MR.min(mb - pi * MR);
        let base = pi * kb * MR;
        for p in 0..kb {
            let off = base + p * MR;
            let pp = pc + p;
            for r in 0..MR {
                dst[off + r] = if r < rows {
                    let i = ic + pi * MR + r;
                    match ta {
                        Transpose::No => a[i * k + pp],
                        Transpose::Yes => a[pp * m + i],
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `op(B)`'s `kb x nb` block (k `pc..`, cols `jc..`) into
/// zero-padded `NR`-column micro-panels: element `(panel, p, c)` lands at
/// `panel * kb * NR + p * NR + c`.
#[allow(clippy::too_many_arguments)]
fn pack_b_panels(
    tb: Transpose,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kb: usize,
    jc: usize,
    nb: usize,
    dst: &mut [f32],
) {
    let panels = nb.div_ceil(NR);
    for pj in 0..panels {
        let cols = NR.min(nb - pj * NR);
        let j0 = jc + pj * NR;
        let base = pj * kb * NR;
        for p in 0..kb {
            let off = base + p * NR;
            let pp = pc + p;
            match tb {
                Transpose::No => {
                    dst[off..off + cols].copy_from_slice(&b[pp * n + j0..pp * n + j0 + cols]);
                }
                Transpose::Yes => {
                    for c in 0..cols {
                        dst[off + c] = b[(j0 + c) * k + pp];
                    }
                }
            }
            for c in cols..NR {
                dst[off + c] = 0.0;
            }
        }
    }
}

/// A tiled micro-kernel: `kb` steps of [`mac`] over packed panels into
/// the `MR x NR` tile of `C` at `c`, its rows `ldc` apart.
///
/// # Safety
///
/// `ap` / `bp` hold `kb` steps of `MR` / `NR`; `c` covers `MR` rows of `NR`
/// floats `ldc` apart, which nothing else accesses; the target features
/// the kernel is compiled for are available.
type Micro = unsafe fn(kb: usize, ap: &[f32], bp: &[f32], c: *mut f32, ldc: usize);

/// Tiled-portable's micro-kernel: [`mac`], a row of `C` at a time.
///
/// # Safety
///
/// As [`Micro`].
unsafe fn kernel_mr_nr(kb: usize, ap: &[f32], bp: &[f32], c: *mut f32, ldc: usize) {
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR);
    for r in 0..MR {
        // SAFETY: row `r` of the tile, per the contract.
        let row = unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), NR) };
        for (a4, b16) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kb) {
            for (cv, bv) in row.iter_mut().zip(b16) {
                *cv = mac(*cv, a4[r], *bv);
            }
        }
    }
}

/// Tiled-FMA's micro-kernel ([`Micro`]): 8 YMM accumulators (4 rows x
/// 16 lanes) loaded from `C`, two B loads and four A broadcasts per k
/// step, all arithmetic via `vfmadd`, stored back to `C`.
///
/// # Safety
///
/// As [`Micro`], with AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_mr_nr_fma(kb: usize, ap: &[f32], bp: &[f32], c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR);
    let (c0, c1, c2, c3) = (c, c.add(ldc), c.add(2 * ldc), c.add(3 * ldc));
    let mut c00 = _mm256_loadu_ps(c0);
    let mut c01 = _mm256_loadu_ps(c0.add(8));
    let mut c10 = _mm256_loadu_ps(c1);
    let mut c11 = _mm256_loadu_ps(c1.add(8));
    let mut c20 = _mm256_loadu_ps(c2);
    let mut c21 = _mm256_loadu_ps(c2.add(8));
    let mut c30 = _mm256_loadu_ps(c3);
    let mut c31 = _mm256_loadu_ps(c3.add(8));
    let mut pa = ap.as_ptr();
    let mut pb = bp.as_ptr();
    for _ in 0..kb {
        let b0 = _mm256_loadu_ps(pb);
        let b1 = _mm256_loadu_ps(pb.add(8));
        let a0 = _mm256_set1_ps(*pa);
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        let a1 = _mm256_set1_ps(*pa.add(1));
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        let a2 = _mm256_set1_ps(*pa.add(2));
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        let a3 = _mm256_set1_ps(*pa.add(3));
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
        pa = pa.add(MR);
        pb = pb.add(NR);
    }
    _mm256_storeu_ps(c0, c00);
    _mm256_storeu_ps(c0.add(8), c01);
    _mm256_storeu_ps(c1, c10);
    _mm256_storeu_ps(c1.add(8), c11);
    _mm256_storeu_ps(c2, c20);
    _mm256_storeu_ps(c2.add(8), c21);
    _mm256_storeu_ps(c3, c30);
    _mm256_storeu_ps(c3.add(8), c31);
}

/// Panics unless `a`, `b` and `c` cover `m x k`, `k x n` and `m x n`
/// (a transpose moves elements, not their count).
fn check_lens(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) {
    let (a_len, b_len, c_len) = (a.len(), b.len(), c.len());
    assert!(a_len >= m * k, "A has {a_len} elements, needs {}", m * k);
    assert!(b_len >= k * n, "B has {b_len} elements, needs {}", k * n);
    assert!(c_len >= m * n, "C has {c_len} elements, needs {}", m * n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, n: usize, seed: u32) -> Vec<f32> {
        (0..m * n)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 17) as f32 - 8.0)
            .collect()
    }

    fn check_matches_naive(ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize) {
        let a = dense(
            match ta {
                Transpose::No => m,
                Transpose::Yes => k,
            },
            match ta {
                Transpose::No => k,
                Transpose::Yes => m,
            },
            1,
        );
        let b = dense(
            match tb {
                Transpose::No => k,
                Transpose::Yes => n,
            },
            match tb {
                Transpose::No => n,
                Transpose::Yes => k,
            },
            2,
        );
        let mut c_ref = dense(m, n, 3);
        let mut c_blk = c_ref.clone();
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c_ref);
        Gemm::new().compute(ta, tb, m, n, k, &a, &b, &mut c_blk);
        assert_same_bits(&c_blk, &c_ref, &format!("{ta:?}/{tb:?} {m}x{n}x{k}"));
    }

    /// ±0, ±∞ and NaNs — quiet, negative, and carrying a payload — so
    /// that non-finite propagation is compared as well as rounding.
    const SPECIALS: [f32; 7] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xffc0_0000),
        f32::from_bits(0x7fc0_1234),
    ];

    /// Finite values with fractional parts (so every addition rounds),
    /// and one in 16, 128 or 1 024 (by seed) drawn from [`SPECIALS`]:
    /// dense enough that NaNs of two payloads meet in one accumulator,
    /// sparse enough that a sum of a few hundred products usually stays
    /// finite.
    fn fill(len: usize, seed: u32, salt: u32) -> Vec<f32> {
        let every = 16 << (3 * (seed % 3));
        (0..len)
            .map(|i| {
                let h = (i as u32 ^ seed.rotate_left(7))
                    .wrapping_mul(2654435761)
                    .wrapping_add(salt.wrapping_mul(40503));
                if (h >> 4).is_multiple_of(every) {
                    SPECIALS[(h >> 20) as usize % SPECIALS.len()]
                } else {
                    (((h >> 9) % 4001) as f32 - 2000.0) / 173.0
                }
            })
            .collect()
    }

    /// `to_bits()` equality, except that any NaN matches any NaN: the
    /// payload of a NaN made from two NaNs is whichever operand the
    /// compiler put first (DESIGN.md §10.1).
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g} ({:#010x}), want {w} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `(ta, tb, m, n, k)` of the narrow class: every `n` against every
    /// `m` up to 25 (every split of the rows into full blocks and a tail,
    /// for every number of 8-lane vectors a row takes) at a short and an
    /// odd `k`, then a grid of rows and widths at `k` around and past 256.
    fn narrow_cases() -> Vec<(Transpose, Transpose, usize, usize, usize)> {
        let mut cases = Vec::new();
        for tb in [Transpose::No, Transpose::Yes] {
            for n in 1..=NARROW {
                for m in 0..=25 {
                    for k in [1, 27] {
                        cases.push((Transpose::No, tb, m, n, k));
                    }
                }
            }
            for n in [1, 5, 8, 9, 17, 24, 32] {
                for m in [1, 7, 13, 25] {
                    for k in [255, 256, 257, 300] {
                        cases.push((Transpose::No, tb, m, n, k));
                    }
                }
            }
        }
        cases
    }

    /// `(ta, tb, m, n, k)` of the tiled class, every transpose pair: row
    /// and column tails of the `MR x NR` micro-tile, more than one `MC`
    /// row block and `NC` column block, and `k` on both sides of one and
    /// two `KC` blocks (so a tile carries on from `C` across blocks).
    fn tiled_cases() -> Vec<(Transpose, Transpose, usize, usize, usize)> {
        let t = [Transpose::No, Transpose::Yes];
        let mut cases = Vec::new();
        for ta in t {
            for tb in t {
                let mut shapes = vec![(1, 33), (5, 47), (4, 64), (13, 37), (67, 35), (3, 529)];
                if ta == Transpose::Yes {
                    shapes.extend([(1, 1), (13, 5), (9, 16)]);
                }
                for (m, n) in shapes {
                    for k in [1, 2, 9, 255, 256, 257, 511, 512, 513, 600] {
                        cases.push((ta, tb, m, n, k));
                    }
                }
            }
        }
        cases
    }

    /// The bit oracle of every kernel: each of the dispatch's four arms
    /// (shape class x ISA) against [`gemm_naive`], `to_bits()`, over its
    /// class's shapes and transposes with ±0, ±∞ and NaN inputs. The
    /// narrow kernels are also held row by row: a row's bits do not
    /// depend on which rows share its call. A kernel this host cannot run
    /// is skipped by name.
    #[test]
    fn every_kernel_matches_the_naive_loop_bit_for_bit() {
        // (name, narrow shape class, AVX2+FMA ISA)
        let kernels = [
            ("narrow-AVX", true, true),
            ("narrow-portable", true, false),
            ("tiled-FMA", false, true),
            ("tiled-portable", false, false),
        ];
        for (name, narrow, fma) in kernels {
            if fma && !detect_fma() {
                println!("GEMM sweep: {name} skipped: this host has no AVX2+FMA");
                continue;
            }
            let mut gemm = Gemm { fma, ..Gemm::new() };
            let cases = if narrow {
                narrow_cases()
            } else {
                tiled_cases()
            };
            for (seed, &(ta, tb, m, n, k)) in cases.iter().enumerate() {
                let what = format!("{name} {ta:?}/{tb:?} {m}x{n}x{k} seed {seed}");
                assert_eq!(
                    is_narrow(ta, n),
                    narrow,
                    "{what} is in the other shape class"
                );
                let seed = seed as u32;
                let (a, b) = (fill(m * k, seed, 1), fill(k * n, seed, 2));
                let mut want = fill(m * n, seed, 3);
                let mut got = want.clone();
                gemm_naive(ta, tb, m, n, k, &a, &b, &mut want);
                gemm.compute(ta, tb, m, n, k, &a, &b, &mut got);
                assert_same_bits(&got, &want, &what);
                if narrow {
                    let mut alone = fill(m * n, seed, 3);
                    for i in 0..m {
                        gemm.compute(ta, tb, 1, n, k, &a[i * k..], &b, &mut alone[i * n..]);
                    }
                    assert_same_bits(&alone, &got, &format!("{what}, a row at a time"));
                }
            }
            println!(
                "GEMM sweep: {name}: {} shapes bit-identical to gemm_naive",
                cases.len()
            );
        }
    }

    #[test]
    fn blocked_matches_naive_nn() {
        check_matches_naive(Transpose::No, Transpose::No, 13, 17, 9);
    }

    #[test]
    fn blocked_matches_naive_tn() {
        check_matches_naive(Transpose::Yes, Transpose::No, 13, 17, 9);
    }

    #[test]
    fn blocked_matches_naive_nt() {
        check_matches_naive(Transpose::No, Transpose::Yes, 13, 17, 9);
    }

    #[test]
    fn blocked_matches_naive_tt() {
        check_matches_naive(Transpose::Yes, Transpose::Yes, 13, 17, 9);
    }

    #[test]
    fn blocked_matches_naive_wide_output() {
        // Wide enough (> NARROW) to exercise the tiled path with edge
        // tiles in every dimension.
        check_matches_naive(Transpose::No, Transpose::No, 13, 37, 9);
        check_matches_naive(Transpose::Yes, Transpose::No, 13, 37, 9);
        check_matches_naive(Transpose::No, Transpose::Yes, 13, 37, 9);
        check_matches_naive(Transpose::Yes, Transpose::Yes, 13, 37, 9);
    }

    #[test]
    fn accumulates_into_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 0.0, 0.0, 2.0];
        let mut c = vec![1.0; 4];
        Gemm::new().compute(Transpose::No, Transpose::No, 2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn compute_validates_lengths() {
        let a = vec![0.0; 3];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        Gemm::new().compute(Transpose::No, Transpose::No, 2, 2, 2, &a, &b, &mut c);
    }

    /// The row loop the narrow kernel replaces, written out unfused:
    /// `c += a * b`, product and sum each rounded, as the compiler
    /// vectorises it without FMA, over `op(B)` (`b` is `n x k`) packed
    /// per call as the kernels pack it.
    fn unfused_rows(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        pb: &mut Vec<f32>,
        c: &mut [f32],
    ) {
        pb.clear();
        pb.extend((0..k).flat_map(|p| (0..n).map(move |j| b[j * k + p])));
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)).take(m) {
            for (&av, brow) in arow.iter().zip(pb.chunks_exact(n)) {
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// The release-mode gate `scripts/check.sh` and CI run: the narrow
    /// path at vector width against the hand-written unfused row loop it
    /// replaces ([`unfused_rows`]: the portable kernel calls [`mac`],
    /// which without the `fma` target feature is a libm call, so it bounds
    /// nothing), on a VGG conv2_1 and a LeNet conv1 forward shape. Both
    /// are timed in this process in alternating rounds and keep their
    /// best, so a burst of noise on the host costs both sides or neither.
    /// The vector kernel's bits are held to [`gemm_naive`] on the same
    /// shapes.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ratios: run with --release")]
    fn narrow_kernel_beats_the_portable_loop() {
        let mut vector = Gemm::new();
        if !vector.fma {
            println!("narrow GEMM gate skipped: no AVX2+FMA on this host, the portable loop is the only path");
            return;
        }
        for (m, n, k, floor) in [(128, 32, 144, 1.8), (112, 5, 25, 3.0)] {
            let (a, b) = (dense(m, k, 1), dense(n, k, 2));
            let mut cs = [dense(m, n, 3), dense(m, n, 3)];
            let mut pb = Vec::new();
            let calls = (4_000_000 / (m * n * k)).max(1);
            let per_call = |c: &mut [f32], call: &mut dyn FnMut(&mut [f32])| {
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    call(std::hint::black_box(&mut *c));
                }
                t0.elapsed().as_secs_f64() / calls as f64
            };
            let (mut fast, mut slow) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..25 {
                let [cv, cu] = &mut cs;
                fast = fast.min(per_call(cv, &mut |c| {
                    vector.compute(Transpose::No, Transpose::Yes, m, n, k, &a, &b, c)
                }));
                slow = slow.min(per_call(cu, &mut |c| {
                    unfused_rows(m, n, k, &a, &b, &mut pb, c)
                }));
            }
            let (fa, fb) = (fill(m * k, 1, 1), fill(n * k, 2, 2));
            let (mut got, mut want) = (fill(m * n, 3, 3), fill(m * n, 3, 3));
            vector.compute(Transpose::No, Transpose::Yes, m, n, k, &fa, &fb, &mut got);
            gemm_naive(Transpose::No, Transpose::Yes, m, n, k, &fa, &fb, &mut want);
            assert_same_bits(&got, &want, &format!("narrow NT {m}x{n}x{k} vs gemm_naive"));
            println!(
                "narrow NT {m}x{n}x{k}: vector {:.1} us, unfused loop {:.1} us, ratio {:.2}x (>= {floor} required)",
                fast * 1e6,
                slow * 1e6,
                slow / fast
            );
            assert!(
                slow / fast >= floor,
                "NT {m}x{n}x{k}: the vector kernel is only {:.2}x the unfused loop",
                slow / fast
            );
        }
    }

    /// Sequential [`GemmPool`]: runs every part one after another on the
    /// caller thread. Partition correctness does not depend on real
    /// concurrency, so this validates tile ownership cheaply.
    struct SeqPool {
        parts: usize,
        engines: std::cell::RefCell<Vec<Gemm>>,
    }

    impl SeqPool {
        fn new(parts: usize) -> Self {
            SeqPool {
                parts,
                engines: std::cell::RefCell::new((0..parts).map(|_| Gemm::new()).collect()),
            }
        }
    }

    // SAFETY: `run_gemm` calls the job once for each `tid` in
    // `0..parts`, one after another, each with its own engine.
    unsafe impl GemmPool for SeqPool {
        fn threads(&self) -> usize {
            self.parts
        }
        fn run_gemm(&self, job: &(dyn Fn(usize, &mut Gemm) + Sync)) {
            let mut engines = self.engines.borrow_mut();
            for (tid, eng) in engines.iter_mut().enumerate() {
                job(tid, eng);
            }
        }
        fn run_serial(&self, job: &mut dyn FnMut(&mut Gemm)) {
            job(&mut self.engines.borrow_mut()[0]);
        }
    }

    #[test]
    fn parallel_bit_identical_to_serial_across_part_counts() {
        let (m, n, k) = (67, 129, 53);
        let a = dense(m, k, 7);
        let b = dense(k, n, 8);
        let mut c_serial = dense(m, n, 9);
        let mut serial = Gemm::new();
        serial.compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c_serial);
        for parts in [1usize, 2, 3, 4, 8] {
            let mut c_par = dense(m, n, 9);
            let pool = SeqPool::new(parts);
            Gemm::compute_parallel(
                &pool,
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                &a,
                &b,
                &mut c_par,
            );
            for (i, (x, y)) in c_serial.iter().zip(&c_par).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "parts={parts} elem {i}: {x} vs {y}"
                );
            }
        }
    }
}
