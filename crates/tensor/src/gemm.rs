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
//! Three entry points are provided:
//!
//! * [`gemm_naive`] — textbook triple loop, the correctness oracle.
//! * [`Gemm::compute`] — the library kernel, with two paths:
//!   - outputs at most 32 wide with `A` untransposed — every forward
//!     convolution of the `(y, x, c)` layout, whose `n` is its channel
//!     count — run row by row, each row's `C` held in registers over the
//!     whole `k` against a small `k x n` panel of B. On x86-64 with
//!     AVX2+FMA detected the rows run at vector width, a block of rows at
//!     a time, with a separate multiply and add; elsewhere a portable
//!     loop runs. Both round each product and each sum in `k` order
//!     from `C`, so they agree bit for bit (NaN payloads aside: which of
//!     two NaN operands an addition keeps is the compiler's choice);
//!   - everything else follows the Goto/BLIS decomposition: operands are
//!     packed into zero-padded micro-panels (`MR`-row A panels,
//!     `NR`-column B panels), then an explicit register-blocked
//!     `MR x NR` micro-kernel accumulates each output tile in registers
//!     over the whole `kc` block. With AVX2+FMA the micro-kernel runs a
//!     `target_feature` copy emitting vector FMAs; elsewhere an
//!     auto-vectorized fallback runs.
//! * [`Gemm::compute_parallel`] — the same tile decomposition with the
//!   `(ic, jc)` macro-tile grid statically partitioned across a worker
//!   pool ([`GemmPool`]). Every output element is produced by exactly one
//!   worker with a k-order independent of the partition, so results are
//!   **bit-identical** for any worker count (including the serial
//!   [`Gemm::compute`] with the same block sizes).
//!
//! Block sizes are configurable so the ablation benchmark can sweep them.

/// Rows of the register-blocked micro-kernel (A micro-panel height).
pub const MR: usize = 4;
/// Columns of the register-blocked micro-kernel (B micro-panel width).
pub const NR: usize = 16;

/// Below this many multiply-adds a GEMM is not worth fanning out; the
/// parallel entry runs it on one worker instead.
const MIN_PARALLEL_FLOPS: usize = 2 * 64 * 64 * 64;

/// Outputs at most this narrow (with `A` untransposed) take the
/// register-row path instead of the tiled kernel: at vector width a row
/// of `C` is at most four YMM accumulators.
const NARROW: usize = 32;

/// A rejected `(kc, nc, mc)` blocking: why [`Gemm::with_blocking`]
/// refused to build an engine.
///
/// The block-size ablation bench and the property tests sweep blockings
/// through the public constructor; a blocking that is zero or breaks the
/// micro-panel alignment would silently waste most of each packed panel
/// on zero padding (`mc % MR`, `nc % NR`), so it is rejected with a
/// structured error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingError {
    /// A block size was zero.
    ZeroBlock {
        /// Which block (`"kc"`, `"nc"`, or `"mc"`).
        dim: &'static str,
    },
    /// `mc` is not a multiple of the [`MR`]-row A micro-panel.
    UnalignedRows {
        /// The rejected row-block size.
        mc: usize,
    },
    /// `nc` is not a multiple of the [`NR`]-column B micro-panel.
    UnalignedCols {
        /// The rejected column-block size.
        nc: usize,
    },
}

impl std::fmt::Display for BlockingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockingError::ZeroBlock { dim } => write!(f, "block size {dim} must be non-zero"),
            BlockingError::UnalignedRows { mc } => {
                write!(f, "mc = {mc} is not a multiple of the MR = {MR} micro-panel rows")
            }
            BlockingError::UnalignedCols { nc } => {
                write!(f, "nc = {nc} is not a multiple of the NR = {NR} micro-panel columns")
            }
        }
    }
}

impl std::error::Error for BlockingError {}

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

/// Reference GEMM: `C += op(A) * op(B)` via the textbook triple loop.
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
    check_lens(ta, tb, m, n, k, a.len(), b.len(), c.len());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = match ta {
                    Transpose::No => a[i * k + p],
                    Transpose::Yes => a[p * m + i],
                };
                let bv = match tb {
                    Transpose::No => b[p * n + j],
                    Transpose::Yes => b[j * k + p],
                };
                acc += av * bv;
            }
            c[i * n + j] += acc;
        }
    }
}

/// A worker pool the parallel GEMM entry can fan tiles out over.
///
/// `latte-runtime`'s persistent pool implements this; tests may implement
/// it with scoped threads or even sequentially (the partitioning is
/// correct for any execution order).
///
/// # Contract
///
/// * `run_gemm(job)` must invoke `job(tid, engine)` exactly once for every
///   `tid` in `0..threads()`, each invocation with exclusive access to its
///   own engine, and return only after all invocations complete.
/// * All engines must share identical `(kc, nc, mc)` block sizes — the static
///   tile partition is computed independently by every worker and is only
///   consistent when the tile grids agree.
pub trait GemmPool {
    /// Number of workers `run_gemm` drives.
    fn threads(&self) -> usize;
    /// Runs `job(tid, engine)` on every worker and waits for completion.
    fn run_gemm(&self, job: &(dyn Fn(usize, &mut Gemm) + Sync));
}

/// Cache-blocked GEMM engine with configurable block sizes.
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
    kc: usize,
    nc: usize,
    mc: usize,
    /// Whether the AVX2+FMA micro-kernel is usable on this host.
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

impl Gemm {
    /// Creates an engine with block sizes tuned for typical L1/L2 caches.
    pub fn new() -> Self {
        Gemm::with_blocking(256, 512, 64).expect("default blocking is valid")
    }

    /// Creates an engine with explicit `(kc, nc, mc)` block sizes.
    ///
    /// `kc` is the reduction-dimension block, `nc` the column block held in
    /// cache, `mc` the row block. `mc` must be a multiple of [`MR`] and
    /// `nc` a multiple of [`NR`] — the packed panels are micro-panel
    /// grids, and an unaligned block would spend the tail panel of every
    /// macro-tile on zero padding. Exposed so the block-size ablation
    /// bench and the property tests can sweep the design space.
    ///
    /// # Errors
    ///
    /// Returns a [`BlockingError`] for zero block sizes or `mc`/`nc`
    /// violating the `MR`/`NR` panel alignment.
    pub fn with_blocking(kc: usize, nc: usize, mc: usize) -> Result<Self, BlockingError> {
        for (dim, v) in [("kc", kc), ("nc", nc), ("mc", mc)] {
            if v == 0 {
                return Err(BlockingError::ZeroBlock { dim });
            }
        }
        if !mc.is_multiple_of(MR) {
            return Err(BlockingError::UnalignedRows { mc });
        }
        if !nc.is_multiple_of(NR) {
            return Err(BlockingError::UnalignedCols { nc });
        }
        Ok(Gemm {
            kc,
            nc,
            mc,
            fma: detect_fma(),
            pack_a: Vec::new(),
            pack_b: Vec::new(),
        })
    }

    /// Computes `C += op(A) * op(B)`.
    ///
    /// Shapes follow [`gemm_naive`]. Results are identical to the reference
    /// up to floating-point reassociation of the `k` reduction, and
    /// bit-identical to [`Gemm::compute_parallel`] with the same block
    /// sizes on the same host.
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
        check_lens(ta, tb, m, n, k, a.len(), b.len(), c.len());
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if self.narrow_fast_path(ta, tb, m, n, k, a, b, c) {
            return;
        }
        let cp = CPtr { ptr: c.as_mut_ptr(), len: c.len() };
        // SAFETY: a single part owns every tile; `c` is exclusively
        // borrowed.
        unsafe { self.compute_tiles(ta, tb, m, n, k, a, b, cp, 0, 1) };
    }

    /// Computes `C += op(A) * op(B)` with the `(ic, jc)` macro-tile grid
    /// statically partitioned across `pool`'s workers.
    ///
    /// Every output element is produced by exactly one worker, with the
    /// reduction over `k` blocked identically regardless of the worker
    /// count — so the result is bit-identical to [`Gemm::compute`] with
    /// the same blocking, for *any* pool size. Small or narrow problems
    /// run on worker 0 only (fan-out overhead would dominate).
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
        check_lens(ta, tb, m, n, k, a.len(), b.len(), c.len());
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let cp = CPtr { ptr: c.as_mut_ptr(), len: c.len() };
        // Serial cases: narrow outputs (register-row path), problems too
        // small to amortize a fan-out, or a single-worker pool.
        let serial = pool.threads() <= 1
            || is_narrow(ta, n)
            || 2 * m * n * k < MIN_PARALLEL_FLOPS;
        if serial {
            pool.run_gemm(&|tid, eng| {
                // Bind the whole CPtr (not its fields) so the closure
                // captures the Sync wrapper, not the raw pointer.
                let out_c = cp;
                if tid == 0 {
                    // SAFETY: only worker 0 touches `c`, which the caller
                    // exclusively borrows for the duration of run_gemm.
                    let cs = unsafe { std::slice::from_raw_parts_mut(out_c.ptr, out_c.len) };
                    eng.compute(ta, tb, m, n, k, a, b, cs);
                }
            });
            return;
        }
        let nt = pool.threads();
        pool.run_gemm(&|tid, eng| {
            // As above: move the Sync wrapper into the closure whole.
            let grid_c = cp;
            let n_tiles = m.div_ceil(eng.mc) * n.div_ceil(eng.nc);
            let nparts = nt.min(n_tiles);
            if tid < nparts {
                // SAFETY: parts write disjoint macro-tiles of `c` (tile
                // index mod nparts), and all engines share one blocking
                // per the GemmPool contract.
                unsafe { eng.compute_tiles(ta, tb, m, n, k, a, b, grid_c, tid, nparts) };
            }
        });
    }

    /// Narrow-output fast path: with `n` small the tiled kernel is mostly
    /// pack/pad overhead, so accumulate each output row in registers over
    /// the full `k` instead (the B panel fits in L1). Returns `false` when
    /// the shape does not qualify.
    ///
    /// Every output element is computed the same way on every host:
    /// start from `C`, then for `p` ascending add `A[i, p] * B[p, j]`,
    /// rounding the product and then the sum. With AVX2+FMA detected the
    /// rows run at vector width ([`narrow_rows_avx`]); otherwise a
    /// portable loop ([`narrow_rows`]) does the same arithmetic, so the
    /// two agree bit for bit — except for the payload of a NaN made from
    /// two NaNs, which is whichever operand the compiler put first.
    #[allow(clippy::too_many_arguments)]
    fn narrow_fast_path(
        &mut self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> bool {
        if !is_narrow(ta, n) {
            return false;
        }
        // The vector kernel reads whole 8-lane rows of B.
        let width = if self.fma { n.next_multiple_of(8) } else { n };
        let pb: &[f32] = if tb == Transpose::No && width == n {
            &b[..k * n]
        } else {
            // B stored (n x k) — per-element dot products would be scalar
            // reductions, which LLVM will not vectorize under strict FP —
            // or rows to pad: either way a small (k x width) panel whose
            // inner loop is independent lanes. Rows overwrite (and re-pad)
            // fully, so the buffer never shrinks and the tiled path that
            // shares it never re-zeroes it.
            if self.pack_b.len() < k * width {
                self.pack_b.resize(k * width, 0.0);
            }
            for (p, row) in self.pack_b.chunks_exact_mut(width).take(k).enumerate() {
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
            &self.pack_b[..k * width]
        };
        #[cfg(target_arch = "x86_64")]
        if self.fma {
            // SAFETY: `fma` is set only when AVX2+FMA (so AVX) were
            // detected at engine construction; `check_lens` proved `a` and
            // `c` cover `m x k` and `m x n`, and `pb` is `k` rows of
            // `n.next_multiple_of(8)`.
            unsafe { narrow_rows_avx(m, n, k, a, pb, c) };
            return true;
        }
        narrow_rows(m, n, k, a, pb, width, c);
        true
    }

    /// Computes the macro-tiles whose flat index `t ≡ part (mod nparts)`
    /// over the `(jc, ic)` grid, looping `pc` blocks innermost per column
    /// so each tile's k-reduction order is partition-invariant.
    ///
    /// # Safety
    ///
    /// Concurrent callers must use distinct `part` values under one
    /// common `nparts` and identical blocking, so tile writes to `c` are
    /// disjoint. `c` must cover `m * n` elements and outlive the call.
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
    ) {
        debug_assert!(c.len >= m * n);
        let (kc, nc, mc) = (self.kc, self.nc, self.mc);
        let n_ic = m.div_ceil(mc);
        let n_jc = n.div_ceil(nc);
        // Ensure pack capacity once; panels overwrite (and re-pad) fully.
        let cap_a = mc.div_ceil(MR) * MR * kc;
        let cap_b = nc.div_ceil(NR) * NR * kc;
        if self.pack_a.len() < cap_a {
            self.pack_a.resize(cap_a, 0.0);
        }
        if self.pack_b.len() < cap_b {
            self.pack_b.resize(cap_b, 0.0);
        }
        for jci in 0..n_jc {
            let owns_any = (0..n_ic).any(|ici| (jci * n_ic + ici) % nparts == part);
            if !owns_any {
                continue;
            }
            let jc = jci * nc;
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                pack_b_panels(tb, b, k, n, pc, kb, jc, nb, &mut self.pack_b);
                for ici in 0..n_ic {
                    if (jci * n_ic + ici) % nparts != part {
                        continue;
                    }
                    let ic = ici * mc;
                    let mb = mc.min(m - ic);
                    pack_a_panels(ta, a, m, k, ic, mb, pc, kb, &mut self.pack_a);
                    self.macro_kernel(ic, mb, jc, nb, kb, n, c);
                }
            }
        }
    }

    /// Runs the register-blocked micro-kernel over one packed
    /// `mb x nb x kb` macro-tile and accumulates into `C`.
    ///
    /// # Safety
    ///
    /// `c` must cover rows `[ic, ic+mb)` x cols `[jc, jc+nb)` of an
    /// `? x n` matrix with no concurrent writer for that region.
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
    ) {
        for j0 in (0..nb).step_by(NR) {
            let nrb = NR.min(nb - j0);
            let bp = &self.pack_b[(j0 / NR) * kb * NR..][..kb * NR];
            for i0 in (0..mb).step_by(MR) {
                let mrb = MR.min(mb - i0);
                let ap = &self.pack_a[(i0 / MR) * kb * MR..][..kb * MR];
                let mut acc = [0.0f32; MR * NR];
                #[cfg(target_arch = "x86_64")]
                if self.fma {
                    // SAFETY: `fma` is set only when AVX2+FMA were
                    // detected at engine construction.
                    unsafe { kernel_mr_nr_fma(kb, ap, bp, &mut acc) };
                } else {
                    kernel_mr_nr(kb, ap, bp, &mut acc);
                }
                #[cfg(not(target_arch = "x86_64"))]
                kernel_mr_nr(kb, ap, bp, &mut acc);
                // Write back the valid region of the tile.
                for r in 0..mrb {
                    let row = ic + i0 + r;
                    let start = row * n + jc + j0;
                    debug_assert!(start + nrb <= c.len);
                    // SAFETY: region ownership per the function contract.
                    let crow =
                        unsafe { std::slice::from_raw_parts_mut(c.ptr.add(start), nrb) };
                    for (cv, av) in crow.iter_mut().zip(&acc[r * NR..r * NR + nrb]) {
                        *cv += av;
                    }
                }
            }
        }
    }
}

/// `true` when AVX2 and FMA are available at runtime (x86-64 only).
fn detect_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn is_narrow(ta: Transpose, n: usize) -> bool {
    // The narrow path reads A row-wise, so it requires untransposed A.
    ta == Transpose::No && n <= NARROW
}

/// Portable narrow kernel: each row of `C` accumulates in a stack array
/// over the full `k`, `p` ascending. `pb` is `k` rows of `width >= n`
/// columns, of which the first `n` are `op(B)`'s.
fn narrow_rows(m: usize, n: usize, k: usize, a: &[f32], pb: &[f32], width: usize, c: &mut [f32]) {
    let mut acc = [0.0f32; NARROW];
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        let crow = &mut c[i * n..i * n + n];
        acc[..n].copy_from_slice(crow);
        for (p, &av) in arow.iter().enumerate() {
            let brow = &pb[p * width..p * width + n];
            for (ac, bv) in acc[..n].iter_mut().zip(brow) {
                *ac += av * bv;
            }
        }
        crow.copy_from_slice(&acc[..n]);
    }
}

/// AVX copy of [`narrow_rows`]: blocks of `R` rows, each row's `n`
/// columns held in `⌈n/8⌉` YMM accumulators loaded from `C`, and every
/// `k` step a broadcast of `A[i, p]`, a `vmulps` by the row of B and a
/// `vaddps` into the accumulator — the portable loop's two roundings in
/// its order. No FMA: fusing the pair would round once and change bits.
/// `R` keeps about twelve accumulators live (8 rows for `n <= 8`, then
/// 6, 4, 3); the last `m mod R` rows run one at a time.
///
/// # Safety
///
/// AVX must be available; `a` must cover `m x k` and `c` `m x n`, with
/// `1 <= n <= NARROW`; `pb` must be `k` rows of `n.next_multiple_of(8)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
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
#[target_feature(enable = "avx")]
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
#[target_feature(enable = "avx")]
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
                    *cv = _mm256_add_ps(*cv, _mm256_mul_ps(av, _mm256_loadu_ps(brow.add(8 * v))));
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

/// Portable `MR x NR` micro-kernel: fixed-extent loops over packed panels
/// so LLVM vectorizes the `NR` lane loop; `MR` independent accumulator
/// rows break the k dependence chain.
#[inline(always)]
fn kernel_mr_nr(kb: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR);
    for p in 0..kb {
        let a4 = &ap[p * MR..p * MR + MR];
        let b16 = &bp[p * NR..p * NR + NR];
        for r in 0..MR {
            let av = a4[r];
            let row = &mut acc[r * NR..(r + 1) * NR];
            for (cv, bv) in row.iter_mut().zip(b16) {
                *cv += av * bv;
            }
        }
    }
}

/// AVX2+FMA copy of the micro-kernel: 8 YMM accumulators (4 rows x 16
/// lanes), two B loads and four A broadcasts per k step, all arithmetic
/// via `vfmadd`.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_mr_nr_fma(kb: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR);
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
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
    let out = acc.as_mut_ptr();
    _mm256_storeu_ps(out, c00);
    _mm256_storeu_ps(out.add(8), c01);
    _mm256_storeu_ps(out.add(16), c10);
    _mm256_storeu_ps(out.add(24), c11);
    _mm256_storeu_ps(out.add(32), c20);
    _mm256_storeu_ps(out.add(40), c21);
    _mm256_storeu_ps(out.add(48), c30);
    _mm256_storeu_ps(out.add(56), c31);
}

#[allow(clippy::too_many_arguments)]
fn check_lens(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a_len: usize,
    b_len: usize,
    c_len: usize,
) {
    let a_need = match ta {
        Transpose::No => m * k,
        Transpose::Yes => k * m,
    };
    let b_need = match tb {
        Transpose::No => k * n,
        Transpose::Yes => n * k,
    };
    assert!(a_len >= a_need, "A has {a_len} elements, needs {a_need}");
    assert!(b_len >= b_need, "B has {b_len} elements, needs {b_need}");
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
        // Odd kc and minimal aligned nc/mc: edge blocks everywhere.
        let mut engine = Gemm::with_blocking(7, 16, 4).expect("aligned blocking");
        engine.compute(ta, tb, m, n, k, &a, &b, &mut c_blk);
        for (r, o) in c_ref.iter().zip(&c_blk) {
            assert!((r - o).abs() <= 1e-3 * r.abs().max(1.0), "{r} vs {o}");
        }
    }

    #[test]
    fn with_blocking_rejects_zero_and_unaligned_blocks() {
        assert_eq!(
            Gemm::with_blocking(0, 512, 64).unwrap_err(),
            BlockingError::ZeroBlock { dim: "kc" }
        );
        assert_eq!(
            Gemm::with_blocking(256, 0, 64).unwrap_err(),
            BlockingError::ZeroBlock { dim: "nc" }
        );
        assert_eq!(
            Gemm::with_blocking(256, 512, 0).unwrap_err(),
            BlockingError::ZeroBlock { dim: "mc" }
        );
        // mc must be a multiple of MR (4), nc a multiple of NR (16).
        assert_eq!(
            Gemm::with_blocking(256, 512, 63).unwrap_err(),
            BlockingError::UnalignedRows { mc: 63 }
        );
        assert_eq!(
            Gemm::with_blocking(256, 500, 64).unwrap_err(),
            BlockingError::UnalignedCols { nc: 500 }
        );
        // kc has no panel constraint: any non-zero value is accepted.
        let g = Gemm::with_blocking(7, 512, 64).unwrap();
        assert_eq!((g.kc, g.nc, g.mc), (7, 512, 64));
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

    /// The release-mode gate `scripts/check.sh` and CI run: the narrow
    /// path at vector width against the portable loop it replaces, on a
    /// VGG conv2_1 and a LeNet conv1 forward shape. Both engines are timed
    /// in this process in alternating rounds and keep their best, so a
    /// burst of noise on the host costs both sides or neither; both
    /// accumulate into their own `C` call after call, which must end
    /// bit-identical.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ratios: run with --release")]
    fn narrow_kernel_beats_the_portable_loop() {
        let mut vector = Gemm::new();
        if !vector.fma {
            println!("narrow GEMM gate skipped: no AVX2+FMA on this host, the portable loop is the only path");
            return;
        }
        let mut portable = Gemm { fma: false, ..Gemm::new() };
        for (m, n, k, floor) in [(128, 32, 144, 1.8), (112, 5, 25, 3.0)] {
            let (a, b) = (dense(m, k, 1), dense(n, k, 2));
            let mut cs = [dense(m, n, 3), dense(m, n, 3)];
            let calls = (4_000_000 / (m * n * k)).max(1);
            let per_call = |eng: &mut Gemm, c: &mut [f32]| {
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    eng.compute(Transpose::No, Transpose::Yes, m, n, k, &a, &b, std::hint::black_box(&mut *c));
                }
                t0.elapsed().as_secs_f64() / calls as f64
            };
            let (mut fast, mut slow) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..25 {
                let [cv, cp] = &mut cs;
                fast = fast.min(per_call(&mut vector, cv));
                slow = slow.min(per_call(&mut portable, cp));
            }
            let [cv, cp] = &cs;
            assert!(
                cv.iter().zip(cp).all(|(x, y)| x.to_bits() == y.to_bits()),
                "NT {m}x{n}x{k}: the vector kernel's C differs from the portable loop's"
            );
            println!(
                "narrow NT {m}x{n}x{k}: vector {:.1} us, portable {:.1} us, ratio {:.2}x (>= {floor} required)",
                fast * 1e6,
                slow * 1e6,
                slow / fast
            );
            assert!(
                slow / fast >= floor,
                "NT {m}x{n}x{k}: the vector kernel is only {:.2}x the portable loop",
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

    impl GemmPool for SeqPool {
        fn threads(&self) -> usize {
            self.parts
        }
        fn run_gemm(&self, job: &(dyn Fn(usize, &mut Gemm) + Sync)) {
            let mut engines = self.engines.borrow_mut();
            for (tid, eng) in engines.iter_mut().enumerate() {
                job(tid, eng);
            }
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
            Gemm::compute_parallel(&pool, Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c_par);
            for (i, (x, y)) in c_serial.iter().zip(&c_par).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "parts={parts} elem {i}: {x} vs {y}");
            }
        }
    }
}
