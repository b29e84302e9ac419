//! Property tests for [`Gemm::compute_parallel`]: bit-identity with the
//! naive reference over odd shapes and transposes, bit-identity of the
//! macro-tile partitioning across worker counts, and which GEMMs wake
//! the pool at all.
//!
//! The pool here is a deterministic in-process fake that invokes the job
//! for every worker id sequentially — partitioning correctness does not
//! depend on actual concurrency (real-thread coverage lives with the
//! runtime's `WorkerPool`, which implements the same trait).

use std::cell::{Cell, RefCell};

use latte_tensor::gemm::{gemm_naive, Gemm, GemmPool, Transpose};
use proptest::prelude::*;

/// A sequential stand-in pool: `threads` worker slots, each with its own
/// engine, counting how often each entry point is taken.
struct FakePool {
    engines: RefCell<Vec<Gemm>>,
    gemm_runs: Cell<usize>,
    serial_runs: Cell<usize>,
}

impl FakePool {
    fn new(threads: usize) -> Self {
        FakePool {
            engines: RefCell::new((0..threads).map(|_| Gemm::new()).collect()),
            gemm_runs: Cell::new(0),
            serial_runs: Cell::new(0),
        }
    }
}

// SAFETY: `run_gemm` calls the job once for each `tid` in `0..threads()`,
// one after another, each with its own engine.
unsafe impl GemmPool for FakePool {
    fn threads(&self) -> usize {
        self.engines.borrow().len()
    }

    fn run_gemm(&self, job: &(dyn Fn(usize, &mut Gemm) + Sync)) {
        self.gemm_runs.set(self.gemm_runs.get() + 1);
        let mut engines = self.engines.borrow_mut();
        for (tid, eng) in engines.iter_mut().enumerate() {
            job(tid, eng);
        }
    }

    fn run_serial(&self, job: &mut dyn FnMut(&mut Gemm)) {
        self.serial_runs.set(self.serial_runs.get() + 1);
        job(&mut self.engines.borrow_mut()[0]);
    }
}

fn transpose() -> impl Strategy<Value = Transpose> {
    prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
}

fn fill(len: usize, seed: u32, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(seed)
                .wrapping_add(salt);
            (h % 19) as f32 - 9.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small odd shapes with arbitrary transposes dispatch through the
    /// serial path of `compute_parallel` and must match the naive
    /// reference bit for bit.
    #[test]
    fn parallel_entry_matches_naive_small(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..24,
        ta in transpose(),
        tb in transpose(),
        threads in 1usize..5,
        seed in 0u32..1000,
    ) {
        let a = fill(m * k, seed, 1);
        let b = fill(k * n, seed, 2);
        let mut c_ref = fill(m * n, seed, 3);
        let mut c_par = c_ref.clone();
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c_ref);
        let pool = FakePool::new(threads);
        Gemm::compute_parallel(&pool, ta, tb, m, n, k, &a, &b, &mut c_par);
        for (r, o) in c_ref.iter().zip(&c_par) {
            prop_assert!(r.to_bits() == o.to_bits() || (r.is_nan() && o.is_nan()), "{} vs {}", r, o);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Shapes above the parallel-dispatch threshold, partitioned across
    /// several workers, still match the naive reference bit for bit under
    /// transposes.
    #[test]
    fn parallel_partitioning_matches_naive(
        m in 64usize..90,
        n in 64usize..90,
        k in 64usize..90,
        ta in transpose(),
        tb in transpose(),
        threads in 2usize..6,
        seed in 0u32..1000,
    ) {
        let a = fill(m * k, seed, 1);
        let b = fill(k * n, seed, 2);
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_par = c_ref.clone();
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c_ref);
        let pool = FakePool::new(threads);
        Gemm::compute_parallel(&pool, ta, tb, m, n, k, &a, &b, &mut c_par);
        for (r, o) in c_ref.iter().zip(&c_par) {
            prop_assert!(r.to_bits() == o.to_bits() || (r.is_nan() && o.is_nan()), "{} vs {}", r, o);
        }
    }

    /// The partitioned result is BIT-identical for every worker count —
    /// the property the executor's thread-count determinism rests on.
    #[test]
    fn parallel_bit_identical_across_worker_counts(
        m in 64usize..90,
        n in 64usize..90,
        k in 64usize..90,
        tb in transpose(),
        threads in 2usize..9,
        seed in 0u32..1000,
    ) {
        let a = fill(m * k, seed, 1);
        let b = fill(k * n, seed, 2);
        let mut c_one = vec![0.0f32; m * n];
        let mut c_many = c_one.clone();
        Gemm::compute_parallel(
            &FakePool::new(1), Transpose::No, tb, m, n, k, &a, &b, &mut c_one,
        );
        Gemm::compute_parallel(
            &FakePool::new(threads), Transpose::No, tb, m, n, k, &a, &b, &mut c_many,
        );
        for (i, (x, y)) in c_one.iter().zip(&c_many).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "elem {} with {} workers", i, threads);
        }
    }
}

/// A GEMM that does not split runs once on the caller's engine and never
/// enters `run_gemm`; one that splits enters it exactly once. Either way
/// `C` is bit-identical to `Gemm::compute`.
#[test]
fn only_a_gemm_that_splits_wakes_the_pool() {
    let (no, yes) = (Transpose::No, Transpose::Yes);
    // (what, ta, tb, m, n, k, threads, splits)
    let cases = [
        ("narrow (a forward conv)", no, yes, 256, 32, 144, 4, false),
        ("under MIN_PARALLEL_FLOPS", no, no, 130, 40, 8, 4, false),
        (
            "one macro-tile (LeNet ip1 forward)",
            no,
            yes,
            8,
            125,
            588,
            2,
            false,
        ),
        ("one macro-tile, full", yes, no, 64, 512, 64, 4, false),
        ("one worker", no, no, 130, 70, 64, 1, false),
        ("three macro-tiles", no, no, 130, 70, 64, 3, true),
        (
            "two macro-tiles, transposed A",
            yes,
            yes,
            70,
            600,
            40,
            2,
            true,
        ),
    ];
    for (what, ta, tb, m, n, k, threads, splits) in cases {
        let a = fill(m * k, 5, 1);
        let b = fill(k * n, 5, 2);
        let mut want = fill(m * n, 5, 3);
        let mut got = want.clone();
        Gemm::new().compute(ta, tb, m, n, k, &a, &b, &mut want);
        let pool = FakePool::new(threads);
        Gemm::compute_parallel(&pool, ta, tb, m, n, k, &a, &b, &mut got);
        assert_eq!(
            pool.gemm_runs.get(),
            usize::from(splits),
            "{what}: run_gemm calls"
        );
        assert_eq!(
            pool.serial_runs.get(),
            usize::from(!splits),
            "{what}: run_serial calls"
        );
        for (i, (x, y)) in want.iter().zip(&got).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: elem {i}");
        }
    }
}
