//! Bit-identity of the narrow-output GEMM path (`ta == No`, `n <= 32`).
//!
//! On a host with AVX2+FMA, `Gemm::compute` runs these shapes through a
//! vector kernel; elsewhere through a portable loop. Both must produce,
//! for every output element, exactly what [`portable`] below produces —
//! start from `C`, then for `p` ascending add the rounded product
//! `A[i, p] * B[p, j]` with one more rounding — under `to_bits()`, NaN
//! payloads included. The interpreter-vs-executor contract of
//! `latte-oracle` and the serving layer's batch-n vs batch-1 replies rest
//! on this, and on the second property here: a row of `C` does not depend
//! on which other rows share the call.

use latte_tensor::gemm::{Gemm, Transpose};
use proptest::prelude::*;

/// The portable narrow loop, written out: each row accumulates in an
/// array loaded from `C`, `k` ascending, `acc += a * b`.
#[allow(clippy::too_many_arguments)]
fn portable(tb: Transpose, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut acc = [0.0f32; 32];
    for i in 0..m {
        acc[..n].copy_from_slice(&c[i * n..i * n + n]);
        for p in 0..k {
            let av = a[i * k + p];
            for (j, ac) in acc[..n].iter_mut().enumerate() {
                let bv = match tb {
                    Transpose::No => b[p * n + j],
                    Transpose::Yes => b[j * k + p],
                };
                *ac += av * bv;
            }
        }
        c[i * n..i * n + n].copy_from_slice(&acc[..n]);
    }
}

/// ±0, ±∞ and NaNs — quiet, negative, and carrying a payload — so that
/// non-finite propagation is compared as well as rounding.
const SPECIALS: [f32; 7] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::from_bits(0xffc0_0000),
    f32::from_bits(0x7fc0_1234),
];

/// Finite values with fractional parts (so every addition rounds), and
/// one in 16, 128 or 1 024 (by seed) drawn from [`SPECIALS`]: dense
/// enough that NaNs of two payloads meet in one accumulator, sparse
/// enough that a row of 300 products usually stays finite.
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
/// payload of a NaN made from two NaNs is whichever operand the compiler
/// put first, in either kernel (DESIGN.md §10.1).
fn same_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{}: element {} is {} ({:#010x}), want {} ({:#010x})",
            what,
            i,
            g,
            g.to_bits(),
            w,
            w.to_bits()
        );
    }
    Ok(())
}

/// `Gemm::compute` against [`portable`] for one shape.
fn check(tb: Transpose, m: usize, n: usize, k: usize, seed: u32) -> Result<(), TestCaseError> {
    let (a, b) = (fill(m * k, seed, 1), fill(k * n, seed, 2));
    let mut want = fill(m * n, seed, 3);
    let mut got = want.clone();
    portable(tb, m, n, k, &a, &b, &mut want);
    Gemm::new().compute(Transpose::No, tb, m, n, k, &a, &b, &mut got);
    same_bits(&got, &want, &format!("{tb:?} {m}x{n}x{k} seed {seed}"))
}

/// Every `n` against every `m` up to 25: every split of the rows into
/// full blocks and a tail, for every number of 8-lane vectors a row
/// takes, at a short and an odd `k`.
#[test]
fn every_block_and_tail_split_matches_the_portable_loop() {
    for tb in [Transpose::No, Transpose::Yes] {
        for n in 1..=32 {
            for m in 0..=25 {
                for k in [1, 27] {
                    check(tb, m, n, k, (n * 31 + m) as u32).unwrap();
                }
            }
        }
    }
}

fn transpose() -> impl Strategy<Value = Transpose> {
    prop_oneof![Just(Transpose::No), Just(Transpose::Yes)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any narrow shape up to `k = 300`, either layout of B, a non-zero
    /// starting `C`: bit-identical to the portable loop.
    #[test]
    fn narrow_gemm_matches_the_portable_loop(
        n in 1usize..33,
        m in 0usize..26,
        k in 1usize..301,
        tb in transpose(),
        seed in 0u32..1_000_000,
    ) {
        check(tb, m, n, k, seed)?;
    }

    /// All `m` rows in one call give the same bits as each row in a call
    /// of its own — a block of rows and a tail row are one arithmetic.
    #[test]
    fn a_row_does_not_depend_on_its_neighbours(
        n in 1usize..33,
        m in 1usize..26,
        k in 1usize..301,
        tb in transpose(),
        seed in 0u32..1_000_000,
    ) {
        let (a, b) = (fill(m * k, seed, 1), fill(k * n, seed, 2));
        let mut all = fill(m * n, seed, 3);
        let mut alone = all.clone();
        let mut gemm = Gemm::new();
        gemm.compute(Transpose::No, tb, m, n, k, &a, &b, &mut all);
        for i in 0..m {
            gemm.compute(Transpose::No, tb, 1, n, k, &a[i * k..], &b, &mut alone[i * n..]);
        }
        same_bits(&alone, &all, &format!("{tb:?} {m}x{n}x{k} seed {seed}"))?;
    }
}
