//! Criterion benchmarks for the numeric substrate: GEMM shapes and the
//! serial-vs-parallel entry, im2col, and the synthesized-copy execution paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_runtime::pool::WorkerPool;
use latte_tensor::conv::{im2col, Conv2dParams};
use latte_tensor::gemm::{Gemm, Transpose};

fn bench_gemm_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_shapes");
    group.sample_size(10);
    // The shapes the compiler actually emits: Latte conv forward
    // (m=spatial, n=channels), Caffe conv forward (m=channels,
    // n=spatial), weight gradients (k=spatial), and an FC-style square;
    // then the narrow-output shapes (n <= 32) the benchmark's workloads
    // run most, through the register-row kernel.
    let shapes: [(&str, usize, usize, usize, Transpose, Transpose); 9] = [
        (
            "latte_conv_fwd",
            1024,
            64,
            27,
            Transpose::No,
            Transpose::Yes,
        ),
        ("caffe_conv_fwd", 64, 1024, 27, Transpose::No, Transpose::No),
        (
            "conv_bwd_weights",
            64,
            27,
            1024,
            Transpose::Yes,
            Transpose::No,
        ),
        ("fc", 256, 256, 256, Transpose::No, Transpose::Yes),
        (
            "narrow_vgg_conv2_1_fwd",
            128,
            32,
            144,
            Transpose::No,
            Transpose::Yes,
        ),
        (
            "narrow_vgg_conv1_1_fwd",
            512,
            16,
            27,
            Transpose::No,
            Transpose::Yes,
        ),
        (
            "narrow_lenet_conv2_fwd",
            28,
            12,
            125,
            Transpose::No,
            Transpose::Yes,
        ),
        (
            "narrow_lenet_conv1_fwd",
            112,
            5,
            25,
            Transpose::No,
            Transpose::Yes,
        ),
        (
            "narrow_lenet_ip2",
            8,
            10,
            125,
            Transpose::No,
            Transpose::Yes,
        ),
    ];
    for (name, m, n, k, ta, tb) in shapes {
        let a = vec![1.0f32; m.max(k) * k.max(m)];
        let b = vec![1.0f32; k.max(n) * n.max(k)];
        let mut out = vec![0.0f32; m * n];
        let mut engine = Gemm::new();
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
            bencher.iter(|| {
                engine.compute(ta, tb, m, n, k, &a, &b, &mut out);
            });
        });
    }
    // The threads axis: serial `compute` against `compute_parallel` on a
    // persistent pool of 2 and 4, at the square sizes where ROADMAP
    // records the parallel path losing to serial (below 512^3).
    let pools = [WorkerPool::new(2), WorkerPool::new(4)];
    for n in [128usize, 256, 512] {
        let a = vec![1.0f32; n * n];
        let b = vec![1.0f32; n * n];
        let mut out = vec![0.0f32; n * n];
        let mut engine = Gemm::new();
        group.bench_function(BenchmarkId::new("square_t1", n), |bencher| {
            bencher
                .iter(|| engine.compute(Transpose::No, Transpose::No, n, n, n, &a, &b, &mut out));
        });
        for pool in &pools {
            let id = BenchmarkId::new(format!("square_t{}", pool.threads()), n);
            group.bench_function(id, |bencher| {
                bencher.iter(|| {
                    Gemm::compute_parallel(
                        pool,
                        Transpose::No,
                        Transpose::No,
                        n,
                        n,
                        n,
                        &a,
                        &b,
                        &mut out,
                    )
                });
            });
        }
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    group.sample_size(10);
    for (h, cin) in [(32usize, 16usize), (64, 3)] {
        let p = Conv2dParams {
            in_channels: cin,
            out_channels: 1,
            height: h,
            width: h,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let input = vec![1.0f32; cin * h * h];
        let mut cols = vec![0.0f32; p.patch_len() * p.out_plane()];
        group.bench_function(
            BenchmarkId::from_parameter(format!("{h}x{h}x{cin}")),
            |bencher| bencher.iter(|| im2col(&p, &input, &mut cols)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_shapes, bench_im2col);
criterion_main!(benches);
