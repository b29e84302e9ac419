//! Criterion ablations over the compiler's design choices: each benchmark
//! toggles one optimization the DESIGN.md inventory calls out and times a
//! forward(+backward) pass of a convolution block or MLP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_bench::seeded;
use latte_core::{compile, OptLevel};
use latte_nn::layers::{convolution, data, max_pool, relu, ConvSpec};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::Executor;

fn conv_block(batch: usize, h: usize, cin: usize, cout: usize) -> latte_core::dsl::Net {
    let mut net = latte_core::dsl::Net::new(batch);
    let d = data(&mut net, "data", vec![h, h, cin]);
    let c = convolution(&mut net, "conv1", d, ConvSpec::same(cout, 3), 1);
    let r = relu(&mut net, "relu1", c);
    max_pool(&mut net, "pool1", r, 2, 2);
    net
}

fn exec_for(net: &latte_core::dsl::Net, opt: &OptLevel, input_len: usize) -> Executor {
    let compiled = compile(net, opt).expect("compiles");
    let mut exec = Executor::new(compiled).expect("lowers");
    exec.set_input("data", &seeded(input_len, 3))
        .expect("input");
    exec
}

/// Cross-layer fusion on/off (the paper's headline optimization).
fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fusion");
    group.sample_size(10);
    let (batch, h, cin, cout) = (4, 32, 8, 16);
    let net = conv_block(batch, h, cin, cout);
    for (name, opt) in [
        ("fused", OptLevel::full()),
        ("unfused", OptLevel::full().with_fusion(false)),
    ] {
        let mut exec = exec_for(&net, &opt, batch * h * h * cin);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                exec.forward();
                exec.backward();
            });
        });
    }
    group.finish();
}

/// Shared-variable buffer optimization on/off (Section 5.2): affects both
/// time (duplicated staging copies) and memory.
fn bench_shared_buffers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_shared_buffers");
    group.sample_size(10);
    let (batch, h, cin, cout) = (4, 16, 4, 8);
    let net = conv_block(batch, h, cin, cout);
    for (name, opt) in [
        ("shared", OptLevel::full()),
        ("duplicated", OptLevel::full().with_shared_buffers(false)),
    ] {
        let mut exec = exec_for(&net, &opt, batch * h * h * cin);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| exec.forward());
        });
    }
    group.finish();
}

/// Native inner-loop lowering ("vectorization") on/off.
fn bench_vectorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_vectorize");
    group.sample_size(10);
    let (batch, h, cin, cout) = (4, 16, 4, 8);
    let net = conv_block(batch, h, cin, cout);
    for (name, opt) in [
        ("native", OptLevel::full()),
        ("interpreted", OptLevel::full().with_vectorize(false)),
    ] {
        let mut exec = exec_for(&net, &opt, batch * h * h * cin);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| exec.forward());
        });
    }
    group.finish();
}

/// Tile-size sweep over the fused conv block (the paper's TILE_SIZE
/// design choice).
fn bench_tile_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_tile_size");
    group.sample_size(10);
    let (batch, h, cin, cout) = (4, 32, 8, 16);
    let net = conv_block(batch, h, cin, cout);
    for tile in [1usize, 2, 4, 8, 16] {
        let opt = OptLevel::full().with_tile_size(tile);
        let mut exec = exec_for(&net, &opt, batch * h * h * cin);
        group.bench_function(BenchmarkId::from_parameter(format!("tile{tile}")), |b| {
            b.iter(|| {
                exec.forward();
                exec.backward();
            });
        });
    }
    group.finish();
}

/// GEMM pattern matching on/off for fully-connected layers.
fn bench_pattern_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pattern_match");
    group.sample_size(10);
    let cfg = ModelConfig {
        batch: 8,
        input_size: 128,
        channel_div: 1,
        classes: 10,
        with_loss: true,
        seed: 4,
    };
    for (name, opt) in [
        ("gemm", OptLevel::full()),
        ("loops", OptLevel::full().with_pattern_match(false)),
    ] {
        let model = mlp(&cfg, &[128, 64]);
        let compiled = compile(&model.net, &opt).expect("compiles");
        let mut exec = Executor::new(compiled).expect("lowers");
        exec.set_input("data", &seeded(8 * 128, 5)).expect("input");
        exec.set_input("label", &[0.0; 8]).expect("labels");
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                exec.forward();
                exec.backward();
            });
        });
    }
    group.finish();
}

/// One fully-connected forward in Latte vs the hand-written baseline
/// stacks (sanity anchor for the figure harness).
fn bench_stacks(c: &mut Criterion) {
    use latte_baselines::spec::LayerSpec;
    let mut group = c.benchmark_group("stack_comparison");
    group.sample_size(10);
    let (batch, h, cin, cout) = (4usize, 16usize, 4usize, 8usize);
    let net = conv_block(batch, h, cin, cout);
    let mut latte_exec = exec_for(&net, &OptLevel::full(), batch * h * h * cin);
    group.bench_function("latte", |b| b.iter(|| latte_exec.forward()));
    let specs = [
        LayerSpec::Conv {
            out_channels: cout,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        LayerSpec::ReLU,
        LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        },
    ];
    let mut caffe = latte_baselines::caffe::build((cin, h, h), batch, &specs, 1);
    caffe.set_input(&seeded(batch * h * h * cin, 3));
    group.bench_function("caffe", |b| {
        b.iter(|| {
            caffe.forward();
        })
    });
    let mut mocha = latte_baselines::mocha::build((cin, h, h), batch, &specs, 1);
    mocha.set_input(&seeded(batch * h * h * cin, 3));
    group.bench_function("mocha", |b| {
        b.iter(|| {
            mocha.forward();
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fusion,
    bench_shared_buffers,
    bench_vectorize,
    bench_tile_size,
    bench_pattern_match,
    bench_stacks
);
criterion_main!(benches);
