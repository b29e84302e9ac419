//! Regenerates every figure and table of the paper's evaluation
//! (Section 7). Usage:
//!
//! ```text
//! cargo run --release -p latte-bench --bin figures -- [fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig20|all] [--full]
//! ```
//!
//! Default shapes are scaled down for a single-core CI machine; `--full`
//! uses the paper's published input sizes (slow). Absolute numbers will
//! not match a 36-core Xeon with MKL — the *shapes* (who wins, rough
//! factors, where crossovers fall) are the reproduction target; see
//! EXPERIMENTS.md.

use latte_baselines::{caffe, mocha, spec};
use std::sync::atomic::{AtomicU32, Ordering};

use latte_bench::accel::{AcceleratorSpec, HeterogeneousScheduler, WorkloadModel};
use latte_bench::cluster_model::{
    analytic_profiles, profiles_from_measurements, strong_scaling, weak_scaling, LayerProfile,
    NetworkModel,
};
use latte_bench::{
    compile_or_die, executor_or_die, print_compile_stats, print_table, seeded, speedup,
    time_baseline, time_latte, Pass,
};
use latte_core::OptLevel;
use latte_nn::models::{self, ModelConfig};
use latte_runtime::data::{synthetic_mnist, BatchSource, MemoryDataSource};
use latte_runtime::metrics::top1_accuracy;
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::Executor;

#[derive(Clone, Copy)]
struct Scale {
    /// Square input edge for the VGG-style benchmarks.
    vgg_input: usize,
    alexnet_input: usize,
    overfeat_input: usize,
    /// Channel divider (1 = published widths).
    div: usize,
    batch: usize,
}

impl Scale {
    fn small() -> Self {
        Scale {
            vgg_input: 32,
            alexnet_input: 67,
            overfeat_input: 71,
            div: 8,
            batch: 4,
        }
    }

    fn full() -> Self {
        Scale {
            vgg_input: 224,
            alexnet_input: 227,
            overfeat_input: 231,
            div: 1,
            batch: 16,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::small() };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| a.as_str() != "--full")
        .map(String::as_str)
        .collect();
    let all = which.is_empty() || which.contains(&"all");
    let run = |name: &str| all || which.contains(&name);

    println!(
        "latte figures harness ({} shapes; see EXPERIMENTS.md for interpretation)",
        if full { "full" } else { "scaled" }
    );
    if run("fig13") {
        fig13(scale);
    }
    if run("fig14") {
        fig14(scale);
    }
    if run("fig15") {
        fig15(scale);
    }
    if run("fig16") {
        fig16(scale);
    }
    if run("fig17") {
        fig17(scale);
    }
    if run("fig18") {
        fig18(scale);
    }
    if run("fig19") {
        fig19(scale);
    }
    if run("fig20") {
        fig20();
    }
}

/// One standalone VGG convolution group `g` (1-based) as a Latte model
/// and a baseline spec list, with matching shapes.
fn vgg_group(
    scale: Scale,
    group: usize,
) -> (
    latte_core::dsl::Net,
    Vec<spec::LayerSpec>,
    (usize, usize, usize),
) {
    use latte_nn::layers::{convolution, data, max_pool, relu, ConvSpec};
    let table = [(64usize, 1usize), (128, 1), (256, 2), (512, 2), (512, 2)];
    let ch = |c: usize| (c / scale.div).max(1);
    let input_edge = scale.vgg_input >> (group - 1);
    let in_c = if group == 1 {
        3
    } else {
        ch(table[group - 2].0)
    };
    let (out_c, convs) = table[group - 1];

    let mut net = latte_core::dsl::Net::new(scale.batch);
    let d = data(&mut net, "data", vec![input_edge, input_edge, in_c]);
    let mut prev = d;
    for i in 0..convs {
        let c = convolution(
            &mut net,
            &format!("conv{i}"),
            prev,
            ConvSpec::same(ch(out_c), 3),
            group as u64 * 10 + i as u64,
        );
        prev = relu(&mut net, &format!("relu{i}"), c);
    }
    max_pool(&mut net, "pool", prev, 2, 2);

    let mut specs = Vec::new();
    for _ in 0..convs {
        specs.push(spec::LayerSpec::Conv {
            out_channels: ch(out_c),
            kernel: 3,
            stride: 1,
            pad: 1,
        });
        specs.push(spec::LayerSpec::ReLU);
    }
    specs.push(spec::LayerSpec::MaxPool {
        kernel: 2,
        stride: 2,
    });
    (net, specs, (in_c, input_edge, input_edge))
}

/// Figure 13: effect of individual optimizations on the VGG first-group
/// microbenchmark, as speedup over the Caffe-style baseline.
fn fig13(scale: Scale) {
    let (net, specs, input_shape) = vgg_group(scale, 1);
    let input = seeded(
        scale.batch * input_shape.0 * input_shape.1 * input_shape.2,
        3,
    );

    let mut caffe_net = caffe::build(input_shape, scale.batch, &specs, 1);
    caffe_net.set_input(&input);
    let caffe_t = [
        time_baseline(&mut caffe_net, Pass::Forward, 3),
        time_baseline(&mut caffe_net, Pass::Backward, 3),
        time_baseline(&mut caffe_net, Pass::Both, 3),
    ];

    let variants: Vec<(&str, OptLevel)> = vec![
        ("parallelization", OptLevel::parallel_only()),
        (
            "+pattern match (GEMM)",
            OptLevel::parallel_only().with_pattern_match(true),
        ),
        (
            "+tiling",
            OptLevel::parallel_only()
                .with_pattern_match(true)
                .with_tiling(true),
        ),
        (
            "+fusion",
            OptLevel::parallel_only()
                .with_pattern_match(true)
                .with_tiling(true)
                .with_fusion(true),
        ),
        ("+vectorization (full)", OptLevel::full()),
    ];

    let mut rows = Vec::new();
    for (name, opt) in variants {
        let compiled = compile_or_die(&net, &opt, "vgg group 1");
        if name == "+vectorization (full)" {
            print_compile_stats(&compiled, "VGG group 1 at full");
        }
        let mut exec = executor_or_die(compiled, "vgg group 1");
        exec.set_input("data", &input).expect("input");
        let t = [
            time_latte(&mut exec, Pass::Forward, 3),
            time_latte(&mut exec, Pass::Backward, 3),
            time_latte(&mut exec, Pass::Both, 3),
        ];
        rows.push(vec![
            name.to_string(),
            speedup(caffe_t[0], t[0]),
            speedup(caffe_t[1], t[1]),
            speedup(caffe_t[2], t[2]),
        ]);
    }
    rows.push(vec![
        "(caffe baseline ms)".to_string(),
        format!("{:.2}", caffe_t[0] * 1e3),
        format!("{:.2}", caffe_t[1] * 1e3),
        format!("{:.2}", caffe_t[2] * 1e3),
    ]);
    print_table(
        "Figure 13: per-optimization speedup over Caffe, VGG conv1 group",
        &["variant", "forward", "backward", "fwd+bwd"],
        &rows,
    );
}

fn model_cfg(scale: Scale, input: usize) -> ModelConfig {
    ModelConfig {
        batch: scale.batch,
        input_size: input,
        channel_div: scale.div,
        classes: if scale.div == 1 { 1000 } else { 100 },
        with_loss: true,
        seed: 5,
    }
}

/// Times a full model in Latte (full opt) and a baseline stack; returns
/// `(latte, baseline)` fwd+bwd seconds.
fn time_model_pair(
    scale: Scale,
    model: &models::Model,
    specs: &[spec::LayerSpec],
    input_shape: (usize, usize, usize),
    mocha_backend: bool,
) -> (f64, f64) {
    let compiled = compile_or_die(&model.net, &OptLevel::full(), "model");
    let mut exec = executor_or_die(compiled, "model");
    let n = input_shape.0 * input_shape.1 * input_shape.2;
    let input = seeded(scale.batch * n, 17);
    exec.set_input("data", &input).expect("input");
    let labels: Vec<f32> = (0..scale.batch).map(|i| (i % 10) as f32).collect();
    exec.set_input("label", &labels).expect("labels");
    let latte_t = time_latte(&mut exec, Pass::Both, 3);

    let mut base = if mocha_backend {
        mocha::build(input_shape, scale.batch, specs, 5)
    } else {
        caffe::build(input_shape, scale.batch, specs, 5)
    };
    base.set_input(&input);
    base.set_labels(&labels);
    let base_t = time_baseline(&mut base, Pass::Both, if mocha_backend { 1 } else { 3 });
    (latte_t, base_t)
}

/// Figure 14: Latte speedup over the Caffe-style baseline on the three
/// ImageNet models.
fn fig14(scale: Scale) {
    let mut rows = Vec::new();
    let alex = models::alexnet(&model_cfg(scale, scale.alexnet_input));
    let (l, c) = time_model_pair(
        scale,
        &alex,
        &spec::alexnet_specs(scale.div, model_cfg(scale, 0).classes),
        (3, scale.alexnet_input, scale.alexnet_input),
        false,
    );
    rows.push(vec![
        "AlexNet".into(),
        speedup(c, l),
        format!("{:.1} ms", l * 1e3),
        format!("{:.1} ms", c * 1e3),
    ]);

    let over = models::overfeat(&model_cfg(scale, scale.overfeat_input));
    let (l, c) = time_model_pair(
        scale,
        &over,
        &spec::overfeat_specs(scale.div, model_cfg(scale, 0).classes),
        (3, scale.overfeat_input, scale.overfeat_input),
        false,
    );
    rows.push(vec![
        "OverFeat".into(),
        speedup(c, l),
        format!("{:.1} ms", l * 1e3),
        format!("{:.1} ms", c * 1e3),
    ]);

    let vgg = models::vgg_a(&model_cfg(scale, scale.vgg_input));
    let (l, c) = time_model_pair(
        scale,
        &vgg,
        &spec::vgg_a_specs(scale.div, model_cfg(scale, 0).classes),
        (3, scale.vgg_input, scale.vgg_input),
        false,
    );
    rows.push(vec![
        "VGG-A".into(),
        speedup(c, l),
        format!("{:.1} ms", l * 1e3),
        format!("{:.1} ms", c * 1e3),
    ]);

    print_table(
        "Figure 14: Latte speedup over Caffe (fwd+bwd per batch)",
        &["model", "speedup", "latte", "caffe"],
        &rows,
    );
}

/// Figure 15: per-group breakdown over the first four VGG
/// conv(+conv)+ReLU+pool groups.
fn fig15(scale: Scale) {
    let mut rows = Vec::new();
    for group in 1..=4 {
        let (net, specs, input_shape) = vgg_group(scale, group);
        let input = seeded(
            scale.batch * input_shape.0 * input_shape.1 * input_shape.2,
            group as u32,
        );
        let compiled = compile_or_die(&net, &OptLevel::full(), "vgg group");
        let fusions = compiled.stats.fusions;
        if group == 1 {
            print_compile_stats(&compiled, "VGG group 1 at full");
        }
        let mut exec = executor_or_die(compiled, "vgg group");
        exec.set_input("data", &input).expect("input");
        let latte_t = time_latte(&mut exec, Pass::Both, 3);

        let mut caffe_net = caffe::build(input_shape, scale.batch, &specs, 2);
        caffe_net.set_input(&input);
        let caffe_t = time_baseline(&mut caffe_net, Pass::Both, 3);
        rows.push(vec![
            format!("group {group}"),
            speedup(caffe_t, latte_t),
            format!("{}", fusions),
            format!("{:.1} ms", latte_t * 1e3),
            format!("{:.1} ms", caffe_t * 1e3),
        ]);
    }
    print_table(
        "Figure 15: VGG per-group speedup over Caffe (fwd+bwd)",
        &["group", "speedup", "fusions", "latte", "caffe"],
        &rows,
    );
}

/// Figure 16: Latte speedup over the Mocha-style naive stack.
fn fig16(scale: Scale) {
    // The naive stack is orders of magnitude slower; shrink further.
    let scale = Scale {
        div: (scale.div * 2).max(2),
        batch: 2,
        ..scale
    };
    let mut rows = Vec::new();
    let alex = models::alexnet(&model_cfg(scale, scale.alexnet_input));
    let (l, m) = time_model_pair(
        scale,
        &alex,
        &spec::alexnet_specs(scale.div, model_cfg(scale, 0).classes),
        (3, scale.alexnet_input, scale.alexnet_input),
        true,
    );
    rows.push(vec!["AlexNet".into(), speedup(m, l)]);
    let over = models::overfeat(&model_cfg(scale, scale.overfeat_input));
    let (l, m) = time_model_pair(
        scale,
        &over,
        &spec::overfeat_specs(scale.div, model_cfg(scale, 0).classes),
        (3, scale.overfeat_input, scale.overfeat_input),
        true,
    );
    rows.push(vec!["OverFeat".into(), speedup(m, l)]);
    let vgg = models::vgg_a(&model_cfg(scale, scale.vgg_input));
    let (l, m) = time_model_pair(
        scale,
        &vgg,
        &spec::vgg_a_specs(scale.div, model_cfg(scale, 0).classes),
        (3, scale.vgg_input, scale.vgg_input),
        true,
    );
    rows.push(vec!["VGG-A".into(), speedup(m, l)]);
    print_table(
        "Figure 16: Latte speedup over Mocha-style naive stack (fwd+bwd)",
        &["model", "speedup"],
        &rows,
    );
}

/// Measures the host workload model for the accelerator simulation.
fn host_workload(scale: Scale) -> WorkloadModel {
    let cfg = model_cfg(scale, scale.alexnet_input);
    let model = models::alexnet(&cfg);
    let compiled = compile_or_die(&model.net, &OptLevel::full(), "alexnet");
    let grad_bytes: f64 = compiled
        .params
        .iter()
        .filter_map(|p| compiled.buffer(&p.value))
        .map(|b| b.shape.len() as f64 * 4.0)
        .sum();
    let mut exec = executor_or_die(compiled, "alexnet");
    let n = 3 * scale.alexnet_input * scale.alexnet_input;
    exec.set_input("data", &seeded(scale.batch * n, 7))
        .expect("input");
    exec.set_input("label", &vec![0.0; scale.batch])
        .expect("labels");
    let t = time_latte(&mut exec, Pass::Both, 3);
    WorkloadModel {
        host_seconds_per_item: t / scale.batch as f64,
        gradient_bytes: grad_bytes,
    }
}

/// Figure 17: throughput with 0/1/2 simulated coprocessors.
fn fig17(scale: Scale) {
    let workload = host_workload(scale);
    let batch = 256;
    let mut rows = Vec::new();
    let mut base = 0.0;
    for cards in 0..=2 {
        let accels = vec![AcceleratorSpec::phi_like(); cards];
        let mut sched = HeterogeneousScheduler::new(workload, accels);
        let thr = sched.throughput(batch);
        if cards == 0 {
            base = thr;
        }
        rows.push(vec![
            format!("host + {cards} coprocessor(s)"),
            format!("{thr:.1} img/s"),
            format!("{:.2}x", thr / base),
            format!("{:?}", sched.chunks()),
        ]);
    }
    print_table(
        "Figure 17: throughput with simulated Xeon-Phi-like coprocessors",
        &["configuration", "throughput", "vs host", "tuned chunks"],
        &rows,
    );
}

/// Per-layer profiles for the cluster simulations, measured from a real
/// executor run of the scaled VGG model.
fn measured_profiles(_scale: Scale, model: &models::Model) -> Vec<LayerProfile> {
    let compiled = compile_or_die(&model.net, &OptLevel::full(), "cluster model");
    // Gradient bytes per forward group, by ensemble membership.
    let mut group_bytes: Vec<(String, f64)> = Vec::new();
    for g in &compiled.forward {
        let mut bytes = 0.0;
        for ens in &g.ensembles {
            for p in &compiled.params {
                if p.value.starts_with(&format!("{ens}.")) {
                    if let Some(b) = compiled.buffer(&p.value) {
                        bytes += b.shape.len() as f64 * 4.0;
                    }
                }
            }
        }
        group_bytes.push((g.name.clone(), bytes));
    }
    let batch = compiled.batch;
    let mut exec = executor_or_die(compiled, "cluster model");
    let dims = model.net.ensemble(model.data).dims().to_vec();
    let n: usize = dims.iter().product();
    exec.set_input("data", &seeded(batch * n, 13))
        .expect("input");
    let _ = exec.set_input("label", &vec![0.0; batch]);
    let _ = exec.set_input("target", &vec![0.0; batch]);
    exec.forward();
    let fwd = exec.forward_timed();
    let bwd = exec.backward_timed();
    profiles_from_measurements(
        &fwd,
        &bwd,
        batch,
        |name| {
            group_bytes
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .unwrap_or(0.0)
        },
        0.1,
    )
}

/// Analytic `(name, fwd_flops_per_item, params)` rows for a baseline spec
/// list at the published model scale.
fn analytic_layers(
    specs: &[spec::LayerSpec],
    mut shape: (usize, usize, usize),
) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let next = spec::out_shape(s, shape);
        let (flops, params) = match *s {
            spec::LayerSpec::Conv {
                out_channels,
                kernel,
                ..
            } => {
                let patch = kernel * kernel * shape.0;
                (
                    2.0 * (patch * next.1 * next.2 * out_channels) as f64,
                    (out_channels * patch + out_channels) as f64,
                )
            }
            spec::LayerSpec::Fc { out: o } => {
                let n_in = shape.0 * shape.1 * shape.2;
                (2.0 * (n_in * o) as f64, (n_in * o + o) as f64)
            }
            _ => ((shape.0 * shape.1 * shape.2) as f64, 0.0),
        };
        out.push((format!("layer{i}"), flops, params));
        shape = next;
    }
    out
}

fn scaling_rows(results: Vec<(usize, f64, f64)>) -> Vec<Vec<String>> {
    results
        .into_iter()
        .map(|(n, thr, eff)| {
            vec![
                n.to_string(),
                format!("{thr:.1} img/s"),
                format!("{:.1}%", eff * 100.0),
            ]
        })
        .collect()
}

/// Effective per-node throughput assumed for the analytic paper-scale
/// cluster projections (a 36-core Xeon with MKL on conv/FC GEMMs).
const NODE_GFLOPS: f64 = 250.0;

/// Figure 18: Cori-style strong scaling (fixed global batch 512, VGG).
fn fig18(scale: Scale) {
    // Measured profile at the benchmark's (scaled) model size.
    let model = models::vgg_a(&model_cfg(scale, scale.vgg_input));
    let layers = measured_profiles(scale, &model);
    let rows = scaling_rows(strong_scaling(
        NetworkModel::aries_like(),
        &layers,
        512,
        &[1, 2, 4, 8, 16, 32, 64],
    ));
    print_table(
        "Figure 18a: strong scaling, VGG, global batch 512 (measured scaled profile)",
        &["nodes", "throughput", "efficiency vs linear"],
        &rows,
    );
    // Paper-scale analytic profile: full-width VGG at 224x224, where
    // communication is substantial (the regime Cori actually ran).
    let analytic = analytic_profiles(
        &analytic_layers(&spec::vgg_a_specs(1, 1000), (3, 224, 224)),
        NODE_GFLOPS,
        2.0,
    );
    let rows = scaling_rows(strong_scaling(
        NetworkModel::aries_like(),
        &analytic,
        512,
        &[1, 2, 4, 8, 16, 32, 64],
    ));
    print_table(
        "Figure 18b: strong scaling, VGG, global batch 512 (analytic full-scale profile)",
        &["nodes", "throughput", "efficiency vs linear"],
        &rows,
    );
}

/// Figure 19: commodity-cluster weak scaling (batch 64/node, AlexNet).
fn fig19(scale: Scale) {
    let model = models::alexnet(&model_cfg(scale, scale.alexnet_input));
    let layers = measured_profiles(scale, &model);
    let rows = scaling_rows(weak_scaling(
        NetworkModel::infiniband_like(),
        &layers,
        64,
        &[1, 2, 4, 8, 16, 32],
    ));
    print_table(
        "Figure 19a: weak scaling, AlexNet, batch 64/node (measured scaled profile)",
        &["nodes", "throughput", "efficiency vs linear"],
        &rows,
    );
    let analytic = analytic_profiles(
        &analytic_layers(&spec::alexnet_specs(1, 1000), (3, 227, 227)),
        NODE_GFLOPS,
        2.0,
    );
    let rows = scaling_rows(weak_scaling(
        NetworkModel::infiniband_like(),
        &analytic,
        64,
        &[1, 2, 4, 8, 16, 32],
    ));
    print_table(
        "Figure 19b: weak scaling, AlexNet, batch 64/node (analytic full-scale profile)",
        &["nodes", "throughput", "efficiency vs linear"],
        &rows,
    );
}

/// The paper's lossy gradient accumulation (Section 3.1, after Project
/// Adam): one thread per worker folds that worker's gradient into the
/// shared accumulator with a *non-atomic* read-modify-write through
/// relaxed atomic cells, so concurrent updates to one element can be
/// lost. This is what Figure 20 measures; the ring's deadline-lossy
/// mode drops whole contributions instead and is not a stand-in for it.
/// With a single contribution the fold is exact.
fn racy_fold(acc: &mut [f32], contributions: &[&[f32]]) {
    // SAFETY: f32 and AtomicU32 have identical size and alignment, and
    // the exclusive borrow of `acc` outlives `cells`, so every access
    // for the rest of this function goes through the atomics.
    let cells: &[AtomicU32] = unsafe { &*(acc as *mut [f32] as *const [AtomicU32]) };
    std::thread::scope(|scope| {
        for grad in contributions {
            scope.spawn(move || {
                for (cell, x) in cells.iter().zip(*grad) {
                    let cur = f32::from_bits(cell.load(Ordering::Relaxed));
                    cell.store((cur + x).to_bits(), Ordering::Relaxed);
                }
            });
        }
    });
}

/// Figure 20: MNIST top-1 accuracy, lossy vs sequential gradients.
fn fig20() {
    let worker_batch = 16;
    let train = synthetic_mnist(2048, 3);
    let test = synthetic_mnist(512, 77);
    let cfg = ModelConfig {
        batch: worker_batch,
        input_size: 28 * 28,
        channel_div: 1,
        classes: 10,
        with_loss: true,
        seed: 31,
    };

    // `workers` replicas each run forward/backward on their own shard in
    // their own thread; their gradients are raced into replica 0, which
    // takes an ordinary SGD step on the mean and re-broadcasts weights.
    let run = |workers: usize| -> f32 {
        let mut replicas: Vec<Executor> = (0..workers)
            .map(|_| {
                let net = models::mlp(&cfg, &[128, 64]).net;
                executor_or_die(
                    compile_or_die(&net, &OptLevel::full(), "mnist mlp"),
                    "mnist mlp",
                )
            })
            .collect();
        let params = replicas[0].params().to_vec();
        let mut solver = Sgd::new(SolverParams {
            lr_policy: LrPolicy::Fixed { lr: 0.02 },
            mom_policy: MomPolicy::Fixed { mom: 0.9 },
            regu_coef: 0.0,
            max_epoch: 4,
        });
        let mut sources: Vec<MemoryDataSource> = (0..workers)
            .map(|w| {
                let shard: Vec<_> = train.iter().skip(w).step_by(workers).cloned().collect();
                MemoryDataSource::try_new("data", "label", shard, worker_batch).unwrap()
            })
            .collect();
        for _epoch in 0..solver.params().max_epoch {
            for s in &mut sources {
                s.reset();
            }
            loop {
                let shards: Option<Vec<_>> = sources
                    .iter_mut()
                    .map(|s| s.next_batch().expect("batch"))
                    .collect();
                let Some(shards) = shards else { break };
                std::thread::scope(|scope| {
                    for (exec, shard) in replicas.iter_mut().zip(&shards) {
                        scope.spawn(move || {
                            for (ensemble, values) in shard {
                                exec.set_input(ensemble, values).expect("shard fits");
                            }
                            exec.forward();
                            exec.backward();
                        });
                    }
                });
                for p in &params {
                    let grads: Vec<&[f32]> = replicas
                        .iter()
                        .map(|r| r.buffer(&p.grad).expect("gradient readable"))
                        .collect();
                    let mut mean = vec![0.0f32; grads[0].len()];
                    racy_fold(&mut mean, &grads);
                    mean.iter_mut().for_each(|g| *g /= workers as f32);
                    replicas[0]
                        .write_buffer(&p.grad, &mean)
                        .expect("gradient writable");
                }
                let (master, rest) = replicas.split_first_mut().expect("at least one replica");
                solver.step(master);
                for p in &params {
                    let weights = master.buffer(&p.value).expect("parameter readable");
                    for replica in rest.iter_mut() {
                        replica
                            .write_buffer(&p.value, weights)
                            .expect("parameter writable");
                    }
                }
            }
        }
        top1_accuracy(&mut replicas[0], "data", "ip_out.value", &test).expect("accuracy")
    };

    let lossy = run(4);
    let sequential = run(1);
    let rows = vec![
        vec!["Goodfellow et al. (paper ref)".into(), "99.55%".into()],
        vec!["Adam (paper ref)".into(), "99.63%".into()],
        vec![
            "Latte (lossy, 4 workers)".into(),
            format!("{:.2}%", lossy * 100.0),
        ],
        vec![
            "Latte (sequential)".into(),
            format!("{:.2}%", sequential * 100.0),
        ],
    ];
    print_table(
        "Figure 20: MNIST-like top-1 accuracy (synthetic dataset)",
        &["system", "top-1"],
        &rows,
    );
    println!(
        "lossy == sequential (paper: both 99.20%): Δ = {:.3}%",
        (lossy - sequential).abs() * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::racy_fold;

    #[test]
    fn racy_fold_is_exact_alone_and_loses_at_most_whole_updates() {
        // One contribution: nothing to race with.
        let g: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let mut acc = vec![0.0f32; g.len()];
        racy_fold(&mut acc, &[&g]);
        assert_eq!(acc, g);
        // Four racing contributions of ones: each element keeps between
        // one and four of them — updates can be lost, never invented.
        let ones = vec![1.0f32; 4096];
        let mut acc = vec![0.0f32; ones.len()];
        racy_fold(&mut acc, &[&ones, &ones, &ones, &ones]);
        assert!(
            acc.iter()
                .all(|&v| (1.0..=4.0).contains(&v) && v.fract() == 0.0),
            "{acc:?}"
        );
    }
}
