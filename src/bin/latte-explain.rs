//! `latte-explain`: a compiler explorer for the Latte pipeline.
//!
//! Prints the synthesized program of a model at successive optimization
//! levels so the effect of each pass is visible — the textual analogue of
//! the paper's Figures 9, 10, and 12.
//!
//! ```text
//! cargo run --release --bin latte-explain -- [convblock|mlp|lenet|lstm|vgg] [--kernels]
//! ```
//!
//! `--kernels` prints instead what the runtime lowers the fully
//! optimized program to: per group its segments, GEMM shapes, and every
//! element program's instruction list, schedule and strip width. `vgg`
//! is the repo benchmark's `train.vgg` net, at its batch and sizes.

use latte::core::dsl::Net;
use latte::core::{compile, OptLevel};
use latte::nn::layers::{
    convolution, data, fully_connected, max_pool, relu, softmax_loss, ConvSpec,
};
use latte::nn::models::{lenet, mlp, vgg_prefix, ModelConfig};
use latte::runtime::registry::KernelRegistry;
use latte::runtime::{CompiledProgram, ExecConfig};

fn convblock() -> Net {
    let mut net = Net::new(2);
    let d = data(&mut net, "data", vec![8, 8, 3]);
    let c = convolution(&mut net, "conv1", d, ConvSpec::same(4, 3), 1);
    let r = relu(&mut net, "relu1", c);
    max_pool(&mut net, "pool1", r, 2, 2);
    net
}

fn mlp_net() -> Net {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 1,
    };
    mlp(&cfg, &[6]).net
}

fn lenet_net() -> Net {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 12,
        channel_div: 16,
        classes: 4,
        with_loss: true,
        seed: 1,
    };
    lenet(&cfg).net
}

/// VGG-A's first two conv groups on 32x32x3, batch 8, `channel_div` 4:
/// what the repo benchmark trains as `train.vgg`.
fn vgg_net() -> Net {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 32,
        channel_div: 4,
        classes: 100,
        with_loss: true,
        seed: 5,
    };
    vgg_prefix(&cfg, 2).net
}

fn lstm_net() -> Net {
    let mut step = Net::new(2);
    let x = step.add(latte::core::dsl::Ensemble::data("x", vec![4]));
    latte::nn::rnn::lstm(&mut step, "lstm", x, 3, 1);
    let mut net = step.unroll(2);
    let last = net.find("lstm_h@t1").expect("unrolled output");
    let head = fully_connected(&mut net, "head", last, 2, 5);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("convblock");
    let net = match which {
        "convblock" => convblock(),
        "mlp" => mlp_net(),
        "lenet" => lenet_net(),
        "lstm" => lstm_net(),
        "vgg" => vgg_net(),
        other => {
            eprintln!("unknown model `{other}`; use convblock|mlp|lenet|lstm|vgg");
            std::process::exit(2);
        }
    };
    if args.iter().any(|a| a == "--kernels") {
        let lowered = compile(&net, &OptLevel::full())
            .map_err(|e| e.to_string())
            .and_then(|c| {
                CompiledProgram::lower(c, &KernelRegistry::with_builtins(), ExecConfig::default())
                    .map_err(|e| e.to_string())
            });
        match lowered {
            Ok(program) => print!("{}", program.plan()),
            Err(e) => {
                eprintln!("lowering failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let stages: Vec<(&str, OptLevel)> = vec![
        ("synthesized (analysis only)", OptLevel::none()),
        (
            "+ GEMM pattern matching",
            OptLevel::none().with_pattern_match(true),
        ),
        (
            "+ tiling",
            OptLevel::none().with_pattern_match(true).with_tiling(true),
        ),
        (
            "+ cross-layer fusion",
            OptLevel::none()
                .with_pattern_match(true)
                .with_tiling(true)
                .with_fusion(true),
        ),
        ("+ parallel annotations (full)", OptLevel::full()),
    ];
    for (name, opt) in stages {
        let compiled = match compile(&net, &opt) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("compile failed at `{name}`: {e}");
                std::process::exit(1);
            }
        };
        println!("================================================================");
        println!(
            "== {name}   [gemms {}, tiled {}, fusions {}, aliased {}, dims dropped {}]",
            compiled.stats.gemms_matched,
            compiled.stats.groups_tiled,
            compiled.stats.fusions,
            compiled.stats.aliased_buffers,
            compiled.stats.dims_dropped
        );
        println!("================================================================");
        print!("{}", compiled.pretty());
    }
}
