//! A LeNet-style convolutional network on the synthetic MNIST-like
//! dataset, exercising the full compiler pipeline (staging copies, GEMM
//! pattern matching, tiling, conv+ReLU+pool fusion) plus the
//! double-buffered data loader.
//!
//! ```text
//! cargo run --release --example convnet
//! LATTE_THREADS=2 cargo run --release --example convnet   # same output
//! ```
//!
//! The schedule is the compiler's: the tile loops the parallelize pass
//! marks are shared across `LATTE_THREADS` workers, and a one-thread
//! pool runs the same lanes in order on the caller, so every thread
//! count prints the same numbers.

use latte::core::{compile, OptLevel};
use latte::nn::models::{lenet, ModelConfig};
use latte::runtime::data::{synthetic_mnist, DoubleBufferedSource, MemoryDataSource};
use latte::runtime::solver::{solve, LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::Executor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 28,
        channel_div: 4, // scaled-down LeNet for quick runs
        classes: 10,
        with_loss: true,
        seed: 11,
    };
    let model = lenet(&cfg);
    let compiled = compile(&model.net, &OptLevel::full())?;
    println!(
        "LeNet compiled: {} fwd groups ({} fusions, {} GEMMs)",
        compiled.forward.len(),
        compiled.stats.fusions,
        compiled.stats.gemms_matched
    );
    for g in &compiled.forward {
        println!("  group {}", g.name);
    }

    let mut exec = Executor::new(compiled)?;
    let train = synthetic_mnist(512, 3);
    let mut source = DoubleBufferedSource::new(
        MemoryDataSource::try_new("data", "label", train, cfg.batch).unwrap(),
    );
    let mut sgd = Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.01 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0005,
        max_epoch: 3,
    });
    let report = solve(&mut sgd, &mut exec, &mut source)?;
    println!(
        "trained {} iterations: loss {:.4} -> {:.4}",
        report.iterations, report.initial_loss, report.final_loss
    );

    // Accuracy.
    let test = synthetic_mnist(200, 91);
    let mut correct = 0;
    let mut total = 0;
    for chunk in test.chunks(cfg.batch) {
        if chunk.len() < cfg.batch {
            break;
        }
        let mut inputs = Vec::new();
        for (x, _) in chunk {
            inputs.extend_from_slice(x);
        }
        exec.set_input("data", &inputs)?;
        exec.set_input("label", &vec![0.0; cfg.batch])?;
        exec.forward();
        let out = exec.read_buffer("ip2.value")?;
        for (i, (_, label)) in chunk.iter().enumerate() {
            let row = &out[i * 10..(i + 1) * 10];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(j, _)| j)
                .unwrap_or(0);
            if pred == *label as usize {
                correct += 1;
            }
            total += 1;
        }
    }
    println!(
        "test top-1 accuracy: {:.1}% ({correct}/{total})",
        100.0 * correct as f32 / total as f32
    );
    Ok(())
}
