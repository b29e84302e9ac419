//! Quickstart: the paper's Figure-7 multi-layer perceptron, trained on a
//! synthetic MNIST-like dataset with the SGD solver.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::{synthetic_mnist, DoubleBufferedSource, MemoryDataSource};
use latte::runtime::solver::{solve, LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::Executor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Net(8): an MLP 784 -> 128 -> 64 -> 10, softmax loss. This mirrors
    // the paper's Figure 7: layers from the standard library, a solver
    // with LRPolicy.Inv and fixed momentum, then solve(sgd, net).
    let cfg = ModelConfig {
        batch: 16,
        input_size: 28 * 28,
        channel_div: 1,
        classes: 10,
        with_loss: true,
        seed: 42,
    };
    let model = mlp(&cfg, &[128, 64]);

    let compiled = compile(&model.net, &OptLevel::full())?;
    println!(
        "compiled: {} forward groups, {} GEMMs matched, {} buffers aliased",
        compiled.forward.len(),
        compiled.stats.gemms_matched,
        compiled.stats.aliased_buffers,
    );
    let mut exec = Executor::new(compiled)?;

    let train = synthetic_mnist(1024, 7);
    let mut source = DoubleBufferedSource::new(
        MemoryDataSource::try_new("data", "label", train.clone(), cfg.batch).unwrap(),
    );

    let params = SolverParams {
        lr_policy: LrPolicy::Inv {
            base: 0.01,
            gamma: 0.0001,
            power: 0.75,
        },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0005,
        max_epoch: 5,
    };
    let mut sgd = Sgd::new(params);
    let report = solve(&mut sgd, &mut exec, &mut source)?;
    println!(
        "trained {} iterations: loss {:.4} -> {:.4}",
        report.iterations, report.initial_loss, report.final_loss
    );

    // Top-1 accuracy on held-out synthetic digits.
    let test = synthetic_mnist(256, 99);
    let mut correct = 0;
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
        let out = exec.read_buffer("ip_out.value")?;
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
        }
    }
    let evaluated = (test.len() / cfg.batch) * cfg.batch;
    println!(
        "test top-1 accuracy: {:.1}% ({correct}/{evaluated})",
        100.0 * correct as f32 / evaluated as f32
    );
    Ok(())
}
