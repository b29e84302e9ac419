//! Data-parallel training in one process: four `DistTrainer` replicas on
//! an in-process `channel_group`, each streaming its gradients layer by
//! layer into the ring all-reduce while its backward pass is still
//! running, and stepping an ordinary solver on the merged result. The
//! same trainer runs multi-process over TCP (`latte-worker`).
//!
//! ```text
//! cargo run --release --example distributed
//! ```
//!
//! (The Fig 18–19 scaling projections are `figures -- fig18|fig19`; the
//! Fig 20 lossy-accumulation experiment is `figures -- fig20`.)

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::{synthetic_mnist, BatchSource, MemoryDataSource};
use latte::runtime::dist::{run_ranks, DistTrainer};
use latte::runtime::metrics::top1_accuracy;
use latte::runtime::ring::CommPolicy;
use latte::runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte::runtime::transport::channel_group;
use latte::runtime::{Executor, RuntimeError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let worker_batch = 8;
    let world = 4;
    let cfg = ModelConfig {
        batch: worker_batch,
        input_size: 28 * 28,
        channel_div: 1,
        classes: 10,
        with_loss: true,
        seed: 21,
    };
    let train = synthetic_mnist(1024, 5);
    let test = synthetic_mnist(256, 77);

    let ranks = run_ranks(
        channel_group(world)?,
        |rank, endpoint| -> Result<_, RuntimeError> {
            let compiled = compile(&mlp(&cfg, &[64]).net, &OptLevel::full()).expect("compiles");
            let mut trainer = DistTrainer::new(
                Executor::new(compiled)?,
                Box::new(endpoint),
                CommPolicy::default(),
            )?;
            let mut solver = Sgd::new(SolverParams {
                lr_policy: LrPolicy::Fixed { lr: 0.02 },
                mom_policy: MomPolicy::Fixed { mom: 0.9 },
                regu_coef: 0.0,
                max_epoch: 3,
            });
            let shard: Vec<_> = train.iter().skip(rank).step_by(world).cloned().collect();
            let mut source = MemoryDataSource::try_new("data", "label", shard, worker_batch)?;
            let mut last = 0.0;
            let mut steps = 0;
            for _epoch in 0..solver.params().max_epoch {
                source.reset();
                while let Some(batch) = source.next_batch()? {
                    last = trainer.step(&batch, &mut |e| solver.step(e))?.loss;
                    steps += 1;
                }
            }
            let accuracy = top1_accuracy(trainer.exec_mut(), "data", "ip_out.value", &test)?;
            Ok((last, accuracy, steps, trainer.mode()))
        },
    );

    for (rank, outcome) in ranks.into_iter().enumerate() {
        let (loss, accuracy, steps, mode) = outcome?;
        println!(
            "rank {rank}: {steps} steps {mode:?}, final shard loss {loss:.4}, top-1 accuracy {:.1}%",
            accuracy * 100.0,
        );
    }
    Ok(())
}
