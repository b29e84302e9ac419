//! In-process data parallelism is N `DistTrainer`s on `channel_group(N)`
//! stepping the ordinary solver: a synchronized group learns, a world of
//! one degenerates to plain training, and a rank with a malformed shard
//! fails alone and by name. (Bit-identity with the serial oracle is
//! pinned in `dist_train.rs`.)

use latte_core::{compile, OptLevel};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::data::{Batch, BatchSource, MemoryDataSource};
use latte_runtime::dist::{run_ranks, DistTrainer};
use latte_runtime::metrics::top1_accuracy;
use latte_runtime::ring::{CommPolicy, SyncMode};
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::transport::channel_group;
use latte_runtime::{Executor, RuntimeError};

fn items(n: usize) -> Vec<(Vec<f32>, f32)> {
    (0..n)
        .map(|i| {
            let class = i % 3;
            let x: Vec<f32> = (0..9)
                .map(|j| {
                    if j % 3 == class {
                        1.0
                    } else {
                        0.05 + (i % 5) as f32 * 0.01
                    }
                })
                .collect();
            (x, class as f32)
        })
        .collect()
}

fn replica() -> Executor {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 9,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 11,
    };
    Executor::new(compile(&mlp(&cfg, &[8]).net, &OptLevel::full()).unwrap()).unwrap()
}

fn sgd() -> Sgd {
    Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.05 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 6,
    })
}

/// Trains `world` ranks for `epochs` over interleaved shards of one
/// dataset; returns each rank's `(last loss, held-out accuracy)`.
fn train(world: usize, epochs: usize) -> Vec<(f32, f32)> {
    let all = items(96);
    run_ranks(channel_group(world).unwrap(), |rank, ep| {
        let mut trainer = DistTrainer::new(replica(), Box::new(ep), CommPolicy::default()).unwrap();
        let mut solver = sgd();
        let shard: Vec<_> = all.iter().skip(rank).step_by(world).cloned().collect();
        let mut source = MemoryDataSource::try_new("data", "label", shard, 4).unwrap();
        let mut last = f32::NAN;
        for _ in 0..epochs {
            source.reset();
            while let Some(batch) = source.next_batch().unwrap() {
                let report = trainer.step(&batch, &mut |e| solver.step(e)).unwrap();
                assert_eq!(report.mode, SyncMode::Synchronized);
                assert_eq!(report.live, world);
                last = report.loss;
            }
        }
        let acc = top1_accuracy(trainer.exec_mut(), "data", "ip_out.value", &items(48)).unwrap();
        (last, acc)
    })
}

#[test]
fn synchronized_multi_worker_learns() {
    let ranks = train(4, 6);
    for (rank, (loss, acc)) in ranks.iter().enumerate() {
        assert!(*loss < 0.3, "rank {rank} loss {loss}");
        assert!(*acc > 0.9, "rank {rank} accuracy {acc}");
    }
    // Every replica took the same merged updates.
    assert!(ranks.iter().all(|r| r.1 == ranks[0].1), "{ranks:?}");
}

#[test]
fn single_worker_degenerates_to_plain_training() {
    let (loss, acc) = train(1, 6)[0];
    assert!(loss < 0.3, "loss {loss}");
    assert!(acc > 0.9, "accuracy {acc}");
}

#[test]
fn a_malformed_shard_fails_its_own_rank_by_name_and_nothing_else() {
    let good: Batch = vec![
        ("data".into(), vec![0.1; 4 * 9]),
        ("label".into(), vec![0.0; 4]),
    ];
    // Rank 2's first shard names an ensemble that does not exist.
    let bad: Batch = vec![("nonsense".into(), vec![0.0; 4])];
    let reports = run_ranks(channel_group(3).unwrap(), |rank, ep| {
        let mut trainer = DistTrainer::new(replica(), Box::new(ep), CommPolicy::default()).unwrap();
        let mut solver = sgd();
        if rank == 2 {
            let err = trainer.step(&bad, &mut |e| solver.step(e)).unwrap_err();
            assert!(matches!(err, RuntimeError::UnknownBuffer { .. }), "{err:?}");
            assert!(err.to_string().contains("nonsense"), "{err}");
        }
        // An input error is raised before anything is sent, so it is not
        // terminal: the same trainer joins its peers' step with a good shard.
        trainer.step(&good, &mut |e| solver.step(e)).unwrap()
    });
    for report in &reports {
        assert!(report.loss.is_finite());
        assert_eq!((report.mode, report.live), (SyncMode::Synchronized, 3));
    }
}
