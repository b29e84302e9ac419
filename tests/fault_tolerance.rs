//! End-to-end fault-tolerance acceptance tests (tier-1): a 4-rank ring —
//! the real transport, ring and trainer behind `FaultyTransport` —
//! surviving a dropped transfer, a straggler and a node crash, and a
//! single-node training run surviving a process death mid-epoch by
//! resuming from the supervisor's checkpoint.

use std::sync::Arc;

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::{Batch, MemoryDataSource};
use latte::runtime::dist::{run_ranks, DistTrainer};
use latte::runtime::fault::{Fault, FaultPlan, FaultyTransport};
use latte::runtime::metrics::FaultMetrics;
use latte::runtime::ring::{CommPolicy, SyncMode};
use latte::runtime::solver::{solve, LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte::runtime::supervisor::{supervise, SupervisorConfig};
use latte::runtime::transport::{channel_group_with, Transport};
use latte::runtime::Executor;

const WORLD: usize = 4;
const STEPS: u32 = 12;

/// The scripted faults. Rank 1 sits behind a slow link for the whole
/// run (5 ms per frame), so its neighbour's latency estimate is a stable
/// 5 ms rather than scheduler noise, and "slow" is 25x that:
///
/// * step 2 — rank 0's first reduce-scatter frame is dropped; rank 1
///   times out, asks again, and the step stays synchronized;
/// * steps 6–7 — rank 1 takes 120 ms per frame; rank 2's EWMA flags it;
/// * step 10 — rank 2 goes silent for good; the others evict it and
///   finish lossy over the three survivors.
fn scripted_plan() -> FaultPlan {
    FaultPlan::new(vec![
        Fault::Straggler {
            node: 1,
            from_iter: 0,
            to_iter: STEPS as usize,
            factor: 2.0,
        },
        Fault::TransferDrop {
            node: 0,
            iter: 2,
            layer: 0,
        },
        Fault::Straggler {
            node: 1,
            from_iter: 6,
            to_iter: 8,
            factor: 12.5,
        },
        Fault::NodeCrash { node: 2, iter: 10 },
    ])
}

fn ring_policy() -> CommPolicy {
    CommPolicy {
        op_timeout_ms: 250,
        max_retries: 2,
        lossy_timeout_ms: 150,
        straggler_threshold: 8.0,
        // Six receives per peer per step: the detector arms after step 2,
        // so the wait behind the drop's retry is not taken for a straggler.
        straggler_grace: 18,
        ..CommPolicy::default()
    }
}

/// One replica of a softmax classifier: a single gradient bucket, so a
/// step is six frames per rank.
fn replica() -> Executor {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 5,
    };
    Executor::new(compile(&mlp(&cfg, &[]).net, &OptLevel::full()).unwrap()).unwrap()
}

fn shard(step: u32, rank: usize) -> Batch {
    let (mut inputs, mut labels) = (Vec::new(), Vec::new());
    for item in 0..4 {
        let class = (step as usize + rank + item) % 3;
        inputs.extend((0..8).map(|j| {
            if j % 3 == class {
                1.0
            } else {
                0.05 * (rank + 1) as f32
            }
        }));
        labels.push(class as f32);
    }
    vec![("data".into(), inputs), ("label".into(), labels)]
}

/// A 4-rank ring hit by a dropped gradient transfer, a straggler phase
/// and a mid-run crash recovers: the transfer is retried, the straggler
/// is flagged by its neighbour's EWMA while it is slow and only then,
/// and after the crash the all-reduce degrades to the lossy mode over
/// the three survivors — with every event on the books.
#[test]
fn cluster_survives_crash_straggler_and_dropped_transfer() {
    let plan = scripted_plan();
    let endpoints = channel_group_with(WORLD, |rank, wire| {
        FaultyTransport::new(rank, plan.clone(), wire)
    })
    .unwrap();
    // Per rank: the report and the counters after every completed step.
    let runs = run_ranks(endpoints, |rank, ep| {
        let metrics = Arc::clone(ep.metrics());
        let mut trainer = DistTrainer::new(replica(), Box::new(ep), ring_policy()).unwrap();
        let mut solver = Sgd::new(training_params());
        let mut steps = Vec::new();
        for step in 0..STEPS {
            match trainer.step(&shard(step, rank), &mut |e| solver.step(e)) {
                Ok(report) => steps.push((report, metrics.snapshot())),
                // The crashed rank may notice it is alone and stop.
                Err(e) => {
                    assert_eq!(rank, 2, "survivor {rank} failed step {step}: {e}");
                    break;
                }
            }
        }
        steps
    });
    let survivors = [0, 1, 3];
    for &rank in &survivors {
        assert_eq!(
            runs[rank].len(),
            STEPS as usize,
            "survivor {rank} must finish every step"
        );
    }
    let counters = |rank: usize, step: usize| runs[rank][step].1;

    // The dropped transfer is retried — its sender services exactly the
    // resend it was asked for — and the step stays synchronized.
    let retries_after = |step| (0..WORLD).map(|r| counters(r, step).retries).sum::<u64>();
    assert_eq!(retries_after(1), 0);
    assert!(retries_after(2) >= 1, "the lost frame must cost a retry");
    assert_eq!(counters(0, 1).send_retries, 0);
    assert!(
        counters(0, 2).send_retries >= 1,
        "rank 0 must have re-sent it"
    );
    for run in &runs {
        assert_eq!(
            (run[2].0.mode, run[2].0.live),
            (SyncMode::Synchronized, WORLD)
        );
    }

    // The straggler is flagged by its downstream neighbour when it turns
    // slow, and at no other time: not during the retry above, not before,
    // and not again once it has recovered.
    let flagged = |step| counters(2, step).stragglers_detected;
    assert_eq!(flagged(5), 0, "no flag while rank 1 is healthy");
    assert!(
        flagged(6) >= 1,
        "the 25x slowdown must trip rank 2's detector"
    );
    assert_eq!(flagged(9), flagged(7), "no flag after recovery");
    // Slow is not dead.
    assert!(runs
        .iter()
        .all(|run| run[9].0.evicted.is_empty() && run[9].1.peers_evicted == 0));

    // The crash removes rank 2 from the ring — evicted by the neighbour
    // that waited on it — and degrades the run to the lossy mode over
    // the three survivors.
    for &rank in &survivors {
        let steps = &runs[rank];
        assert_eq!(
            (steps[9].0.mode, steps[9].0.live),
            (SyncMode::Synchronized, WORLD)
        );
        for step in [10, 11] {
            assert_eq!(
                (steps[step].0.mode, steps[step].0.live),
                (SyncMode::LossyDegraded, 3)
            );
        }
    }
    assert_eq!(runs[3][10].0.evicted, vec![2]);

    // Every event is on the books of every survivor.
    for &rank in &survivors {
        let snap = counters(rank, STEPS as usize - 1);
        assert_eq!(snap.peers_evicted, 1);
        assert_eq!(snap.lossy_steps, 2);
        let text = snap.to_string();
        assert!(
            text.contains("peers_evicted=1") && text.contains("lossy_steps=2"),
            "{text}"
        );
        assert!(
            text.starts_with(&format!("retries={} ", snap.retries)),
            "{text}"
        );
    }
}

fn build_exec(seed: u64) -> Executor {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed,
    };
    Executor::new(compile(&mlp(&cfg, &[10]).net, &OptLevel::full()).unwrap()).unwrap()
}

fn training_source() -> MemoryDataSource {
    let items: Vec<(Vec<f32>, f32)> = (0..40)
        .map(|i| {
            let class = i % 3;
            let x: Vec<f32> = (0..8)
                .map(|j| {
                    let base = if j % 3 == class { 1.0 } else { 0.05 };
                    base + ((i * 8 + j) % 11) as f32 * 0.01
                })
                .collect();
            (x, class as f32)
        })
        .collect();
    MemoryDataSource::try_new("data", "label", items, 4).unwrap()
}

fn training_params() -> SolverParams {
    SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.1 },
        // No momentum: the update rule is a pure function of weights and
        // gradients, so recovery from a checkpoint is bit-exact.
        mom_policy: MomPolicy::None,
        regu_coef: 0.0,
        max_epoch: 3,
    }
}

/// Training killed mid-epoch resumes from the supervisor's checkpoint
/// and reaches the same final loss as the fault-free run.
#[test]
fn supervisor_recovers_process_death_mid_epoch() {
    // Fault-free baseline with the plain training loop.
    let mut exec_base = build_exec(5);
    let mut solver_base = Sgd::new(training_params());
    let baseline = solve(&mut solver_base, &mut exec_base, &mut training_source()).unwrap();
    assert!(
        baseline.final_loss < baseline.initial_loss,
        "baseline must learn: {baseline:?}"
    );

    // Supervised run killed mid-epoch (iteration 16 of 30; 10 iterations
    // per epoch, checkpoints every 6).
    let dir = std::env::temp_dir().join("latte_e2e_fault_tolerance");
    let _ = std::fs::create_dir_all(&dir);
    let cfg = SupervisorConfig {
        checkpoint_every: 6,
        ..SupervisorConfig::new(dir.join("ckpt.bin"))
    };
    let mut plan = FaultPlan::new(vec![Fault::ProcessDeath { iter: 16 }]);
    let mut exec = build_exec(5);
    let mut solver = Sgd::new(training_params());
    let metrics = FaultMetrics::new();
    let report = supervise(
        &mut solver,
        &mut exec,
        &mut training_source(),
        &cfg,
        &mut plan,
        &metrics,
    )
    .unwrap();

    assert_eq!(report.restarts, 1);
    // Last checkpoint before the death at 16 was at iteration 12, which
    // is mid-epoch (epoch 1, iteration 2 of 10).
    assert_eq!(report.resumed_from, vec![12]);
    // 30 productive iterations plus the 5 replayed ones (12..=16).
    assert_eq!(report.iterations, 35);

    let rel = (report.final_loss - baseline.final_loss).abs() / baseline.final_loss.abs();
    assert!(
        rel < 1e-5,
        "recovered loss {} must match fault-free loss {} (rel err {rel})",
        report.final_loss,
        baseline.final_loss
    );

    let snap = metrics.snapshot();
    assert_eq!(snap.restores, 1);
    assert!(snap.checkpoints_saved >= 5, "{snap:?}");
    assert_eq!(snap.io_errors, 0);
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
}
