//! Bit-identity and fault behaviour of the real distributed trainer:
//! a synchronized in-process `DistTrainer` group must match the serial
//! `train_replicated` oracle bit for bit, a world of one must match
//! plain single-process training, and a mid-run crash must leave the
//! survivors training in lossy mode.

use std::sync::Arc;

use latte_core::dsl::{EnsembleId, Net};
use latte_core::{compile, OptLevel};
use latte_nn::layers::{data, fully_connected, relu, softmax_loss, tanh};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::cluster::{train_replicated, SyncMode};
use latte_runtime::data::Batch;
use latte_runtime::dist::{net_fingerprint, DistTrainer};
use latte_runtime::fault::{Fault, FaultPlan, FaultyTransport};
use latte_runtime::ring::CommPolicy;
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::transport::{channel_group, channel_group_with, Transport};
use latte_runtime::Executor;

const BATCH: usize = 4;
const INPUT: usize = 6;
const CLASSES: usize = 3;
const WORLD: usize = 4;
const STEPS: u32 = 2;

fn build_executor(opt: &OptLevel) -> Executor {
    let cfg = ModelConfig {
        batch: BATCH,
        input_size: INPUT,
        channel_div: 1,
        classes: CLASSES,
        with_loss: true,
        seed: 7,
    };
    Executor::new(compile(&mlp(&cfg, &[8]).net, opt).expect("compile")).expect("executor")
}

fn solver() -> Sgd {
    Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.05 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 1,
    })
}

/// The deterministic shard `(step, rank)` consumes — the same function
/// the worker binary uses, so every process agrees on the data.
fn shard(step: u32, rank: usize) -> Batch {
    let mut inputs = Vec::with_capacity(BATCH * INPUT);
    let mut labels = Vec::with_capacity(BATCH);
    for item in 0..BATCH {
        let g = 7u64
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((step as u64) << 24)
            .wrapping_add((rank as u64) << 12)
            .wrapping_add(item as u64);
        let class = (g % CLASSES as u64) as usize;
        for j in 0..INPUT {
            let base = if j % CLASSES == class { 1.0 } else { 0.1 };
            inputs.push(base + ((g >> 8).wrapping_add(j as u64) % 7) as f32 * 0.01);
        }
        labels.push(class as f32);
    }
    vec![("data".into(), inputs), ("label".into(), labels)]
}

fn read_params(exec: &Executor) -> Vec<Vec<f32>> {
    exec.params()
        .iter()
        .map(|p| exec.read_buffer(&p.value).expect("param readable"))
        .collect()
}

/// Runs a `world`-rank in-process DistTrainer group for `steps` steps
/// and returns every rank's final parameters.
fn run_group(world: usize, steps: u32, opt: &OptLevel) -> Vec<Vec<Vec<f32>>> {
    let endpoints = channel_group(world).unwrap();
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let opt = *opt;
            std::thread::spawn(move || {
                let exec = build_executor(&opt);
                let mut trainer =
                    DistTrainer::new(exec, Box::new(ep), CommPolicy::default()).unwrap();
                let mut solver = solver();
                for step in 0..steps {
                    let batch = shard(step, rank);
                    let rep = trainer.step(&batch, &mut |e| solver.step(e)).unwrap();
                    assert_eq!(rep.mode, SyncMode::Synchronized, "rank {rank} degraded");
                    assert_eq!(rep.live, world);
                }
                read_params(trainer.exec())
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

/// The serial oracle's parameters after the same schedule.
fn run_oracle(world: usize, steps: u32, opt: &OptLevel) -> Vec<Vec<f32>> {
    let mut exec = build_executor(opt);
    let shards: Vec<Vec<Batch>> = (0..steps)
        .map(|s| (0..world).map(|r| shard(s, r)).collect())
        .collect();
    let mut solver = solver();
    train_replicated(&mut exec, &mut solver, &shards).unwrap();
    read_params(&exec)
}

#[test]
fn synchronized_group_matches_serial_oracle_bitwise() {
    // The tentpole's determinism contract, across optimization levels:
    // the real transport, comm thread, and overlapped streaming must not
    // perturb a single bit relative to the serial replicated oracle.
    for opt in [
        OptLevel::none(),
        OptLevel::parallel_only(),
        OptLevel::full(),
    ] {
        let oracle = run_oracle(WORLD, STEPS, &opt);
        let ranks = run_group(WORLD, STEPS, &opt);
        for (rank, params) in ranks.iter().enumerate() {
            assert_eq!(
                params, &oracle,
                "rank {rank} diverged from the serial oracle at {opt:?}"
            );
        }
    }
}

#[test]
fn world_of_one_matches_plain_training_bitwise() {
    // A solo ring must be invisible: same bits as a plain train loop.
    let mut exec = build_executor(&OptLevel::full());
    let mut plain_solver = solver();
    for step in 0..STEPS {
        for (name, data) in &shard(step, 0) {
            exec.set_input(name, data).unwrap();
        }
        exec.forward();
        exec.backward();
        plain_solver.step(&mut exec);
    }
    let plain = read_params(&exec);

    let dist = run_group(1, STEPS, &OptLevel::full());
    assert_eq!(
        dist[0], plain,
        "world-1 trainer diverged from plain training"
    );
}

#[test]
fn fingerprint_spots_a_mismatched_net() {
    let a = net_fingerprint(&build_executor(&OptLevel::full()));
    let b = net_fingerprint(&build_executor(&OptLevel::full()));
    assert_eq!(a, b, "fingerprint must be deterministic");
    let cfg = ModelConfig {
        batch: BATCH,
        input_size: INPUT,
        channel_div: 1,
        classes: CLASSES,
        with_loss: true,
        seed: 7,
    };
    let wider = Executor::new(compile(&mlp(&cfg, &[16]).net, &OptLevel::full()).unwrap()).unwrap();
    assert_ne!(a, net_fingerprint(&wider), "a wider net must not match");

    // Same parameters (names, sizes, initial values) and the same
    // buckets: only the activation between the two layers differs.
    let activated = |act: fn(&mut Net, &str, EnsembleId) -> EnsembleId| {
        let mut net = Net::new(BATCH);
        let x = data(&mut net, "data", vec![INPUT]);
        let hidden = fully_connected(&mut net, "ip1", x, 8, 7);
        let hidden = act(&mut net, "act1", hidden);
        let out = fully_connected(&mut net, "ip_out", hidden, CLASSES, 8);
        let label = data(&mut net, "label", vec![1]);
        softmax_loss(&mut net, "loss", out, label);
        net_fingerprint(&Executor::new(compile(&net, &OptLevel::full()).unwrap()).unwrap())
    };
    assert_eq!(activated(relu), activated(relu));
    assert_ne!(
        activated(relu),
        activated(tanh),
        "a different activation must not match"
    );
}

#[test]
fn mid_run_crash_degrades_survivors_to_lossy() {
    // Rank 2 of 3 goes silent from step 1 on: the survivors must evict
    // it, finish every step, and report the degraded mode with the
    // eviction on the books.
    let world = 3;
    let steps = 3u32;
    let plan = FaultPlan::new(vec![Fault::NodeCrash { node: 2, iter: 1 }]);
    let endpoints = channel_group_with(world, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 2 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
    })
    .unwrap();
    let policy = CommPolicy {
        op_timeout_ms: 400,
        max_retries: 2,
        lossy_timeout_ms: 150,
        ..CommPolicy::default()
    };
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let policy = policy.clone();
            std::thread::spawn(move || {
                let metrics = Arc::clone(ep.metrics());
                let exec = build_executor(&OptLevel::full());
                let mut trainer = DistTrainer::new(exec, Box::new(ep), policy).unwrap();
                let mut solver = solver();
                let mut last_mode = SyncMode::Synchronized;
                let mut last_live = world;
                for step in 0..steps {
                    let batch = shard(step, rank);
                    match trainer.step(&batch, &mut |e| solver.step(e)) {
                        Ok(rep) => {
                            last_mode = rep.mode;
                            last_live = rep.live;
                        }
                        Err(e) => {
                            // Only the crashed rank may fail its step.
                            assert_eq!(rank, 2, "survivor {rank} errored: {e}");
                            break;
                        }
                    }
                }
                (rank, last_mode, last_live, metrics.snapshot())
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (rank, mode, live, metrics) in &results {
        if *rank == 2 {
            continue;
        }
        assert_eq!(
            *mode,
            SyncMode::LossyDegraded,
            "survivor {rank} not degraded"
        );
        assert_eq!(*live, 2, "survivor {rank} sees wrong ring size");
        assert!(
            metrics.lossy_steps >= 1,
            "survivor {rank} recorded no lossy step"
        );
        assert!(
            metrics.peers_evicted >= 1,
            "survivor {rank} has no eviction on the books"
        );
    }
}
