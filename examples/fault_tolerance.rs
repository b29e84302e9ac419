//! Fault-tolerant training: a four-rank ring (real transport, ring
//! all-reduce and trainer, faults injected into the wire) surviving a
//! dropped gradient transfer, a straggler and a crash, then a
//! single-node training run killed mid-epoch and resumed from the
//! supervisor's checkpoint.
//!
//! ```text
//! cargo run --release --example fault_tolerance [--seed N]
//! ```
//!
//! With `--seed N` the ring's faults are sampled (reproducibly) from
//! `FaultRates` instead of the scripted plan; how real threads ride out
//! a sampled plan can differ in detail from run to run.

use std::sync::Arc;

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::MemoryDataSource;
use latte::runtime::dist::{run_ranks, DistTrainer};
use latte::runtime::fault::{Fault, FaultPlan, FaultRates, FaultyTransport};
use latte::runtime::metrics::{FaultMetrics, FaultMetricsSnapshot};
use latte::runtime::ring::CommPolicy;
use latte::runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte::runtime::supervisor::{supervise, SupervisorConfig};
use latte::runtime::transport::{channel_group_with, Transport};
use latte::runtime::{Executor, RuntimeError};

const WORLD: usize = 4;
const STEPS: u32 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed = match args.next().as_deref() {
        Some("--seed") => {
            let v = args
                .next()
                .ok_or("--seed requires a value, e.g. --seed 7")?;
            Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?)
        }
        Some(other) => {
            return Err(
                format!("unknown argument {other:?}; usage: fault_tolerance [--seed N]").into(),
            )
        }
        None => None,
    };

    // --- 1. A ring under fire ------------------------------------------
    // Four real ranks — transport, ring all-reduce, trainer — with the
    // plan's faults injected into each rank's wire.
    let plan = match seed {
        Some(s) => {
            println!("random fault plan, seed {s}:");
            FaultPlan::random(s, WORLD, STEPS as usize, 1, &FaultRates::default())
        }
        None => {
            println!("scripted fault plan:");
            // Rank 1 sits behind a slow link throughout (5 ms per frame),
            // which gives its neighbour's straggler detector a stable
            // baseline; for steps 6-7 it is 25x slower than that.
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
    };
    for f in plan.faults() {
        println!("  {f:?}");
    }
    let policy = CommPolicy {
        op_timeout_ms: 250,
        max_retries: 2,
        lossy_timeout_ms: 150,
        straggler_threshold: 8.0,
        // Armed from step 3 on (six receives per peer per step).
        straggler_grace: 18,
        ..CommPolicy::default()
    };
    let endpoints = channel_group_with(WORLD, |rank, wire| {
        FaultyTransport::new(rank, plan.clone(), wire)
    })?;
    // Per rank: each completed step's report and the counters after it.
    let runs = run_ranks(endpoints, |rank, endpoint| -> Result<_, RuntimeError> {
        let metrics = Arc::clone(endpoint.metrics());
        let cfg = ModelConfig {
            batch: 4,
            input_size: 8,
            channel_div: 1,
            classes: 3,
            with_loss: true,
            seed: 5,
        };
        // A softmax classifier: one gradient bucket, six frames per step.
        let net = mlp(&cfg, &[]).net;
        let exec = Executor::new(compile(&net, &OptLevel::full()).expect("compiles"))?;
        let mut trainer = DistTrainer::new(exec, Box::new(endpoint), policy.clone())?;
        let mut solver = Sgd::new(SolverParams {
            lr_policy: LrPolicy::Fixed { lr: 0.1 },
            mom_policy: MomPolicy::None,
            regu_coef: 0.0,
            max_epoch: 1,
        });
        let mut steps = Vec::new();
        for step in 0..STEPS {
            let class = |item: usize| (step as usize + rank + item) % 3;
            let inputs = (0..4 * 8)
                .map(|i| if i % 8 % 3 == class(i / 8) { 1.0 } else { 0.1 })
                .collect();
            let labels = (0..4).map(|item| class(item) as f32).collect();
            let batch = vec![("data".to_string(), inputs), ("label".to_string(), labels)];
            // A rank the ring has given up on stops here.
            let Ok(report) = trainer.step(&batch, &mut |e| solver.step(e)) else {
                break;
            };
            steps.push((report, metrics.snapshot()));
        }
        Ok(steps)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    println!("\n{WORLD}-rank ring, {STEPS} steps (batch 4/rank):");
    // A crashed rank keeps computing behind its dead wire; only the ranks
    // the plan left alive speak for the ring.
    let speakers = |step: usize| -> Vec<usize> {
        (0..WORLD)
            .filter(|&r| !plan.crashed_by(r, step) && runs[r].len() > step)
            .collect()
    };
    let report = |rank: usize, step: usize| &runs[rank][step].0;
    // Whether one of `rank`'s counters grew during `step`.
    let grew = |rank: usize, step: usize, count: fn(&FaultMetricsSnapshot) -> u64| {
        let at = |s: usize| runs[rank].get(s).map_or(0, |(_, m)| count(m));
        runs[rank].len() > step && at(step) > if step == 0 { 0 } else { at(step - 1) }
    };
    for step in 0..STEPS as usize {
        let ranks = speakers(step);
        let Some(&first) = ranks.first() else { break };
        let mut notes = Vec::new();
        for fault in plan.faults() {
            match *fault {
                Fault::TransferDrop { node, iter, .. }
                | Fault::TransferCorrupt { node, iter, .. }
                    if iter == step && grew(node, step, |m| m.send_retries) =>
                {
                    notes.push(format!("rank {node} re-sent a lost frame"));
                }
                Fault::Straggler {
                    node, from_iter, ..
                } if from_iter == step => {
                    let downstream = ranks.iter().copied().find(|&r| r > node).unwrap_or(first);
                    if grew(downstream, step, |m| m.stragglers_detected) {
                        notes.push(format!(
                            "rank {downstream} flagged rank {node} as a straggler"
                        ));
                    }
                }
                _ => {}
            }
        }
        let mut evicted: Vec<usize> = ranks
            .iter()
            .flat_map(|&r| report(r, step).evicted.clone())
            .collect();
        evicted.sort_unstable();
        evicted.dedup();
        if !evicted.is_empty() {
            notes.push(format!("evicted: {evicted:?}"));
        }
        let (mode, live) = (report(first, step).mode, report(first, step).live);
        let line = format!("{mode:?} over {live} rank(s)  {}", notes.join(", "));
        println!("  step {step:>2}: {}", line.trim_end());
    }
    if let Some(&speaker) = speakers(STEPS as usize - 1).first() {
        let (last, books) = &runs[speaker][STEPS as usize - 1];
        println!(
            "survivors: {}/{WORLD}, final mode {:?}",
            last.live, last.mode
        );
        println!(
            "rank {speaker}'s books: peers_evicted={} lossy_steps={}",
            books.peers_evicted, books.lossy_steps
        );
    }

    // --- 2. Supervisor recovering a mid-epoch process death ------------
    println!("\nsupervised training, process killed after iteration 16:");
    let cfg = ModelConfig {
        batch: 4,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 5,
    };
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
    let mut source = MemoryDataSource::try_new("data", "label", items, 4)?;
    let mut exec = Executor::new(compile(&mlp(&cfg, &[10]).net, &OptLevel::full())?)?;
    let mut solver = Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.1 },
        mom_policy: MomPolicy::None,
        regu_coef: 0.0,
        max_epoch: 3,
    });
    let ckpt = std::env::temp_dir().join("latte_fault_tolerance_example.ckpt");
    let sup_cfg = SupervisorConfig {
        checkpoint_every: 6,
        ..SupervisorConfig::new(&ckpt)
    };
    let mut death = FaultPlan::new(vec![Fault::ProcessDeath { iter: 16 }]);
    let sup_metrics = FaultMetrics::new();
    let report = supervise(
        &mut solver,
        &mut exec,
        &mut source,
        &sup_cfg,
        &mut death,
        &sup_metrics,
    )?;
    println!(
        "  loss {:.4} -> {:.4} over {} iterations, {} restart(s), resumed from {:?}",
        report.initial_loss,
        report.final_loss,
        report.iterations,
        report.restarts,
        report.resumed_from
    );
    println!("  fault counters: {}", sup_metrics.snapshot());
    let _ = std::fs::remove_file(&ckpt);
    Ok(())
}
