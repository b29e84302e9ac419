//! Numerical self-healing: a supervised training run surviving a NaN
//! batch (quarantine), a corrupted gradient (hygiene veto), and a
//! learning-rate spike (rate cut + rollback) — next to an unguarded
//! control run showing what the same injections do without guardrails.
//!
//! ```text
//! cargo run --release --example self_healing
//! ```
//!
//! Set `LATTE_SENTINEL_MODE=exhaustive` (or `sampled:<stride>`, `off`)
//! to override how aggressively tensor buffers are scanned for NaN/Inf.

use latte::core::{compile, OptLevel};
use latte::ir::BufferKind;
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::MemoryDataSource;
use latte::runtime::fault::{Fault, FaultPlan};
use latte::runtime::health::{AnomalyReaction, HealthConfig, SentinelMode};
use latte::runtime::metrics::FaultMetrics;
use latte::runtime::solver::{LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::supervisor::{supervise, SupervisorConfig};
use latte::runtime::Executor;

fn build_exec() -> Result<Executor, Box<dyn std::error::Error>> {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 5,
    };
    Ok(Executor::new(compile(
        &mlp(&cfg, &[10]).net,
        &OptLevel::full(),
    )?)?)
}

fn source() -> Result<MemoryDataSource, Box<dyn std::error::Error>> {
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
    Ok(MemoryDataSource::try_new("data", "label", items, 4)?)
}

fn solver() -> Sgd {
    Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.1 },
        mom_policy: MomPolicy::None,
        regu_coef: 0.0,
        max_epoch: 3,
    })
}

fn run(
    label: &str,
    faults: Vec<Fault>,
    health: Option<HealthConfig>,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n{label}:");
    for f in &faults {
        println!("  injecting {f:?}");
    }
    let ckpt = std::env::temp_dir().join(format!("latte_self_healing_{}.ckpt", label.len()));
    let guarded = health.is_some();
    let cfg = SupervisorConfig {
        checkpoint_every: 5,
        health,
        ..SupervisorConfig::new(&ckpt)
    };
    let mut exec = build_exec()?;
    let mut solver = solver();
    let mut plan = FaultPlan::new(faults);
    let metrics = FaultMetrics::new();
    let report = supervise(
        &mut solver,
        &mut exec,
        &mut source()?,
        &cfg,
        &mut plan,
        &metrics,
    )?;
    println!(
        "  loss {:.4} -> {:.4} over {} iterations  \
         (quarantined {}, rollbacks {}, LR cuts {})",
        report.initial_loss,
        report.final_loss,
        report.iterations,
        report.quarantined,
        report.rollbacks,
        report.lr_reductions
    );
    let poisoned = exec
        .scan_numerics(SentinelMode::Exhaustive, |k| matches!(k, BufferKind::Param))
        .len();
    if poisoned > 0 {
        println!("  !! {poisoned} parameter buffer(s) poisoned with NaN — the net is bricked");
    } else if guarded {
        println!("  weights clean; counters: {}", metrics.snapshot());
    } else {
        println!("  weights clean");
    }
    let _ = std::fs::remove_file(&ckpt);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The production-grade guardrails: cheap sampled sentinels, gradient
    // hygiene, quarantine-on-NaN. `LATTE_SENTINEL_MODE` overrides the
    // scan mode from the environment.
    let guarded = HealthConfig {
        sentinel: SentinelMode::from_env(),
        ..HealthConfig::default()
    };

    run(
        "NaN batch, guarded (sentinel trips, batch quarantined)",
        vec![Fault::BatchNaN { iter: 7 }],
        Some(guarded.clone()),
    )?;
    run(
        "NaN batch, unguarded control (ReLU launders the NaN; the loss \
         never goes NaN — the first layer silently bricks instead)",
        vec![Fault::BatchNaN { iter: 7 }],
        None,
    )?;

    run(
        "corrupted gradient, guarded (hygiene vetoes the step)",
        vec![Fault::GradCorrupt { iter: 9 }],
        Some(guarded.clone()),
    )?;

    run(
        "LR spike x1000, guarded (divergence detected, rate cut, rollback)",
        vec![Fault::LrSpike {
            iter: 6,
            factor: 1000.0,
        }],
        Some(HealthConfig {
            on_bad_batch: AnomalyReaction::rollback_and_reduce_lr(),
            on_spike: AnomalyReaction::rollback_and_reduce_lr(),
            rollback_budget: 6,
            // Tight divergence detection: the loss layer clamps at
            // ~27.6 per item, so the default 10x threshold would let a
            // high post-rollback baseline mask continued divergence.
            spike_threshold: 4.0,
            warmup: 1,
            ..guarded
        }),
    )?;

    Ok(())
}
