//! End-to-end numerical self-healing acceptance tests (tier-1): seeded
//! NaN-batch, corrupted-gradient, and learning-rate-spike injections
//! against a supervised training run with the health guardrails on —
//! and, as negative controls, the same injections with the guardrails
//! off.
//!
//! A note on the negative controls: in this stack a NaN never reaches
//! the *loss scalar*. ReLU computes `max(x, 0)` (which maps NaN to 0)
//! and the loss layer clamps probabilities before the log, so an
//! unguarded NaN injection does not blow the loss up to NaN — it
//! silently bricks the poisoned layer's weights and pins the loss at
//! chance level forever. That silent failure mode is precisely why the
//! buffer sentinels exist: loss-only monitoring provably cannot see it.
//! The controls therefore assert the *poisoned-parameters* signature
//! (NaN weights + chance-level loss) rather than a NaN loss.

use latte::core::{compile, OptLevel};
use latte::ir::BufferKind;
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::MemoryDataSource;
use latte::runtime::fault::{Fault, FaultPlan};
use latte::runtime::health::{AnomalyReaction, HealthConfig, SentinelMode};
use latte::runtime::metrics::FaultMetrics;
use latte::runtime::solver::{solve, LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::supervisor::{supervise, SupervisorConfig, SupervisorReport};
use latte::runtime::Executor;

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
    // 40 items / batch 4 = 10 iterations per epoch.
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
        mom_policy: MomPolicy::None,
        regu_coef: 0.0,
        max_epoch: 3,
    }
}

/// The guarded health policy under test. `LATTE_SENTINEL_MODE` (set to
/// `exhaustive` in the nightly CI matrix) overrides the scan mode.
fn health() -> HealthConfig {
    HealthConfig {
        sentinel: SentinelMode::from_env(),
        ..HealthConfig::default()
    }
}

fn ckpt(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("latte_e2e_self_healing");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.bin"))
}

fn run_supervised(
    cfg: &SupervisorConfig,
    plan: &mut FaultPlan,
    metrics: &FaultMetrics,
) -> (SupervisorReport, Executor) {
    let mut exec = build_exec(5);
    let mut solver = Sgd::new(training_params());
    let report = supervise(
        &mut solver,
        &mut exec,
        &mut training_source(),
        cfg,
        plan,
        metrics,
    )
    .unwrap();
    (report, exec)
}

fn fault_free_baseline() -> f32 {
    let mut exec = build_exec(5);
    let mut solver = Sgd::new(training_params());
    let report = solve(&mut solver, &mut exec, &mut training_source()).unwrap();
    assert!(
        report.final_loss < report.initial_loss,
        "baseline must learn: {report:?}"
    );
    report.final_loss
}

/// Counts non-finite parameter values after a run — the signature of a
/// network silently bricked by an unguarded NaN.
fn poisoned_params(exec: &Executor) -> usize {
    exec.scan_numerics(SentinelMode::Exhaustive, |k| matches!(k, BufferKind::Param))
        .len()
}

/// A seeded NaN batch at iteration 7: the monitored run trips a
/// sentinel, quarantines the batch, and finishes within tolerance of the
/// fault-free run. The unguarded control bricks its first layer.
#[test]
fn nan_batch_is_quarantined_and_the_run_recovers() {
    let baseline = fault_free_baseline();

    let cfg = SupervisorConfig {
        health: Some(health()),
        ..SupervisorConfig::new(ckpt("nan_guarded"))
    };
    let metrics = FaultMetrics::new();
    let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 7 }]);
    let (report, exec) = run_supervised(&cfg, &mut plan, &metrics);

    assert!(report.final_loss.is_finite());
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.rollbacks, 0, "default policy skips, not rewinds");
    assert_eq!(poisoned_params(&exec), 0, "weights stayed clean");
    // One batch of 30 was skipped; the trajectory stays close to the
    // fault-free one.
    let rel = (report.final_loss - baseline).abs() / baseline.abs();
    assert!(
        rel < 0.25,
        "guarded loss {} vs baseline {baseline} (rel {rel})",
        report.final_loss
    );
    let snap = metrics.snapshot();
    assert_eq!(snap.batches_quarantined, 1);
    assert!(snap.sentinel_trips >= 1, "{snap:?}");
    let _ = std::fs::remove_file(&cfg.checkpoint_path);

    // Negative control: guards off, same injection.
    let unguarded = SupervisorConfig::new(ckpt("nan_unguarded"));
    let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 7 }]);
    let (control, exec) = run_supervised(&unguarded, &mut plan, &FaultMetrics::new());
    assert!(
        poisoned_params(&exec) > 0,
        "unguarded injection must brick the weights"
    );
    assert!(
        control.final_loss > 1.0,
        "unguarded loss pinned at chance (~ln 3), got {}",
        control.final_loss
    );
    let _ = std::fs::remove_file(&unguarded.checkpoint_path);
}

/// The same injection under a rollback policy: the run rewinds to the
/// last good checkpoint, skips the quarantined batch on replay, and
/// still converges.
#[test]
fn nan_batch_rollback_policy_rewinds_and_converges() {
    let baseline = fault_free_baseline();
    let cfg = SupervisorConfig {
        checkpoint_every: 5,
        health: Some(HealthConfig {
            on_bad_batch: AnomalyReaction::rollback_and_quarantine(),
            ..health()
        }),
        ..SupervisorConfig::new(ckpt("nan_rollback"))
    };
    let metrics = FaultMetrics::new();
    let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 7 }]);
    let (report, exec) = run_supervised(&cfg, &mut plan, &metrics);

    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.resumed_from, vec![5]);
    assert_eq!(report.quarantined, 1);
    assert_eq!(poisoned_params(&exec), 0);
    let rel = (report.final_loss - baseline).abs() / baseline.abs();
    assert!(
        rel < 0.25,
        "loss {} vs baseline {baseline}",
        report.final_loss
    );
    assert_eq!(metrics.snapshot().rollbacks, 1);
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
}

/// A corrupted-gradient glitch at iteration 9: gradient hygiene vetoes
/// the solver step (one update is skipped, nothing else changes), and
/// the run finishes within tolerance of the fault-free run. The
/// unguarded control applies the NaN update and bricks the layer.
#[test]
fn corrupted_gradient_is_vetoed_and_the_run_recovers() {
    let baseline = fault_free_baseline();

    let cfg = SupervisorConfig {
        health: Some(health()),
        ..SupervisorConfig::new(ckpt("grad_guarded"))
    };
    let metrics = FaultMetrics::new();
    let mut plan = FaultPlan::new(vec![Fault::GradCorrupt { iter: 9 }]);
    let (report, exec) = run_supervised(&cfg, &mut plan, &metrics);

    assert!(report.final_loss.is_finite());
    assert_eq!(poisoned_params(&exec), 0, "the NaN update was vetoed");
    assert_eq!(report.quarantined, 0, "the data was never at fault");
    let rel = (report.final_loss - baseline).abs() / baseline.abs();
    assert!(
        rel < 0.25,
        "guarded loss {} vs baseline {baseline} (rel {rel})",
        report.final_loss
    );
    let snap = metrics.snapshot();
    assert_eq!(snap.grad_nonfinite_trips, 1);
    let _ = std::fs::remove_file(&cfg.checkpoint_path);

    // Negative control: the same glitch with guards off.
    let unguarded = SupervisorConfig::new(ckpt("grad_unguarded"));
    let mut plan = FaultPlan::new(vec![Fault::GradCorrupt { iter: 9 }]);
    let (control, exec) = run_supervised(&unguarded, &mut plan, &FaultMetrics::new());
    assert!(
        poisoned_params(&exec) > 0,
        "unguarded NaN gradients must brick the weights"
    );
    assert!(
        control.final_loss > 1.0,
        "unguarded loss pinned at chance, got {}",
        control.final_loss
    );
    let _ = std::fs::remove_file(&unguarded.checkpoint_path);
}

/// A learning-rate spike (×1000) mid-run: the guarded run detects the
/// divergence, cuts the rate, and rolls back until the replay survives;
/// the unguarded control diverges for good.
#[test]
fn lr_spike_is_healed_by_rate_cuts_and_rollbacks() {
    let cfg = SupervisorConfig {
        checkpoint_every: 5,
        health: Some(HealthConfig {
            // The data is innocent: the damage lives in the solver's
            // spiked schedule and the exploded weights, so the cure is
            // cut-rate-and-rewind — never quarantine.
            on_bad_batch: AnomalyReaction::rollback_and_reduce_lr(),
            on_spike: AnomalyReaction::rollback_and_reduce_lr(),
            rollback_budget: 6,
            // The loss layer clamps each item's loss at ~27.6, so a
            // spike can never exceed ~27× a unit baseline: use a
            // tighter threshold and a short warmup so post-rollback
            // divergence is re-detected instead of absorbed.
            spike_threshold: 4.0,
            warmup: 1,
            ..health()
        }),
        ..SupervisorConfig::new(ckpt("lr_guarded"))
    };
    let metrics = FaultMetrics::new();
    let mut plan = FaultPlan::new(vec![Fault::LrSpike {
        iter: 6,
        factor: 1000.0,
    }]);
    let (report, exec) = run_supervised(&cfg, &mut plan, &metrics);

    assert!(
        report.final_loss < 1.0,
        "healed run must actually converge: {report:?}"
    );
    assert!(report.lr_reductions >= 1, "{report:?}");
    assert!(report.rollbacks >= 1, "{report:?}");
    assert_eq!(report.quarantined, 0, "no batch deserved quarantine");
    assert_eq!(poisoned_params(&exec), 0);
    let _ = std::fs::remove_file(&cfg.checkpoint_path);

    // Negative control: the spiked schedule runs unchecked to the end.
    let unguarded = SupervisorConfig::new(ckpt("lr_unguarded"));
    let mut plan = FaultPlan::new(vec![Fault::LrSpike {
        iter: 6,
        factor: 1000.0,
    }]);
    let (control, exec) = run_supervised(&unguarded, &mut plan, &FaultMetrics::new());
    let wrecked =
        control.final_loss.is_nan() || control.final_loss > 1.0 || poisoned_params(&exec) > 0;
    assert!(
        wrecked,
        "unguarded spike must wreck the run, got final loss {}",
        control.final_loss
    );
    let _ = std::fs::remove_file(&unguarded.checkpoint_path);
}
