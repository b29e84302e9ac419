//! Fault-tolerant training: a supervisor wrapping the plain
//! [`crate::solver::solve`] loop with periodic atomic checkpoints and
//! crash recovery.
//!
//! [`supervise`] drives the same forward / backward / update loop as
//! `solve`, but every `checkpoint_every` iterations it atomically writes
//! the model parameters plus training progress
//! ([`crate::checkpoint::CheckpointMeta`]) to disk. When an iteration is
//! killed — by an injected [`crate::fault::Fault::ProcessDeath`] or any
//! recoverable [`RuntimeError`] — the supervisor reloads the last valid
//! checkpoint, verifies **loss continuity** (re-running forward on the
//! exact batch the checkpoint was taken on must reproduce the recorded
//! loss), fast-forwards the data source to the checkpointed position,
//! and resumes. Checkpoint *write* failures are survived, not fatal:
//! the previous checkpoint stays valid, the failure is counted in
//! [`FaultMetrics::io_errors`], and training continues.
//!
//! Solver state (momentum / squared-gradient accumulators and the
//! solver's internal iteration counter) is checkpointed alongside the
//! weights via [`crate::solver::Solver::export_state`] and re-imported on
//! restore, so stateful solvers (SGD + momentum, RMSProp, AdaGrad,
//! AdaDelta) resume on the **bit-exact** update trajectory they would
//! have followed without the interruption — the
//! `process_death_recovers_from_checkpoint` test asserts exact
//! `final_loss` equality against an uninterrupted run under
//! `MomPolicy::Fixed`.
//!
//! With [`SupervisorConfig::health`] set, the same loop also defends
//! against *numerical* faults (DESIGN.md §9): a sentinel scans the value
//! buffers for NaN/Inf after every forward pass, a [`HealthMonitor`]
//! classifies each iteration's loss, and the configured
//! [`crate::health::AnomalyReaction`] quarantines the offending batch,
//! cuts the learning rate tenfold, and/or rolls back to the last good
//! checkpoint — spending the separate [`HealthConfig::rollback_budget`],
//! not `max_restarts`. Gradient hygiene
//! ([`crate::solver::apply_grad_hygiene`]) clips gradients and vetoes the
//! solver step outright when they are non-finite.

use std::path::PathBuf;

use crate::checkpoint::{load_checkpoint, save_checkpoint, CheckpointMeta};
use crate::data::BatchSource;
use crate::error::RuntimeError;
use crate::exec::Executor;
use crate::fault::FaultPlan;
use crate::health::{HealthConfig, HealthMonitor, LossAnomaly};
use crate::metrics::FaultMetrics;
use crate::solver::{apply_grad_hygiene, Solver};
use latte_ir::BufferKind;

/// Relative tolerance of the post-restore loss continuity check. The
/// executor is deterministic, so a faithful restore replays the recorded
/// loss bit for bit; only dropout's fresh masks would need more slack,
/// and no supervised run uses dropout.
const CONTINUITY_REL_TOL: f32 = 1e-5;

/// Learning-rate multiplier of a `reduce_lr` reaction.
const LR_CUT: f32 = 0.1;

/// Supervisor policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Where checkpoints are written (atomically, via a sibling temp
    /// file — see [`crate::checkpoint::save_checkpoint`]).
    pub checkpoint_path: PathBuf,
    /// Iterations between checkpoints (>= 1). An initial checkpoint is
    /// always written before the first iteration so a restore point
    /// exists from the start.
    pub checkpoint_every: u64,
    /// Restores attempted before giving up and propagating the error.
    pub max_restarts: u32,
    /// Numerical-health policy: tensor sentinels, gradient hygiene, and
    /// loss-anomaly reactions (quarantine / LR cut / rollback). `None`
    /// (the default) trains unguarded, exactly as before this policy
    /// existed — injected numerical faults then corrupt the run, which
    /// is what the negative-control tests assert.
    pub health: Option<HealthConfig>,
}

impl SupervisorConfig {
    /// A default policy writing checkpoints to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            checkpoint_path: path.into(),
            checkpoint_every: 10,
            max_restarts: 3,
            health: None,
        }
    }

    fn validate(&self) -> Result<(), RuntimeError> {
        if self.checkpoint_every == 0 {
            return Err(RuntimeError::InvalidConfig {
                detail: "supervisor: checkpoint interval must be at least 1 iteration".into(),
            });
        }
        if let Some(health) = &self.health {
            health.validate()?;
        }
        Ok(())
    }
}

/// Result of a supervised (fault-tolerant) training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorReport {
    /// Mean loss of the first iteration.
    pub initial_loss: f32,
    /// Mean loss of the final iteration.
    pub final_loss: f32,
    /// Productive iterations (replayed iterations after a restore count
    /// again — they really were re-executed).
    pub iterations: u64,
    /// Restores performed.
    pub restarts: u32,
    /// Global iteration each restore resumed from.
    pub resumed_from: Vec<u64>,
    /// Rollbacks taken in reaction to a loss anomaly (budgeted separately
    /// from `restarts`; see [`HealthConfig::rollback_budget`]).
    pub rollbacks: u32,
    /// Learning-rate cuts applied by the health monitor.
    pub lr_reductions: u32,
    /// Batch positions quarantined for the remainder of the run.
    pub quarantined: u64,
}

/// Mutable training position threaded through attempts.
struct TrainState {
    epoch: u64,
    epoch_iter: u64,
    global_iter: u64,
    initial_loss: Option<f32>,
    last_loss: f32,
    executed: u64,
}

/// Health-monitor state. Lives *outside* the restart loop so the loss
/// baseline, quarantine set, and rollback/LR-cut counts survive restores
/// — a rollback must not forget which batch poisoned it.
struct HealthState {
    cfg: HealthConfig,
    monitor: HealthMonitor,
    rollbacks: u32,
    lr_cuts: u32,
}

/// Trains like [`crate::solver::solve`], but under supervision: periodic
/// atomic checkpoints, crash detection, and resume-from-checkpoint (see
/// the module docs for the full protocol). Faults are injected from
/// `plan`; pass `&mut FaultPlan::none()` for a fault-free supervised
/// run. Event counts land in `metrics`, which the caller reads.
///
/// # Errors
///
/// Propagates non-recoverable runtime errors, recoverable errors once
/// `max_restarts` is exhausted, and [`RuntimeError::InvalidConfig`] for
/// a degenerate configuration.
pub fn supervise(
    solver: &mut dyn Solver,
    exec: &mut Executor,
    source: &mut dyn BatchSource,
    cfg: &SupervisorConfig,
    plan: &mut FaultPlan,
    metrics: &FaultMetrics,
) -> Result<SupervisorReport, RuntimeError> {
    cfg.validate()?;
    let mut st = TrainState {
        epoch: 0,
        epoch_iter: 0,
        global_iter: 0,
        initial_loss: None,
        last_loss: 0.0,
        executed: 0,
    };
    let mut restarts = 0u32;
    let mut resumed_from = Vec::new();
    let mut health = cfg.health.as_ref().map(|hc| HealthState {
        monitor: HealthMonitor::new(hc),
        cfg: hc.clone(),
        rollbacks: 0,
        lr_cuts: 0,
    });

    // A restore point must exist before anything can fail.
    let initial_meta = CheckpointMeta {
        epoch: 0,
        iteration: 0,
        epoch_iter: 0,
        loss: 0.0,
    };
    save_checkpoint(
        exec,
        &initial_meta,
        &solver.export_state(),
        &cfg.checkpoint_path,
    )?;
    FaultMetrics::bump(&metrics.checkpoints_saved);

    loop {
        match run_attempt(
            solver,
            exec,
            source,
            cfg,
            plan,
            metrics,
            &mut st,
            health.as_mut(),
        ) {
            Ok(()) => break,
            Err(e @ RuntimeError::Numerical { .. }) => {
                // A loss anomaly whose policy demands a rollback. Plain
                // restarts would re-execute the same poisoned trajectory,
                // so rollbacks are budgeted separately, and the monitor's
                // quarantine set (which survives the restore) is what
                // makes the replay take a different path.
                let Some(h) = health.as_mut() else {
                    return Err(e);
                };
                if h.rollbacks >= h.cfg.rollback_budget {
                    return Err(e);
                }
                h.rollbacks += 1;
                restore(solver, exec, source, cfg, &mut st)?;
                FaultMetrics::bump(&metrics.rollbacks);
                resumed_from.push(st.global_iter);
            }
            Err(e) if is_recoverable(&e) && restarts < cfg.max_restarts => {
                restarts += 1;
                restore(solver, exec, source, cfg, &mut st)?;
                FaultMetrics::bump(&metrics.restores);
                resumed_from.push(st.global_iter);
            }
            Err(e) => return Err(e),
        }
    }

    Ok(SupervisorReport {
        initial_loss: st.initial_loss.unwrap_or(0.0),
        final_loss: st.last_loss,
        iterations: st.executed,
        restarts,
        resumed_from,
        rollbacks: health.as_ref().map_or(0, |h| h.rollbacks),
        lr_reductions: health.as_ref().map_or(0, |h| h.lr_cuts),
        quarantined: health.as_ref().map_or(0, |h| h.monitor.quarantined_count()),
    })
}

fn is_recoverable(e: &RuntimeError) -> bool {
    matches!(
        e,
        RuntimeError::Interrupted { .. } | RuntimeError::Io { .. }
    )
}

fn feed(exec: &mut Executor, batch: &[(String, Vec<f32>)]) -> Result<(), RuntimeError> {
    for (ensemble, values) in batch {
        exec.set_input(ensemble, values)?;
    }
    Ok(())
}

/// Overwrites a batch's values with NaN — the "corrupt record" injected
/// by [`crate::fault::Fault::BatchNaN`].
fn poison_batch(batch: &mut [(String, Vec<f32>)]) {
    for (_, values) in batch.iter_mut() {
        for v in values.iter_mut() {
            *v = f32::NAN;
        }
    }
}

/// Writes NaN into the first parameter-gradient buffer — the localized
/// glitch injected by [`crate::fault::Fault::GradCorrupt`].
fn corrupt_param_grads(exec: &mut Executor) {
    let mut first = true;
    exec.for_each_param_grad_mut(|_, grad| {
        if first {
            for v in grad.iter_mut() {
                *v = f32::NAN;
            }
            first = false;
        }
    });
}

/// Runs training from `st`'s position until completion or an error.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    solver: &mut dyn Solver,
    exec: &mut Executor,
    source: &mut dyn BatchSource,
    cfg: &SupervisorConfig,
    plan: &mut FaultPlan,
    metrics: &FaultMetrics,
    st: &mut TrainState,
    mut health: Option<&mut HealthState>,
) -> Result<(), RuntimeError> {
    let max_epoch = solver.params().max_epoch as u64;
    while st.epoch < max_epoch {
        source.reset();
        for _ in 0..st.epoch_iter {
            // Fast-forward a mid-epoch resume to the checkpointed batch.
            source.next_batch()?;
        }
        while let Some(mut batch) = source.next_batch()? {
            let iter = st.global_iter;

            if let Some(h) = health.as_deref_mut() {
                if h.monitor.is_quarantined(iter) {
                    // Known-poisoned position: consume it without
                    // training. Replays after a rollback land here.
                    st.global_iter += 1;
                    st.epoch_iter += 1;
                    continue;
                }
            }

            // Injected numerical faults. The corrupt record is
            // persistent — a replay re-reads the same bad bytes — while
            // the LR spike is a one-shot config push whose damage
            // persists in the solver's schedule until a policy cuts it.
            if plan.batch_poisoned(iter) {
                poison_batch(&mut batch);
            }
            if let Some(factor) = plan.take_lr_spike(iter) {
                let p = solver.params_mut();
                p.lr_policy = p.lr_policy.scaled(factor);
            }

            feed(exec, &batch)?;

            // Forward pass, then the sentinel scan over value-carrying
            // buffers (gradients are stale before backward, so they are
            // judged by gradient hygiene instead).
            exec.forward();
            let trip = health.as_deref().and_then(|h| {
                let hits = exec.scan_numerics(h.cfg.sentinel, |k| {
                    matches!(
                        k,
                        BufferKind::Value | BufferKind::InputStage | BufferKind::State
                    )
                });
                hits.first().map(ToString::to_string)
            });
            if trip.is_some() {
                FaultMetrics::bump(&metrics.sentinel_trips);
            }

            let loss = exec.loss();
            let anomaly = match health.as_deref_mut() {
                // A sentinel trip means the activations are already
                // poisoned whatever the (possibly stale) loss reads as.
                Some(_) if trip.is_some() => Some(LossAnomaly::NonFinite),
                Some(h) => h.monitor.observe(loss),
                None => None,
            };

            if let Some(kind) = anomaly {
                FaultMetrics::bump(&metrics.loss_anomalies);
                let h = health.as_deref_mut().expect("anomaly implies health");
                let reaction = h.cfg.reaction_for(kind);
                if reaction.reduce_lr {
                    let p = solver.params_mut();
                    p.lr_policy = p.lr_policy.scaled(LR_CUT);
                    h.lr_cuts += 1;
                    FaultMetrics::bump(&metrics.lr_reductions);
                    // The old loss baseline is meaningless at the new
                    // rate; keep only the quarantine set.
                    h.monitor.rebaseline();
                }
                if reaction.quarantine && h.monitor.quarantine(iter) {
                    FaultMetrics::bump(&metrics.batches_quarantined);
                }
                match kind {
                    LossAnomaly::NonFinite => {
                        // Never train on a non-finite pass.
                        st.global_iter += 1;
                        st.epoch_iter += 1;
                        if reaction.rollback {
                            return Err(RuntimeError::numerical(format!(
                                "non-finite loss at iteration {iter}{}",
                                trip.map(|t| format!(" ({t})")).unwrap_or_default()
                            )));
                        }
                        continue;
                    }
                    LossAnomaly::Spike { ratio } => {
                        if reaction.rollback {
                            return Err(RuntimeError::numerical(format!(
                                "loss spiked {ratio:.1}x above baseline at iteration {iter}"
                            )));
                        }
                        if reaction.quarantine {
                            st.global_iter += 1;
                            st.epoch_iter += 1;
                            continue;
                        }
                        // Otherwise the batch is finite — train on it
                        // (under the freshly cut rate, if any).
                    }
                }
            }

            if st.initial_loss.is_none() {
                st.initial_loss = Some(loss);
            }
            st.last_loss = loss;
            exec.backward();
            if plan.take_grad_corrupt(iter) {
                corrupt_param_grads(exec);
            }
            let vetoed = health.is_some() && apply_grad_hygiene(exec, metrics);
            if !vetoed {
                solver.step(exec);
            }
            st.global_iter += 1;
            st.epoch_iter += 1;
            st.executed += 1;

            if st.global_iter.is_multiple_of(cfg.checkpoint_every) {
                if plan.take_io_error(iter) {
                    // Injected checkpoint I/O failure: survive it; the
                    // previous checkpoint remains the restore point.
                    FaultMetrics::bump(&metrics.io_errors);
                } else {
                    // Continuity reference: forward on this same batch
                    // with the *updated* weights; a restore must
                    // reproduce this value exactly.
                    feed(exec, &batch)?;
                    exec.forward();
                    let reference = exec.loss();
                    let meta = CheckpointMeta {
                        epoch: st.epoch,
                        iteration: st.global_iter,
                        epoch_iter: st.epoch_iter,
                        loss: reference,
                    };
                    match save_checkpoint(exec, &meta, &solver.export_state(), &cfg.checkpoint_path)
                    {
                        Ok(()) => FaultMetrics::bump(&metrics.checkpoints_saved),
                        Err(RuntimeError::Io { .. }) => {
                            FaultMetrics::bump(&metrics.io_errors);
                        }
                        Err(other) => return Err(other),
                    }
                }
            }

            if plan.take_process_death(iter) {
                return Err(RuntimeError::Interrupted {
                    detail: format!("injected process death after iteration {iter}"),
                });
            }
        }
        st.epoch += 1;
        st.epoch_iter = 0;
    }
    Ok(())
}

/// Loads the last checkpoint, re-imports the solver's accumulator state,
/// verifies loss continuity, and rewinds `st` to the checkpointed
/// position.
fn restore(
    solver: &mut dyn Solver,
    exec: &mut Executor,
    source: &mut dyn BatchSource,
    cfg: &SupervisorConfig,
    st: &mut TrainState,
) -> Result<(), RuntimeError> {
    let (meta, solver_state) = load_checkpoint(exec, &cfg.checkpoint_path)?;
    solver.import_state(&solver_state)?;

    if meta.epoch_iter > 0 {
        // Replay forward on the exact batch the checkpoint was taken on;
        // the restored weights must reproduce the recorded loss.
        source.reset();
        let mut batch = None;
        for _ in 0..meta.epoch_iter {
            batch = source.next_batch()?;
        }
        let batch = batch.ok_or_else(|| RuntimeError::InvalidConfig {
            detail: format!(
                "data source has fewer batches than the checkpoint expects \
                 ({} into the epoch); did the dataset change?",
                meta.epoch_iter
            ),
        })?;
        feed(exec, &batch)?;
        exec.forward();
        let replayed = exec.loss();
        let tolerance = CONTINUITY_REL_TOL * meta.loss.abs().max(1e-6);
        let divergence = (replayed - meta.loss).abs();
        if divergence.is_nan() || divergence > tolerance {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "loss continuity violated after restore from `{}`: \
                     checkpoint recorded {}, replay produced {replayed} \
                     (tolerance {tolerance}); refusing to resume from \
                     inconsistent state",
                    cfg.checkpoint_path.display(),
                    meta.loss
                ),
            });
        }
    }

    st.epoch = meta.epoch;
    st.epoch_iter = meta.epoch_iter;
    st.global_iter = meta.iteration;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::MemoryDataSource;
    use crate::fault::Fault;
    use crate::solver::{solve, LrPolicy, MomPolicy, Sgd, SolverParams};
    use latte_core::{compile, OptLevel};
    use latte_nn::models::{mlp, ModelConfig};

    fn build() -> Executor {
        let cfg = ModelConfig {
            batch: 4,
            input_size: 6,
            channel_div: 1,
            classes: 3,
            with_loss: true,
            seed: 21,
        };
        Executor::new(compile(&mlp(&cfg, &[8]).net, &OptLevel::full()).unwrap()).unwrap()
    }

    fn source() -> MemoryDataSource {
        // 48 items / batch 4 = 12 iterations per epoch.
        let items: Vec<(Vec<f32>, f32)> = (0..48)
            .map(|i| {
                let class = i % 3;
                let x: Vec<f32> = (0..6)
                    .map(|j| {
                        let base = if j % 3 == class { 1.0 } else { 0.1 };
                        base + ((i * 6 + j) % 7) as f32 * 0.01
                    })
                    .collect();
                (x, class as f32)
            })
            .collect();
        MemoryDataSource::try_new("data", "label", items, 4).unwrap()
    }

    fn params(epochs: usize) -> SolverParams {
        SolverParams {
            lr_policy: LrPolicy::Fixed { lr: 0.05 },
            // Momentum state is checkpointed and restored, so even a
            // stateful update rule recovers bit-exactly — the exact
            // final_loss equalities below prove it.
            mom_policy: MomPolicy::Fixed { mom: 0.9 },
            regu_coef: 0.0,
            max_epoch: epochs,
        }
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("latte_supervisor_{tag}"));
        let _ = std::fs::create_dir_all(&dir);
        dir.join("ckpt.bin")
    }

    #[test]
    fn fault_free_supervised_run_matches_plain_solve() {
        let mut exec_a = build();
        let mut solver_a = Sgd::new(params(2));
        let plain = solve(&mut solver_a, &mut exec_a, &mut source()).unwrap();

        let mut exec_b = build();
        let mut solver_b = Sgd::new(params(2));
        let cfg = SupervisorConfig::new(temp_ckpt("fault_free"));
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver_b,
            &mut exec_b,
            &mut source(),
            &cfg,
            &mut FaultPlan::none(),
            &metrics,
        )
        .unwrap();

        assert_eq!(sup.iterations, plain.iterations as u64);
        assert_eq!(sup.restarts, 0);
        assert_eq!(sup.initial_loss, plain.initial_loss);
        assert_eq!(
            sup.final_loss, plain.final_loss,
            "supervision must not perturb training"
        );
        assert!(metrics.snapshot().checkpoints_saved > 0);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn process_death_recovers_from_checkpoint() {
        let mut exec_a = build();
        let mut solver_a = Sgd::new(params(2));
        let plain = solve(&mut solver_a, &mut exec_a, &mut source()).unwrap();

        let mut exec_b = build();
        let mut solver_b = Sgd::new(params(2));
        let cfg = SupervisorConfig {
            checkpoint_every: 5,
            ..SupervisorConfig::new(temp_ckpt("death"))
        };
        // Die mid-epoch, between checkpoints (after iteration 13; the
        // last checkpoint is at 10), plus once more near the end.
        let mut plan = FaultPlan::new(vec![
            Fault::ProcessDeath { iter: 13 },
            Fault::ProcessDeath { iter: 18 },
        ]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver_b,
            &mut exec_b,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();

        assert_eq!(sup.restarts, 2);
        assert_eq!(sup.resumed_from, vec![10, 15]);
        // Replayed iterations 10..=13 and 15..=18 are re-executed.
        assert_eq!(sup.iterations, plain.iterations as u64 + 4 + 4);
        assert_eq!(
            sup.final_loss, plain.final_loss,
            "recovered run must converge to the fault-free trajectory"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.restores, 2);
        assert!(snap.checkpoints_saved >= 5);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn checkpoint_io_error_is_survived_and_counted() {
        let mut exec = build();
        let mut solver = Sgd::new(params(1));
        let cfg = SupervisorConfig {
            checkpoint_every: 4,
            ..SupervisorConfig::new(temp_ckpt("ioerr"))
        };
        // The checkpoint due after iteration 3 (the first periodic one)
        // fails; training must continue and later checkpoints succeed.
        let mut plan = FaultPlan::new(vec![Fault::IoError { iter: 3 }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        assert_eq!(sup.restarts, 0);
        let snap = metrics.snapshot();
        assert_eq!(snap.io_errors, 1);
        // 12 iterations -> initial + checkpoints at 4, 8, 12, minus the
        // failed one at 4.
        assert_eq!(snap.checkpoints_saved, 3);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn restart_budget_exhaustion_propagates_the_fault() {
        let mut exec = build();
        let mut solver = Sgd::new(params(1));
        let cfg = SupervisorConfig {
            max_restarts: 1,
            ..SupervisorConfig::new(temp_ckpt("budget"))
        };
        let mut plan = FaultPlan::new(vec![
            Fault::ProcessDeath { iter: 2 },
            Fault::ProcessDeath { iter: 5 },
        ]);
        let metrics = FaultMetrics::new();
        let err = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Interrupted { .. }), "{err}");
        assert_eq!(metrics.snapshot().restores, 1);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn stateful_rmsprop_resumes_identically() {
        use crate::solver::RmsProp;
        let mut exec_a = build();
        let mut solver_a = RmsProp::new(params(2), 0.9, 1e-8);
        let plain = solve(&mut solver_a, &mut exec_a, &mut source()).unwrap();

        let mut exec_b = build();
        let mut solver_b = RmsProp::new(params(2), 0.9, 1e-8);
        let cfg = SupervisorConfig {
            checkpoint_every: 5,
            ..SupervisorConfig::new(temp_ckpt("rmsprop"))
        };
        let mut plan = FaultPlan::new(vec![Fault::ProcessDeath { iter: 13 }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver_b,
            &mut exec_b,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        assert_eq!(sup.restarts, 1);
        assert_eq!(
            sup.final_loss, plain.final_loss,
            "restored RMSProp accumulators must reproduce the exact trajectory"
        );
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn tampered_checkpoint_fails_loss_continuity() {
        let mut exec = build();
        let mut solver = Sgd::new(params(1));
        let cfg = SupervisorConfig {
            checkpoint_every: 4,
            max_restarts: 1,
            ..SupervisorConfig::new(temp_ckpt("tamper"))
        };
        let mut src = source();

        // Take a real mid-epoch checkpoint by letting a short run die
        // right after one was written, then rewrite the checkpoint with
        // a wrong continuity loss (valid CRC, inconsistent content).
        let mut plan = FaultPlan::new(vec![
            Fault::ProcessDeath { iter: 3 },
            Fault::ProcessDeath { iter: 3 },
        ]);
        // First death happens right after the iter-3 checkpoint; tamper
        // with it before the supervisor restores.
        let metrics = FaultMetrics::new();
        // Run a supervisor whose restore encounters the tampered file by
        // corrupting it from within the fault window: simplest is to run
        // to completion once, then tamper and restore by hand.
        let sup = supervise(&mut solver, &mut exec, &mut src, &cfg, &mut plan, &metrics);
        assert!(sup.is_ok(), "baseline run should recover: {sup:?}");

        // Now tamper: rewrite the checkpoint claiming a wrong loss.
        let meta = CheckpointMeta {
            epoch: 0,
            iteration: 4,
            epoch_iter: 4,
            loss: 1e6,
        };
        save_checkpoint(&exec, &meta, &solver.export_state(), &cfg.checkpoint_path).unwrap();
        let mut st = TrainState {
            epoch: 0,
            epoch_iter: 0,
            global_iter: 0,
            initial_loss: None,
            last_loss: 0.0,
            executed: 0,
        };
        let err = restore(&mut solver, &mut exec, &mut src, &cfg, &mut st).unwrap_err();
        assert!(
            err.to_string().contains("loss continuity violated"),
            "{err}"
        );
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    fn health() -> crate::health::HealthConfig {
        crate::health::HealthConfig {
            sentinel: crate::health::SentinelMode::from_env(),
            ..Default::default()
        }
    }

    #[test]
    fn healthy_run_is_not_perturbed_by_guardrails() {
        let mut exec_a = build();
        let mut solver_a = Sgd::new(params(2));
        let plain = solve(&mut solver_a, &mut exec_a, &mut source()).unwrap();

        let mut exec_b = build();
        let mut solver_b = Sgd::new(params(2));
        let cfg = SupervisorConfig {
            health: Some(health()),
            ..SupervisorConfig::new(temp_ckpt("guarded_clean"))
        };
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver_b,
            &mut exec_b,
            &mut source(),
            &cfg,
            &mut FaultPlan::none(),
            &metrics,
        )
        .unwrap();
        assert_eq!(
            sup.final_loss, plain.final_loss,
            "guardrails must be invisible on a healthy run"
        );
        assert_eq!(sup.rollbacks, 0);
        assert_eq!(sup.quarantined, 0);
        assert_eq!(metrics.snapshot().sentinel_trips, 0);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn nan_batch_is_quarantined_and_training_finishes() {
        let mut exec = build();
        let mut solver = Sgd::new(params(2));
        let cfg = SupervisorConfig {
            health: Some(health()),
            ..SupervisorConfig::new(temp_ckpt("quarantine"))
        };
        let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 7 }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        assert!(sup.final_loss.is_finite(), "final loss {}", sup.final_loss);
        assert_eq!(sup.quarantined, 1);
        assert_eq!(sup.rollbacks, 0, "default policy skips without rewinding");
        // The poisoned iteration is not counted as productive.
        assert_eq!(sup.iterations, 23);
        let snap = metrics.snapshot();
        assert_eq!(snap.batches_quarantined, 1);
        assert_eq!(snap.loss_anomalies, 1);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn unguarded_nan_batch_silently_bricks_the_network() {
        use crate::health::SentinelMode;
        // Negative control: same injection, `health: None`. The NaN
        // never reaches the loss scalar — ReLU (`max(NaN, 0) = 0`) and
        // the loss layer's probability clamp launder it — but one
        // solver step on NaN gradients bricks the first layer's
        // weights for good, pinning the loss at chance level (ln 3).
        // This *silent* failure mode is why buffer sentinels exist:
        // loss-only monitoring provably cannot see it.
        let mut exec = build();
        let mut solver = Sgd::new(params(2));
        let cfg = SupervisorConfig::new(temp_ckpt("unguarded_nan"));
        let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 7 }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        let poisoned =
            exec.scan_numerics(SentinelMode::Exhaustive, |k| matches!(k, BufferKind::Param));
        assert!(!poisoned.is_empty(), "weights must be NaN-poisoned");
        assert!(
            sup.final_loss > 1.0,
            "loss must be pinned at chance (~ln 3), got {}",
            sup.final_loss
        );
        assert_eq!(metrics.snapshot().sentinel_trips, 0, "nothing was watching");
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn rollback_restores_weights_and_quarantines_the_batch() {
        use crate::health::AnomalyReaction;
        let mut exec = build();
        let mut solver = Sgd::new(params(2));
        let cfg = SupervisorConfig {
            checkpoint_every: 5,
            health: Some(crate::health::HealthConfig {
                on_bad_batch: AnomalyReaction::rollback_and_quarantine(),
                ..health()
            }),
            ..SupervisorConfig::new(temp_ckpt("rollback"))
        };
        let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 7 }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        assert!(sup.final_loss.is_finite(), "final loss {}", sup.final_loss);
        assert_eq!(sup.rollbacks, 1);
        assert_eq!(sup.restarts, 0, "rollbacks spend their own budget");
        assert_eq!(sup.resumed_from, vec![5]);
        assert_eq!(sup.quarantined, 1);
        assert_eq!(metrics.snapshot().rollbacks, 1);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn gradient_corruption_is_vetoed_before_the_step() {
        let mut exec = build();
        let mut solver = Sgd::new(params(2));
        let cfg = SupervisorConfig {
            health: Some(health()),
            ..SupervisorConfig::new(temp_ckpt("gradcorrupt"))
        };
        let mut plan = FaultPlan::new(vec![Fault::GradCorrupt { iter: 6 }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        assert!(sup.final_loss.is_finite(), "final loss {}", sup.final_loss);
        assert_eq!(sup.quarantined, 0, "the batch itself was fine");
        assert_eq!(metrics.snapshot().grad_nonfinite_trips, 1);
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn lr_spike_is_healed_by_rate_cuts_and_rollbacks() {
        use crate::health::AnomalyReaction;
        let mut exec = build();
        let mut solver = Sgd::new(params(2));
        let cfg = SupervisorConfig {
            checkpoint_every: 5,
            health: Some(crate::health::HealthConfig {
                // The batch is innocent — the damage lives in the
                // solver's spiked schedule and the exploded weights, so
                // the cure is cut-rate-and-rewind, never quarantine.
                on_bad_batch: AnomalyReaction::rollback_and_reduce_lr(),
                on_spike: AnomalyReaction::rollback_and_reduce_lr(),
                rollback_budget: 6,
                ..health()
            }),
            ..SupervisorConfig::new(temp_ckpt("lrspike"))
        };
        let mut plan = FaultPlan::new(vec![Fault::LrSpike {
            iter: 6,
            factor: 1000.0,
        }]);
        let metrics = FaultMetrics::new();
        let sup = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap();
        assert!(sup.final_loss.is_finite(), "final loss {}", sup.final_loss);
        assert!(sup.lr_reductions >= 1, "report {sup:?}");
        assert!(sup.rollbacks >= 1 && sup.rollbacks <= 6, "report {sup:?}");
        assert_eq!(sup.quarantined, 0, "no batch deserved quarantine");
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }

    #[test]
    fn rollback_budget_exhaustion_propagates_the_numerical_fault() {
        use crate::health::AnomalyReaction;
        let mut exec = build();
        let mut solver = Sgd::new(params(1));
        let cfg = SupervisorConfig {
            health: Some(crate::health::HealthConfig {
                on_bad_batch: AnomalyReaction::rollback_and_quarantine(),
                rollback_budget: 0,
                ..health()
            }),
            ..SupervisorConfig::new(temp_ckpt("rb_budget"))
        };
        let mut plan = FaultPlan::new(vec![Fault::BatchNaN { iter: 3 }]);
        let metrics = FaultMetrics::new();
        let err = supervise(
            &mut solver,
            &mut exec,
            &mut source(),
            &cfg,
            &mut plan,
            &metrics,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Numerical { .. }), "{err}");
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }
}
