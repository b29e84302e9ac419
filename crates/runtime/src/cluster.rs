//! The serial oracle for replicated training, and the historical home
//! of [`SyncMode`].
//!
//! Replicas are trained by exactly one mechanism — [`crate::dist::DistTrainer`]
//! over a [`crate::transport::Transport`] (in-process `channel_group`
//! or multi-process TCP). What lives here is the reference tests hold it
//! to: [`train_replicated`] replays the same schedule on one executor
//! with the ring's exact fold order. The Fig 18–19 analytic cluster
//! model lives beside its only caller, in `latte-bench`.

use crate::error::RuntimeError;

pub use crate::ring::SyncMode;

/// Serial reference for synchronized data-parallel training: trains
/// `shards.len()`-many steps on one executor, evaluating every replica's
/// shard from the same master weights, merging each gradient bucket with
/// [`crate::ring::reference_allreduce`] (the exact association the real
/// ring uses), and applying one solver step to the merged gradients.
///
/// This is the numeric oracle for [`crate::dist::DistTrainer`]: a
/// synchronized distributed run over `k` ranks must produce
/// **bit-identical** parameters to this loop over `k` replicas, because
/// both fold contributions in rotated ring order and scale by the same
/// `1/k` multiplication.
///
/// `shards[step][replica]` is the batch replica `replica` consumes at
/// `step`. Returns per-step, per-replica losses. The executor is left
/// holding the final merged parameters.
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] when a step has no replicas, plus any
/// executor input/buffer errors.
pub fn train_replicated(
    exec: &mut crate::exec::Executor,
    solver: &mut dyn crate::solver::Solver,
    shards: &[Vec<crate::data::Batch>],
) -> Result<Vec<Vec<f32>>, RuntimeError> {
    let grad_names: Vec<Vec<String>> = exec
        .grad_buckets()
        .iter()
        .map(|b| {
            b.params
                .iter()
                .map(|&pi| exec.params()[pi].grad.clone())
                .collect()
        })
        .collect();
    let param_values: Vec<String> = exec.params().iter().map(|p| p.value.clone()).collect();
    let read_params = |exec: &crate::exec::Executor| -> Result<Vec<Vec<f32>>, RuntimeError> {
        param_values.iter().map(|n| exec.read_buffer(n)).collect()
    };
    let mut master = read_params(exec)?;
    let mut losses = Vec::with_capacity(shards.len());
    for replicas in shards {
        if replicas.is_empty() {
            return Err(RuntimeError::InvalidConfig {
                detail: "train_replicated: a step needs at least one replica shard".into(),
            });
        }
        let mut contribs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); grad_names.len()];
        let mut step_losses = Vec::with_capacity(replicas.len());
        for batch in replicas {
            for (name, value) in param_values.iter().zip(&master) {
                exec.write_buffer(name, value)?;
            }
            for (ensemble, data) in batch {
                exec.set_input(ensemble, data)?;
            }
            exec.forward();
            step_losses.push(exec.loss());
            exec.backward();
            for (bi, names) in grad_names.iter().enumerate() {
                let mut flat = Vec::new();
                for n in names {
                    flat.extend(exec.read_buffer(n)?);
                }
                contribs[bi].push(flat);
            }
        }
        // Restore master weights (the last replica's forward may have
        // touched nothing, but be explicit), install the merged
        // gradients, and take one optimizer step.
        for (name, value) in param_values.iter().zip(&master) {
            exec.write_buffer(name, value)?;
        }
        for (bi, names) in grad_names.iter().enumerate() {
            let merged = crate::ring::reference_allreduce(&contribs[bi]);
            let mut at = 0;
            for n in names {
                let len = exec.read_buffer(n)?.len();
                exec.write_buffer(n, &merged[at..at + len])?;
                at += len;
            }
        }
        solver.step(exec);
        master = read_params(exec)?;
        losses.push(step_losses);
    }
    Ok(losses)
}
