//! Evaluation helpers (classification over a trained executor) and the
//! fault-tolerance counter registry shared by the transport, the ring
//! and the training supervisor.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::RuntimeError;
use crate::exec::Executor;

/// Monotonic counters recording fault-tolerance events. Thread-safe;
/// share one instance (e.g. behind an `Arc`) between the supervisor,
/// the transport, and whoever reports the run.
#[derive(Debug, Default)]
pub struct FaultMetrics {
    /// Transfer retries after a timeout, drop, or corruption.
    pub retries: AtomicU64,
    /// Transfers whose payload failed its checksum (injected corruption).
    pub transfers_corrupted: AtomicU64,
    /// Nodes declared dead (crash or retry budget exhausted).
    pub nodes_failed: AtomicU64,
    /// Straggler detections (a node exceeding the rolling time estimate).
    pub stragglers_detected: AtomicU64,
    /// Iterations executed in the degraded (lossy, shrunken-ring) mode.
    pub degraded_iterations: AtomicU64,
    /// Checkpoints successfully written.
    pub checkpoints_saved: AtomicU64,
    /// Successful restores from a checkpoint.
    pub restores: AtomicU64,
    /// I/O errors observed (and survived) while checkpointing.
    pub io_errors: AtomicU64,
    /// Tensor-sentinel trips (a NaN/Inf found in a scanned buffer).
    pub sentinel_trips: AtomicU64,
    /// Iterations whose gradients were clipped (per-element or
    /// global-norm).
    pub grad_clips: AtomicU64,
    /// Iterations whose update was skipped because a parameter gradient
    /// was non-finite.
    pub grad_nonfinite_trips: AtomicU64,
    /// Loss anomalies classified by the health monitor (non-finite,
    /// spike, plateau).
    pub loss_anomalies: AtomicU64,
    /// Batches quarantined after producing a non-finite loss.
    pub batches_quarantined: AtomicU64,
    /// Rollbacks to the last good checkpoint triggered by a numerical
    /// anomaly (distinct from `restores` after process faults, though
    /// each rollback also performs a restore).
    pub rollbacks: AtomicU64,
    /// Learning-rate reductions applied by an anomaly policy.
    pub lr_reductions: AtomicU64,
    /// Per-node gradient contributions rejected by the all-reduce merge
    /// for being non-finite.
    pub gradients_rejected: AtomicU64,
    /// Transport frames re-sent (resend requests serviced after a drop,
    /// timeout, or CRC failure on the receiving side).
    pub send_retries: AtomicU64,
    /// Transport receives that exhausted their per-op deadline.
    pub timeouts: AtomicU64,
    /// Socket reconnect attempts after a broken connection.
    pub reconnects: AtomicU64,
    /// Peers evicted from the ring (retry budget exhausted, connection
    /// reset, or announced dead by another survivor).
    pub peers_evicted: AtomicU64,
    /// Training steps whose all-reduce ran in the lossy degraded mode.
    pub lossy_steps: AtomicU64,
    /// Gradient payload bytes folded by the ring reduce-scatter.
    pub bytes_reduced: AtomicU64,
}

/// A point-in-time copy of [`FaultMetrics`], comparable in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct FaultMetricsSnapshot {
    pub retries: u64,
    pub transfers_corrupted: u64,
    pub nodes_failed: u64,
    pub stragglers_detected: u64,
    pub degraded_iterations: u64,
    pub checkpoints_saved: u64,
    pub restores: u64,
    pub io_errors: u64,
    pub sentinel_trips: u64,
    pub grad_clips: u64,
    pub grad_nonfinite_trips: u64,
    pub loss_anomalies: u64,
    pub batches_quarantined: u64,
    pub rollbacks: u64,
    pub lr_reductions: u64,
    pub gradients_rejected: u64,
    pub send_retries: u64,
    pub timeouts: u64,
    pub reconnects: u64,
    pub peers_evicted: u64,
    pub lossy_steps: u64,
    pub bytes_reduced: u64,
}

impl FaultMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to a counter (relaxed; counters are independent).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter (for byte/amount counters).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> FaultMetricsSnapshot {
        FaultMetricsSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            transfers_corrupted: self.transfers_corrupted.load(Ordering::Relaxed),
            nodes_failed: self.nodes_failed.load(Ordering::Relaxed),
            stragglers_detected: self.stragglers_detected.load(Ordering::Relaxed),
            degraded_iterations: self.degraded_iterations.load(Ordering::Relaxed),
            checkpoints_saved: self.checkpoints_saved.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            sentinel_trips: self.sentinel_trips.load(Ordering::Relaxed),
            grad_clips: self.grad_clips.load(Ordering::Relaxed),
            grad_nonfinite_trips: self.grad_nonfinite_trips.load(Ordering::Relaxed),
            loss_anomalies: self.loss_anomalies.load(Ordering::Relaxed),
            batches_quarantined: self.batches_quarantined.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            lr_reductions: self.lr_reductions.load(Ordering::Relaxed),
            gradients_rejected: self.gradients_rejected.load(Ordering::Relaxed),
            send_retries: self.send_retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            peers_evicted: self.peers_evicted.load(Ordering::Relaxed),
            lossy_steps: self.lossy_steps.load(Ordering::Relaxed),
            bytes_reduced: self.bytes_reduced.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Display for FaultMetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries={} corrupted={} nodes_failed={} stragglers={} \
             degraded_iters={} checkpoints={} restores={} io_errors={} \
             sentinel_trips={} grad_clips={} grad_nonfinite={} loss_anomalies={} \
             quarantined={} rollbacks={} lr_reductions={} grads_rejected={} \
             send_retries={} timeouts={} reconnects={} peers_evicted={} \
             lossy_steps={} bytes_reduced={}",
            self.retries,
            self.transfers_corrupted,
            self.nodes_failed,
            self.stragglers_detected,
            self.degraded_iterations,
            self.checkpoints_saved,
            self.restores,
            self.io_errors,
            self.sentinel_trips,
            self.grad_clips,
            self.grad_nonfinite_trips,
            self.loss_anomalies,
            self.batches_quarantined,
            self.rollbacks,
            self.lr_reductions,
            self.gradients_rejected,
            self.send_retries,
            self.timeouts,
            self.reconnects,
            self.peers_evicted,
            self.lossy_steps,
            self.bytes_reduced,
        )
    }
}

/// Classifies `items` in batches through the executor and returns top-1
/// accuracy. `input` is the data ensemble name, `output` the prediction
/// buffer (e.g. `"fc8.value"`). When the network contains a loss layer
/// whose label ensemble is named `label`, dummy labels are fed so the
/// forward pass stays well defined; predictions do not depend on them.
///
/// Items that do not fill a final batch are skipped (as in Caffe's test
/// phase).
///
/// # Errors
///
/// Fails for unknown ensembles or buffers.
pub fn top1_accuracy(
    exec: &mut Executor,
    input: &str,
    output: &str,
    items: &[(Vec<f32>, f32)],
) -> Result<f32, RuntimeError> {
    let batch = exec.batch();
    let mut correct = 0usize;
    let mut total = 0usize;
    for chunk in items.chunks(batch) {
        if chunk.len() < batch {
            break;
        }
        let mut inputs = Vec::with_capacity(batch * chunk[0].0.len());
        for (x, _) in chunk {
            inputs.extend_from_slice(x);
        }
        exec.set_input(input, &inputs)?;
        let _ = exec.set_input("label", &vec![0.0; batch]);
        exec.forward();
        let out = exec.read_buffer(output)?;
        let classes = out.len() / batch;
        for (i, (_, label)) in chunk.iter().enumerate() {
            let row = &out[i * classes..(i + 1) * classes];
            let pred = argmax(row);
            if pred == *label as usize {
                correct += 1;
            }
            total += 1;
        }
    }
    Ok(correct as f32 / total.max(1) as f32)
}

/// Index of the largest element (first on ties; 0 for empty input).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_metrics_count_and_snapshot() {
        let m = FaultMetrics::new();
        FaultMetrics::bump(&m.retries);
        FaultMetrics::bump(&m.retries);
        FaultMetrics::bump(&m.nodes_failed);
        FaultMetrics::bump(&m.sentinel_trips);
        FaultMetrics::bump(&m.batches_quarantined);
        FaultMetrics::bump(&m.send_retries);
        FaultMetrics::bump(&m.peers_evicted);
        FaultMetrics::add(&m.bytes_reduced, 4096);
        let snap = m.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.nodes_failed, 1);
        assert_eq!(snap.transfers_corrupted, 0);
        assert_eq!(snap.sentinel_trips, 1);
        assert_eq!(snap.batches_quarantined, 1);
        assert_eq!(snap.gradients_rejected, 0);
        assert_eq!(snap.send_retries, 1);
        assert_eq!(snap.timeouts, 0);
        assert_eq!(snap.peers_evicted, 1);
        assert_eq!(snap.bytes_reduced, 4096);
        let text = snap.to_string();
        assert!(text.contains("retries=2") && text.contains("nodes_failed=1"));
        assert!(text.contains("sentinel_trips=1") && text.contains("quarantined=1"));
        assert!(text.contains("peers_evicted=1") && text.contains("bytes_reduced=4096"));
    }

    #[test]
    fn argmax_basic_and_ties() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[0.5, 0.5]), 0, "first wins ties");
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }
}
