//! Evaluation helpers (classification over a trained executor) and the
//! fault-tolerance counter registry shared by the transport, the ring
//! and the training supervisor.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::RuntimeError;
use crate::exec::Executor;

/// Declares a counter registry — a struct of `AtomicU64`s, bumped with
/// relaxed ordering since counters publish nothing but themselves — and
/// its plain-number snapshot from **one** list, so adding a counter is
/// one line and the registry, the snapshot, `snapshot()`, the printed
/// form and any wire codec cannot drift apart. Each entry is
/// `name: type`, optionally `= "label"` when the printed name differs
/// from the field's; the order of the list is the order of
/// `Snapshot::values` / `Snapshot::from_values` (a wire format built on
/// them grows only at its end) and of `Display` (`label=value`, space
/// separated).
#[macro_export]
macro_rules! counter_registry {
    (@label $field:ident) => { stringify!($field) };
    (@label $field:ident $label:literal) => { $label };
    (
        $(#[$reg_meta:meta])* $reg_vis:vis struct $Reg:ident;
        $(#[$snap_meta:meta])* $snap_vis:vis struct $Snap:ident;
        $( $(#[$doc:meta])* $field:ident : $ty:ty $(= $label:literal)?, )+
    ) => {
        $(#[$reg_meta])*
        #[derive(Debug, Default)]
        $reg_vis struct $Reg {
            $( $(#[$doc])* pub $field: ::std::sync::atomic::AtomicU64, )+
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $( $(#[$doc])* pub $field: $ty, )+
        }

        impl $Reg {
            /// Copies every counter.
            #[allow(clippy::unnecessary_cast)]
            $reg_vis fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed) as $ty, )+
                }
            }
        }

        #[allow(clippy::unnecessary_cast)]
        impl $Snap {
            /// The counters' printed names, in declaration order.
            pub const LABELS: &'static [&'static str] =
                &[$( $crate::counter_registry!(@label $field $($label)?) ),+];

            /// Every counter, in declaration order.
            pub fn values(&self) -> [u64; Self::LABELS.len()] {
                [$( self.$field as u64 ),+]
            }

            /// The inverse of [`Self::values`].
            pub fn from_values(values: [u64; Self::LABELS.len()]) -> Self {
                let [$( $field ),+] = values;
                $Snap { $( $field: $field as $ty, )+ }
            }
        }

        impl ::std::fmt::Display for $Snap {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                for (i, (label, value)) in Self::LABELS.iter().zip(self.values()).enumerate() {
                    write!(f, "{}{label}={value}", if i == 0 { "" } else { " " })?;
                }
                Ok(())
            }
        }
    };
}

counter_registry! {
    /// Monotonic counters recording fault-tolerance events. Thread-safe;
    /// share one instance (e.g. behind an `Arc`) between the supervisor,
    /// the transport, and whoever reports the run.
    pub struct FaultMetrics;
    /// A point-in-time copy of [`FaultMetrics`], comparable in tests.
    pub struct FaultMetricsSnapshot;
    /// Transfer retries after a timeout, drop, or corruption.
    retries: u64,
    /// Transfers whose payload failed its checksum (injected corruption).
    transfers_corrupted: u64 = "corrupted",
    /// Straggler detections (a node exceeding the rolling time estimate).
    stragglers_detected: u64 = "stragglers",
    /// Checkpoints successfully written.
    checkpoints_saved: u64 = "checkpoints",
    /// Successful restores from a checkpoint.
    restores: u64,
    /// I/O errors observed (and survived) while checkpointing.
    io_errors: u64,
    /// Tensor-sentinel trips (a NaN/Inf found in a scanned buffer).
    sentinel_trips: u64,
    /// Iterations whose gradients were scaled down to the global-norm
    /// cap.
    grad_clips: u64,
    /// Iterations whose update was skipped because a parameter gradient
    /// was non-finite.
    grad_nonfinite_trips: u64 = "grad_nonfinite",
    /// Loss anomalies classified by the health monitor (non-finite or
    /// spike).
    loss_anomalies: u64,
    /// Batches quarantined after producing a non-finite loss.
    batches_quarantined: u64 = "quarantined",
    /// Rollbacks to the last good checkpoint triggered by a numerical
    /// anomaly (distinct from `restores` after process faults, though
    /// each rollback also performs a restore).
    rollbacks: u64,
    /// Learning-rate reductions applied by an anomaly policy.
    lr_reductions: u64,
    /// Per-node gradient contributions rejected by the all-reduce merge
    /// for being non-finite.
    gradients_rejected: u64 = "grads_rejected",
    /// Transport frames re-sent (resend requests serviced after a drop,
    /// timeout, or CRC failure on the receiving side).
    send_retries: u64,
    /// Transport receives that exhausted their per-op deadline.
    timeouts: u64,
    /// Socket reconnect attempts after a broken connection.
    reconnects: u64,
    /// Peers evicted from the ring (retry budget exhausted, connection
    /// reset, or announced dead by another survivor).
    peers_evicted: u64,
    /// Training steps whose all-reduce ran in the lossy degraded mode.
    lossy_steps: u64,
    /// Gradient payload bytes folded by the ring reduce-scatter.
    bytes_reduced: u64,
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
        FaultMetrics::bump(&m.sentinel_trips);
        FaultMetrics::bump(&m.batches_quarantined);
        FaultMetrics::bump(&m.send_retries);
        FaultMetrics::bump(&m.peers_evicted);
        FaultMetrics::add(&m.bytes_reduced, 4096);
        let snap = m.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.transfers_corrupted, 0);
        assert_eq!(snap.sentinel_trips, 1);
        assert_eq!(snap.batches_quarantined, 1);
        assert_eq!(snap.gradients_rejected, 0);
        assert_eq!(snap.send_retries, 1);
        assert_eq!(snap.timeouts, 0);
        assert_eq!(snap.peers_evicted, 1);
        assert_eq!(snap.bytes_reduced, 4096);
        let text = snap.to_string();
        assert!(text.contains("retries=2"));
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
