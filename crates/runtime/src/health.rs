//! Numerical-health guardrails: tensor sentinels, loss-anomaly
//! classification, and the reaction policies the training supervisor
//! applies when a guard trips.
//!
//! Process-level faults (crashes, I/O errors — DESIGN.md §7) are loud;
//! numerical faults are silent. A NaN produced by one overflowing GEMM
//! propagates through every downstream buffer, the loss, the gradients,
//! and — in a cluster — the all-reduce, poisoning every replica within
//! one iteration. This module provides the detection half of the
//! defense:
//!
//! * [`SentinelMode`] — how thoroughly the value buffers are scanned
//!   for non-finite values after every forward pass (see
//!   `Executor::scan_numerics`);
//! * [`HealthMonitor`] — a loss EWMA that classifies each iteration's
//!   loss as healthy, non-finite, or a divergence spike, and remembers
//!   which batch positions have been quarantined;
//! * [`HealthConfig`] / [`AnomalyReaction`] — what the supervisor does
//!   about each anomaly class: quarantine the batch, reduce the
//!   learning rate, and/or roll back to the last good checkpoint
//!   (bounded by a rollback budget).
//!
//! The EWMA's smoothing factor and floor are constants, not policy: no
//! run has needed other values (DESIGN.md §9.3). The reaction machinery
//! lives in [`crate::supervisor`]; gradient clipping and the pre-`step`
//! finite check live in [`crate::solver`].

use std::collections::HashSet;
use std::fmt;

use crate::error::RuntimeError;

/// Smoothing factor of the loss EWMA (higher = faster baseline).
const EWMA_ALPHA: f32 = 0.25;

/// Baseline floor: near-zero converged losses would otherwise flag any
/// tiny wobble as a spike.
const SPIKE_FLOOR: f32 = 1e-3;

/// How thoroughly the value buffers are scanned for NaN/Inf after every
/// forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentinelMode {
    /// No scanning (non-finite losses are still caught by the monitor).
    Off,
    /// Check every `stride`-th element — cheap enough for production.
    /// NaNs spread fast through reductions and GEMMs, so a sparse probe
    /// catches a poisoned buffer within an iteration or two. The default
    /// is stride 61: a prime does not resonate with power-of-two shapes.
    Sampled {
        /// Element step between probes (≥ 1).
        stride: usize,
    },
    /// Check every element — the debug mode; finds the first bad index
    /// of every poisoned buffer, named as declared.
    Exhaustive,
}

impl Default for SentinelMode {
    fn default() -> Self {
        SentinelMode::Sampled { stride: 61 }
    }
}

impl SentinelMode {
    /// The scan stride, or `None` when scanning is off.
    pub fn stride(self) -> Option<usize> {
        match self {
            SentinelMode::Off => None,
            SentinelMode::Sampled { stride } => Some(stride.max(1)),
            SentinelMode::Exhaustive => Some(1),
        }
    }

    /// The mode named by the `LATTE_SENTINEL_MODE` environment variable
    /// — `off`, `sampled`, `sampled:<stride>` or `exhaustive` — or the
    /// default when it is unset or unparseable (CI sets `exhaustive`
    /// nightly to run every test under the most paranoid scanning).
    pub fn from_env() -> Self {
        let raw = std::env::var("LATTE_SENTINEL_MODE").unwrap_or_default();
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" => SentinelMode::Off,
            "exhaustive" => SentinelMode::Exhaustive,
            s => s
                .strip_prefix("sampled:")
                .and_then(|stride| stride.parse().ok())
                .map_or_else(SentinelMode::default, |stride| SentinelMode::Sampled { stride }),
        }
    }
}

/// The class of a non-finite value found by a sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClass {
    /// Not-a-number.
    NaN,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
}

impl fmt::Display for ValueClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueClass::NaN => write!(f, "NaN"),
            ValueClass::PosInf => write!(f, "+Inf"),
            ValueClass::NegInf => write!(f, "-Inf"),
        }
    }
}

/// A sentinel trip: the first non-finite element found in one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferAnomaly {
    /// The buffer's declared name.
    pub buffer: String,
    /// Flat index of the offending element within the buffer.
    pub index: usize,
    /// What was found there.
    pub class: ValueClass,
}

impl fmt::Display for BufferAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in `{}` at [{}]", self.class, self.buffer, self.index)
    }
}

/// Scans `data` with the given element step and returns the first
/// non-finite hit as `(index, class)`.
pub fn scan_slice(data: &[f32], stride: usize) -> Option<(usize, ValueClass)> {
    let stride = stride.max(1);
    data.iter().step_by(stride).enumerate().find_map(|(i, &v)| {
        if v.is_finite() {
            None
        } else {
            let class = if v.is_nan() {
                ValueClass::NaN
            } else if v > 0.0 {
                ValueClass::PosInf
            } else {
                ValueClass::NegInf
            };
            Some((i * stride, class))
        }
    })
}

/// What the health monitor concluded about one iteration's loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossAnomaly {
    /// The loss (or a scanned buffer) is NaN/Inf.
    NonFinite,
    /// The loss jumped to `ratio`× the EWMA baseline — divergence.
    Spike {
        /// Loss over baseline.
        ratio: f32,
    },
}

/// What the supervisor does when an anomaly class fires. Fields
/// compose: quarantine marks the batch so replays skip it, a
/// learning-rate cut multiplies the schedule by 0.1 (re-seeding the loss
/// baseline), and a rollback restores the last good checkpoint (spending
/// one unit of the rollback budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyReaction {
    /// Permanently skip this batch position (this run).
    pub quarantine: bool,
    /// Multiply the learning-rate schedule by 0.1.
    pub reduce_lr: bool,
    /// Restore the last good checkpoint and replay.
    pub rollback: bool,
}

impl AnomalyReaction {
    /// Skip and quarantine the offending batch — the right answer for
    /// corrupt data, which reproduces on every replay.
    pub fn quarantine() -> Self {
        AnomalyReaction { quarantine: true, ..Default::default() }
    }

    /// Reduce the learning rate — the right answer for divergence.
    pub fn reduce_lr() -> Self {
        AnomalyReaction { reduce_lr: true, ..Default::default() }
    }

    /// Quarantine, then roll back to undo any damage already absorbed
    /// into the weights.
    pub fn rollback_and_quarantine() -> Self {
        AnomalyReaction { quarantine: true, rollback: true, ..Default::default() }
    }

    /// Cut the learning rate and roll back — the right answer for a
    /// spiked schedule, whose damage lives in the weights, not the data.
    pub fn rollback_and_reduce_lr() -> Self {
        AnomalyReaction { reduce_lr: true, rollback: true, ..Default::default() }
    }
}

/// Numerical-health policy for a supervised training run. Gradient
/// hygiene ([`crate::solver::apply_grad_hygiene`]) is part of every
/// guarded run and has no knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// How the value buffers are scanned after every forward pass.
    pub sentinel: SentinelMode,
    /// A loss above `spike_threshold ×` baseline is a divergence spike.
    pub spike_threshold: f32,
    /// Finite losses folded into the EWMA before spike detection arms.
    pub warmup: u64,
    /// Reaction to a non-finite loss or sentinel trip.
    pub on_bad_batch: AnomalyReaction,
    /// Reaction to a divergence spike.
    pub on_spike: AnomalyReaction,
    /// Maximum checkpoint rollbacks a run may spend on numerical
    /// anomalies before the fault propagates to the caller.
    pub rollback_budget: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            sentinel: SentinelMode::default(),
            spike_threshold: 10.0,
            warmup: 3,
            on_bad_batch: AnomalyReaction::quarantine(),
            on_spike: AnomalyReaction::reduce_lr(),
            rollback_budget: 2,
        }
    }
}

impl HealthConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] when a field is out of range.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let bad = |detail: String| Err(RuntimeError::InvalidConfig { detail });
        if self.spike_threshold.is_nan() || self.spike_threshold <= 1.0 {
            return bad(format!(
                "spike_threshold must exceed 1, got {}",
                self.spike_threshold
            ));
        }
        if let SentinelMode::Sampled { stride } = self.sentinel {
            if stride == 0 {
                return bad("sentinel stride must be at least 1".into());
            }
        }
        Ok(())
    }

    /// The configured reaction for `anomaly`.
    pub fn reaction_for(&self, anomaly: LossAnomaly) -> AnomalyReaction {
        match anomaly {
            LossAnomaly::NonFinite => self.on_bad_batch,
            LossAnomaly::Spike { .. } => self.on_spike,
        }
    }
}

/// Tracks the loss trajectory of one training run and classifies each
/// iteration's loss against it. Owned by the supervisor *outside* its
/// restart loop, so quarantine decisions and the learned baseline
/// survive rollbacks.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    spike_threshold: f32,
    warmup: u64,
    ewma: Option<f32>,
    observed: u64,
    quarantined: HashSet<u64>,
}

impl HealthMonitor {
    /// A monitor implementing `cfg`'s thresholds, with an empty
    /// baseline and no quarantined batches.
    pub fn new(cfg: &HealthConfig) -> Self {
        HealthMonitor {
            spike_threshold: cfg.spike_threshold,
            warmup: cfg.warmup,
            ewma: None,
            observed: 0,
            quarantined: HashSet::new(),
        }
    }

    /// Classifies one iteration's loss. Healthy losses fold into the EWMA baseline; non-finite losses and spikes do
    /// not — an outlier must never drag the baseline toward itself.
    pub fn observe(&mut self, loss: f32) -> Option<LossAnomaly> {
        if !loss.is_finite() {
            return Some(LossAnomaly::NonFinite);
        }
        if let Some(e) = self.ewma {
            let baseline = e.max(SPIKE_FLOOR);
            if self.observed >= self.warmup && loss > self.spike_threshold * baseline {
                return Some(LossAnomaly::Spike { ratio: loss / baseline });
            }
        }
        self.ewma = Some(match self.ewma {
            Some(e) => EWMA_ALPHA * loss + (1.0 - EWMA_ALPHA) * e,
            None => loss,
        });
        self.observed += 1;
        None
    }

    /// The current EWMA baseline, once at least one finite loss has
    /// been observed.
    pub fn baseline(&self) -> Option<f32> {
        self.ewma
    }

    /// Forgets the baseline (but not the quarantine set). Called after
    /// a reaction changes the training dynamics — e.g. a learning-rate
    /// cut — so the next losses re-seed the EWMA instead of being
    /// judged against a stale regime.
    pub fn rebaseline(&mut self) {
        self.ewma = None;
        self.observed = 0;
    }

    /// Quarantines the batch position `iter`; returns `true` when newly
    /// quarantined.
    pub fn quarantine(&mut self, iter: u64) -> bool {
        self.quarantined.insert(iter)
    }

    /// Whether the batch position `iter` is quarantined.
    pub fn is_quarantined(&self, iter: u64) -> bool {
        self.quarantined.contains(&iter)
    }

    /// Number of quarantined batch positions.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_slice_finds_first_hit_and_classifies_it() {
        assert_eq!(scan_slice(&[0.0, 1.0, -2.0], 1), None);
        assert_eq!(
            scan_slice(&[0.0, f32::NAN, f32::INFINITY], 1),
            Some((1, ValueClass::NaN))
        );
        assert_eq!(
            scan_slice(&[0.0, f32::NEG_INFINITY], 1),
            Some((1, ValueClass::NegInf))
        );
        assert_eq!(
            scan_slice(&[f32::INFINITY], 1),
            Some((0, ValueClass::PosInf))
        );
        assert_eq!(scan_slice(&[], 1), None);
    }

    #[test]
    fn sampled_scan_can_miss_what_exhaustive_finds() {
        let mut data = vec![0.0f32; 10];
        data[3] = f32::NAN;
        // Stride 2 probes even indices only.
        assert_eq!(scan_slice(&data, 2), None);
        assert_eq!(scan_slice(&data, 1), Some((3, ValueClass::NaN)));
    }

    #[test]
    fn sentinel_mode_strides() {
        assert_eq!(SentinelMode::Off.stride(), None);
        assert_eq!(SentinelMode::Exhaustive.stride(), Some(1));
        assert_eq!(SentinelMode::Sampled { stride: 7 }.stride(), Some(7));
        assert_eq!(SentinelMode::Sampled { stride: 0 }.stride(), Some(1));
    }

    #[test]
    fn monitor_flags_nonfinite_immediately() {
        let mut m = HealthMonitor::new(&HealthConfig::default());
        assert_eq!(m.observe(1.0), None);
        assert_eq!(m.observe(f32::NAN), Some(LossAnomaly::NonFinite));
        assert_eq!(m.observe(f32::INFINITY), Some(LossAnomaly::NonFinite));
        // The NaN did not poison the baseline.
        assert!(m.baseline().expect("baseline").is_finite());
    }

    #[test]
    fn monitor_flags_spikes_only_after_warmup() {
        let cfg = HealthConfig { warmup: 3, spike_threshold: 10.0, ..Default::default() };
        let mut m = HealthMonitor::new(&cfg);
        // During warmup even a wild loss folds into the baseline.
        assert_eq!(m.observe(1.0), None);
        assert_eq!(m.observe(50.0), None);
        assert_eq!(m.observe(1.0), None);
        let baseline = m.baseline().expect("baseline");
        let spike = baseline * 11.0;
        match m.observe(spike) {
            Some(LossAnomaly::Spike { ratio }) => assert!(ratio > 10.0),
            other => panic!("expected spike, got {other:?}"),
        }
        // The spike did not move the baseline.
        assert_eq!(m.baseline(), Some(baseline));
    }

    #[test]
    fn a_floor_under_the_baseline_protects_converged_runs() {
        let cfg = HealthConfig {
            warmup: 1,
            spike_threshold: 10.0,
            ..Default::default()
        };
        let mut m = HealthMonitor::new(&cfg);
        assert_eq!(m.observe(1e-6), None);
        assert_eq!(m.observe(1e-6), None);
        // 5e-3 is 5000× the EWMA but only 5× the floor: not a spike.
        assert_eq!(m.observe(5e-3), None);
        // 2e-2 is 20× the floor: spike.
        assert!(matches!(m.observe(2e-2), Some(LossAnomaly::Spike { .. })));
    }

    #[test]
    fn rebaseline_clears_ewma_but_keeps_quarantine() {
        let mut m = HealthMonitor::new(&HealthConfig::default());
        assert_eq!(m.observe(2.0), None);
        assert!(m.quarantine(7));
        assert!(!m.quarantine(7), "already quarantined");
        m.rebaseline();
        assert_eq!(m.baseline(), None);
        assert!(m.is_quarantined(7));
        assert_eq!(m.quarantined_count(), 1);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = HealthConfig::default();
        assert!(ok.validate().is_ok());
        let bad_threshold = HealthConfig { spike_threshold: 1.0, ..Default::default() };
        assert!(bad_threshold.validate().is_err());
        let bad_stride = HealthConfig {
            sentinel: SentinelMode::Sampled { stride: 0 },
            ..Default::default()
        };
        assert!(bad_stride.validate().is_err());
    }
}
