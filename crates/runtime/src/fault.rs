//! Deterministic fault injection for the runtime.
//!
//! A [`FaultPlan`] is an explicit schedule of failures — node crashes,
//! straggler slowdowns, dropped/corrupted gradient transfers, checkpoint
//! I/O errors, and whole-process deaths — that the live transport
//! ([`FaultyTransport`]), the training supervisor
//! ([`crate::supervisor`]) and the serving tests consult at well-defined
//! points. Plans are
//! either written out by hand (tests pin exact scenarios) or generated
//! pseudo-randomly from a seed ([`FaultPlan::random`]), so every failure
//! scenario is reproducible bit-for-bit: same seed, same faults, same
//! recovery trace.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::transport::{corrupt_payload, Frame, FrameKind, TransportError, Wire, WireBytes};

/// One scheduled failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `node` halts permanently at the start of iteration `iter`.
    NodeCrash {
        /// The crashing node.
        node: usize,
        /// First iteration the node is dead for.
        iter: usize,
    },
    /// `node` computes `factor`× slower for iterations
    /// `from_iter..to_iter`.
    Straggler {
        /// The slow node.
        node: usize,
        /// First affected iteration.
        from_iter: usize,
        /// First iteration back at full speed.
        to_iter: usize,
        /// Compute-time multiplier (> 1).
        factor: f64,
    },
    /// One gradient transfer from `node` for layer `layer` during
    /// iteration `iter` is silently dropped; the receiver times out and
    /// requests a retransmit. Several identical entries model repeated
    /// drops, eating into the retry budget.
    TransferDrop {
        /// The sending node.
        node: usize,
        /// The affected iteration.
        iter: usize,
        /// The layer whose all-reduce is hit.
        layer: usize,
    },
    /// Like [`Fault::TransferDrop`], but the transfer arrives with a bad
    /// checksum — detected immediately instead of after a timeout.
    TransferCorrupt {
        /// The sending node.
        node: usize,
        /// The affected iteration.
        iter: usize,
        /// The layer whose all-reduce is hit.
        layer: usize,
    },
    /// The checkpoint write scheduled at iteration `iter` fails with an
    /// I/O error (fires once).
    IoError {
        /// The affected iteration.
        iter: usize,
    },
    /// The training process dies after completing iteration `iter`
    /// (fires once — the restarted process is not re-killed).
    ProcessDeath {
        /// The last completed iteration before death.
        iter: usize,
    },
    /// The input batch read at global iteration `iter` is corrupted with
    /// NaNs. Persistent, not one-shot: a rolled-back attempt replaying
    /// the same position re-reads the same corrupt record, so recovery
    /// requires quarantining the batch, not retrying it.
    BatchNaN {
        /// The poisoned global iteration.
        iter: usize,
    },
    /// The parameter gradients of global iteration `iter` are corrupted
    /// (NaN) after the backward pass — a transient compute/memory glitch.
    /// One-shot: a replay of the iteration computes clean gradients.
    GradCorrupt {
        /// The affected global iteration.
        iter: usize,
    },
    /// The solver's learning-rate schedule is multiplied by `factor`
    /// just before global iteration `iter` — a bad config push or a
    /// corrupted hyperparameter. One-shot, but the damage persists in
    /// the solver until a health policy reduces the rate again.
    LrSpike {
        /// The first iteration run at the spiked rate.
        iter: usize,
        /// Multiplier applied to the learning-rate schedule (> 1).
        factor: f32,
    },
}

/// How a faulty transfer failed, as seen by the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// Nothing arrived; detected by timeout.
    Dropped,
    /// Payload arrived but failed its checksum; detected immediately.
    Corrupted,
}

/// Rates for [`FaultPlan::random`]; all probabilities are per-node
/// per-iteration.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Probability a healthy node crashes.
    pub crash: f64,
    /// Probability a straggler phase starts.
    pub straggle: f64,
    /// Straggler slowdown factor.
    pub straggle_factor: f64,
    /// Straggler phase length in iterations.
    pub straggle_len: usize,
    /// Probability a node drops one transfer.
    pub transfer_drop: f64,
    /// Probability a node corrupts one transfer.
    pub transfer_corrupt: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            crash: 0.01,
            straggle: 0.05,
            straggle_factor: 3.0,
            straggle_len: 3,
            transfer_drop: 0.02,
            transfer_corrupt: 0.01,
        }
    }
}

/// A reproducible schedule of failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    fired: Vec<bool>,
}

impl FaultPlan {
    /// A plan executing exactly `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        let fired = vec![false; faults.len()];
        FaultPlan { faults, fired }
    }

    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan over `nodes` nodes and `iters` iterations from a
    /// seed: identical seeds yield identical plans.
    pub fn random(
        seed: u64,
        nodes: usize,
        iters: usize,
        layers: usize,
        rates: &FaultRates,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        for iter in 0..iters {
            for node in 0..nodes {
                if rates.crash > 0.0 && rng.gen_range(0.0..1.0) < rates.crash {
                    faults.push(Fault::NodeCrash { node, iter });
                }
                if rates.straggle > 0.0 && rng.gen_range(0.0..1.0) < rates.straggle {
                    faults.push(Fault::Straggler {
                        node,
                        from_iter: iter,
                        to_iter: iter + rates.straggle_len.max(1),
                        factor: rates.straggle_factor,
                    });
                }
                if rates.transfer_drop > 0.0 && rng.gen_range(0.0..1.0) < rates.transfer_drop {
                    let layer = rng.gen_range(0..layers.max(1));
                    faults.push(Fault::TransferDrop { node, iter, layer });
                }
                if rates.transfer_corrupt > 0.0 && rng.gen_range(0.0..1.0) < rates.transfer_corrupt
                {
                    let layer = rng.gen_range(0..layers.max(1));
                    faults.push(Fault::TransferCorrupt { node, iter, layer });
                }
            }
        }
        FaultPlan::new(faults)
    }

    /// Every scheduled fault.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether `node` is scheduled to have crashed at or before `iter`.
    pub fn crashed_by(&self, node: usize, iter: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::NodeCrash { node: n, iter: i } if *n == node && *i <= iter))
    }

    /// The compute-slowdown factor for `node` at `iter` (1.0 = healthy);
    /// overlapping straggler phases compound.
    pub fn straggle_factor(&self, node: usize, iter: usize) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::Straggler {
                    node: n,
                    from_iter,
                    to_iter,
                    factor,
                } if *n == node && (*from_iter..*to_iter).contains(&iter) => Some(*factor),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// The transfer faults hitting `(node, iter, layer)`, in schedule
    /// order — one retry is needed per entry.
    pub fn transfer_faults(&self, node: usize, iter: usize, layer: usize) -> Vec<TransferFault> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::TransferDrop {
                    node: n,
                    iter: i,
                    layer: l,
                } if (*n, *i, *l) == (node, iter, layer) => Some(TransferFault::Dropped),
                Fault::TransferCorrupt {
                    node: n,
                    iter: i,
                    layer: l,
                } if (*n, *i, *l) == (node, iter, layer) => Some(TransferFault::Corrupted),
                _ => None,
            })
            .collect()
    }

    /// Consumes a pending [`Fault::ProcessDeath`] for `iter`, if one has
    /// not fired yet. One-shot: the restarted process re-executing
    /// `iter` is not killed again.
    pub fn take_process_death(&mut self, iter: u64) -> bool {
        self.take_once(|f| matches!(f, Fault::ProcessDeath { iter: i } if *i as u64 == iter))
            .is_some()
    }

    /// Consumes a pending [`Fault::IoError`] for `iter` (one-shot).
    pub fn take_io_error(&mut self, iter: u64) -> bool {
        self.take_once(|f| matches!(f, Fault::IoError { iter: i } if *i as u64 == iter))
            .is_some()
    }

    /// Whether the batch read at global iteration `iter` is scheduled to
    /// be NaN-poisoned. Persistent (never consumed): replaying the same
    /// data position re-reads the same corrupt record.
    pub fn batch_poisoned(&self, iter: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::BatchNaN { iter: i } if *i as u64 == iter))
    }

    /// Consumes a pending [`Fault::GradCorrupt`] for `iter` (one-shot:
    /// a rolled-back replay of the iteration computes clean gradients).
    pub fn take_grad_corrupt(&mut self, iter: u64) -> bool {
        self.take_once(|f| matches!(f, Fault::GradCorrupt { iter: i } if *i as u64 == iter))
            .is_some()
    }

    /// Consumes a pending [`Fault::LrSpike`] for `iter` and returns its
    /// factor (one-shot — the spiked schedule itself persists in the
    /// solver until something corrects it).
    pub fn take_lr_spike(&mut self, iter: u64) -> Option<f32> {
        match self.take_once(|f| matches!(f, Fault::LrSpike { iter: i, .. } if *i as u64 == iter)) {
            Some(&Fault::LrSpike { factor, .. }) => Some(factor),
            _ => None,
        }
    }

    /// Fires the first pending fault `matches` accepts and returns it.
    fn take_once(&mut self, matches: impl Fn(&Fault) -> bool) -> Option<&Fault> {
        let i = (0..self.faults.len()).find(|&i| !self.fired[i] && matches(&self.faults[i]))?;
        self.fired[i] = true;
        Some(&self.faults[i])
    }
}

/// A [`Wire`] wrapper that injects this module's deterministic fault
/// plans into the *real* transport, so scripted and seeded scenarios
/// exercise the live ring:
///
/// * [`Fault::TransferDrop`] / [`Fault::TransferCorrupt`] apply to the
///   bucket's **first** data frame (reduce-scatter ring-step 0), keyed
///   by `(sender = node, step = iter, bucket = layer)`. The n-th plan
///   entry hits the n-th send attempt of that frame, so repeated
///   entries eat into the receiver's retry budget — enough of them and
///   the receiver evicts us.
/// * [`Fault::Straggler`] delays every data send by
///   `straggle_unit × (factor − 1)` during its window, which the
///   receiving side's EWMA straggler detector picks up.
/// * [`Fault::NodeCrash`] turns the wire into a silent black hole from
///   its iteration onward — nothing is sent (not even resend services),
///   so peers see timeouts and heal the ring around us.
/// * [`Fault::ProcessDeath`] is *not* handled here: the worker binary
///   maps it to a real `process::exit`, and `BatchNaN` / `GradCorrupt` /
///   `LrSpike` stay at the training layer where the data and solver
///   live.
///
/// The extra [`FaultyTransport::with_crash_after_sends`] knob (not part
/// of [`FaultPlan`]) kills the wire after a fixed number of data frames
/// — mid-reduce-scatter — to pin down the partial-chunk healing path.
pub struct FaultyTransport<W: Wire> {
    inner: W,
    rank: usize,
    plan: FaultPlan,
    straggle_unit: Duration,
    crash_after_sends: Option<u64>,
    state: Mutex<FaultyWireState>,
}

#[derive(Default)]
struct FaultyWireState {
    crashed: bool,
    data_sends: u64,
    /// Send attempts of each bucket's fault-targeted frame, keyed by
    /// `(step, bucket)`.
    attempts: HashMap<(u32, u16), usize>,
}

impl<W: Wire> FaultyTransport<W> {
    /// Wraps `inner`, injecting `plan`'s faults for sender `rank`.
    pub fn new(rank: usize, plan: FaultPlan, inner: W) -> FaultyTransport<W> {
        FaultyTransport {
            inner,
            rank,
            plan,
            straggle_unit: Duration::from_millis(5),
            crash_after_sends: None,
            state: Mutex::new(FaultyWireState::default()),
        }
    }

    /// Sets the per-unit straggler delay (default 5 ms per `factor − 1`).
    pub fn with_straggle_unit(mut self, unit: Duration) -> Self {
        self.straggle_unit = unit;
        self
    }

    /// Crashes the wire silently after `n` data frames have been sent —
    /// the mid-reduce-scatter death used by the partial-chunk tests.
    pub fn with_crash_after_sends(mut self, n: u64) -> Self {
        self.crash_after_sends = Some(n);
        self
    }
}

impl<W: Wire> Wire for FaultyTransport<W> {
    fn send(&self, to: usize, mut bytes: WireBytes) -> Result<(), TransportError> {
        let peeked = Frame::peek(&bytes);
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            // A dead node neither sends nor errors: peers find out by
            // timing out.
            return Ok(());
        }
        if let Some((p, _)) = peeked {
            if p.kind == FrameKind::Data {
                let step = p.key.step as usize;
                if self.plan.crashed_by(self.rank, step) {
                    st.crashed = true;
                    return Ok(());
                }
                st.data_sends += 1;
                if let Some(n) = self.crash_after_sends {
                    if st.data_sends > n {
                        st.crashed = true;
                        return Ok(());
                    }
                }
                if p.key.phase == 0 && p.key.ring_step == 0 {
                    let site = (p.key.step, p.key.bucket);
                    let attempt = *st.attempts.get(&site).unwrap_or(&0);
                    st.attempts.insert(site, attempt + 1);
                    let faults = self
                        .plan
                        .transfer_faults(self.rank, step, p.key.bucket as usize);
                    if let Some(f) = faults.get(attempt) {
                        match f {
                            TransferFault::Dropped => return Ok(()),
                            TransferFault::Corrupted => {
                                // Copy-on-write: the sender's retransmit
                                // window shares this buffer and must keep
                                // the clean frame a resend recovers.
                                corrupt_payload(Arc::make_mut(&mut bytes).as_mut_slice());
                            }
                        }
                    }
                }
                let factor = self.plan.straggle_factor(self.rank, step);
                if factor > 1.0 {
                    drop(st);
                    std::thread::sleep(self.straggle_unit.mul_f64(factor - 1.0));
                    return self.inner.send(to, bytes);
                }
            }
        }
        drop(st);
        self.inner.send(to, bytes)
    }

    fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let rates = FaultRates::default();
        let a = FaultPlan::random(11, 4, 20, 8, &rates);
        let b = FaultPlan::random(11, 4, 20, 8, &rates);
        assert_eq!(a, b);
        let c = FaultPlan::random(12, 4, 20, 8, &rates);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn crash_is_permanent_from_its_iteration() {
        let plan = FaultPlan::new(vec![Fault::NodeCrash { node: 1, iter: 3 }]);
        assert!(!plan.crashed_by(1, 2));
        assert!(plan.crashed_by(1, 3));
        assert!(plan.crashed_by(1, 10));
        assert!(!plan.crashed_by(0, 10));
    }

    #[test]
    fn straggle_factor_windows_and_compounds() {
        let plan = FaultPlan::new(vec![
            Fault::Straggler {
                node: 0,
                from_iter: 2,
                to_iter: 5,
                factor: 2.0,
            },
            Fault::Straggler {
                node: 0,
                from_iter: 4,
                to_iter: 6,
                factor: 3.0,
            },
        ]);
        assert_eq!(plan.straggle_factor(0, 1), 1.0);
        assert_eq!(plan.straggle_factor(0, 2), 2.0);
        assert_eq!(plan.straggle_factor(0, 4), 6.0);
        assert_eq!(plan.straggle_factor(0, 5), 3.0);
        assert_eq!(plan.straggle_factor(1, 4), 1.0);
    }

    #[test]
    fn transfer_faults_accumulate_per_site() {
        let plan = FaultPlan::new(vec![
            Fault::TransferDrop {
                node: 2,
                iter: 1,
                layer: 0,
            },
            Fault::TransferDrop {
                node: 2,
                iter: 1,
                layer: 0,
            },
            Fault::TransferCorrupt {
                node: 2,
                iter: 1,
                layer: 0,
            },
        ]);
        let faults = plan.transfer_faults(2, 1, 0);
        assert_eq!(
            faults,
            vec![
                TransferFault::Dropped,
                TransferFault::Dropped,
                TransferFault::Corrupted
            ]
        );
        assert!(plan.transfer_faults(2, 1, 1).is_empty());
    }

    #[test]
    fn one_shot_faults_fire_once() {
        let mut plan = FaultPlan::new(vec![
            Fault::ProcessDeath { iter: 5 },
            Fault::IoError { iter: 2 },
        ]);
        assert!(!plan.take_process_death(4));
        assert!(plan.take_process_death(5));
        assert!(!plan.take_process_death(5), "death is one-shot");
        assert!(plan.take_io_error(2));
        assert!(!plan.take_io_error(2));
    }

    #[test]
    fn duplicate_identical_faults_each_fire_once() {
        // Two deaths scheduled for the same iteration model "the restarted
        // process is killed again at the same point": the first attempt
        // consumes one, the retry consumes the other, the third replay of
        // that iteration survives.
        let mut plan = FaultPlan::new(vec![
            Fault::ProcessDeath { iter: 3 },
            Fault::ProcessDeath { iter: 3 },
        ]);
        assert!(plan.take_process_death(3), "first attempt dies");
        assert!(plan.take_process_death(3), "restart dies again");
        assert!(!plan.take_process_death(3), "second restart survives");
    }

    #[test]
    fn consumed_faults_stay_consumed_across_restart_attempts() {
        // The supervisor reuses one plan object across restore attempts;
        // a fault consumed before the crash must not re-fire when the
        // restarted attempt replays the same iterations.
        let mut plan = FaultPlan::new(vec![
            Fault::IoError { iter: 2 },
            Fault::ProcessDeath { iter: 4 },
        ]);
        // Attempt 1: iterations 0..=4.
        for iter in 0..=4u64 {
            let io = plan.take_io_error(iter);
            assert_eq!(io, iter == 2);
            if plan.take_process_death(iter) {
                assert_eq!(iter, 4);
                break;
            }
        }
        // Attempt 2 replays iterations 0..=4 after the restore: neither
        // the I/O error nor the death fires again.
        for iter in 0..=4u64 {
            assert!(!plan.take_io_error(iter), "io error re-fired at {iter}");
            assert!(!plan.take_process_death(iter), "death re-fired at {iter}");
        }
    }

    #[test]
    fn batch_poison_is_persistent_and_grad_corrupt_is_one_shot() {
        let mut plan = FaultPlan::new(vec![
            Fault::BatchNaN { iter: 3 },
            Fault::GradCorrupt { iter: 5 },
        ]);
        // Replaying iteration 3 (e.g. after a rollback) re-reads the
        // same corrupt record every time.
        assert!(plan.batch_poisoned(3));
        assert!(plan.batch_poisoned(3));
        assert!(!plan.batch_poisoned(4));
        // A gradient glitch does not reproduce on replay.
        assert!(!plan.take_grad_corrupt(4));
        assert!(plan.take_grad_corrupt(5));
        assert!(!plan.take_grad_corrupt(5), "glitch is one-shot");
    }

    #[test]
    fn lr_spike_returns_its_factor_once() {
        let mut plan = FaultPlan::new(vec![Fault::LrSpike {
            iter: 2,
            factor: 100.0,
        }]);
        assert_eq!(plan.take_lr_spike(1), None);
        assert_eq!(plan.take_lr_spike(2), Some(100.0));
        assert_eq!(plan.take_lr_spike(2), None);
    }

    #[test]
    fn take_once_is_keyed_by_iteration_not_order() {
        let mut plan = FaultPlan::new(vec![Fault::IoError { iter: 7 }, Fault::IoError { iter: 2 }]);
        // Consuming the later iteration first leaves the earlier intact.
        assert!(plan.take_io_error(7));
        assert!(plan.take_io_error(2));
        assert!(!plan.take_io_error(7));
        assert!(!plan.take_io_error(2));
    }
}
