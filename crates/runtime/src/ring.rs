//! The real ring all-reduce: reduce-scatter followed by all-gather over
//! a [`Transport`], with a fixed fold order, receiver-driven
//! retransmission, straggler detection, and ring healing.
//!
//! ## Determinism (the bit-identity contract)
//!
//! A bucket of `n` gradient floats over `k` live ranks is cut into `k`
//! chunks ([`chunk_spans`]). Chunk `c`'s sum starts at ring position `c`
//! and travels rightward, each position folding its own contribution
//! onto the running sum — so chunk `c` is always associated as
//! `((g_c + g_{c+1}) + g_{c+2}) + …`, regardless of timing, retries, or
//! thread scheduling. [`reference_allreduce`] replays exactly this
//! rotated fold serially; in synchronized mode the distributed result is
//! bit-identical to it (and, for `k = 1`, to plain single-process
//! training — the bucket is returned untouched).
//!
//! ## Robustness
//!
//! Every receive runs under a per-op deadline. In synchronized mode a
//! timeout or CRC failure triggers a resend request with exponential
//! backoff and jitter; when the retry budget is exhausted the peer is
//! evicted ([`Transport::evict`] broadcasts the death), the ring heals —
//! survivors re-form it — and the bucket **restarts from the pristine
//! input gradients**, which is what makes a peer dying mid-reduce-scatter
//! safe: partially folded chunks are discarded wholesale, never
//! double-counted. After any shrink the communicator degrades to
//! [`SyncMode::LossyDegraded`]: deadlines turn short and single-attempt,
//! and whatever contributions arrived by the deadline are averaged (the
//! per-chunk contributor mask picks the divisor).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RuntimeError;
use crate::metrics::FaultMetrics;
use crate::transport::{Delivery, Frame, FrameKind, Header, Key, Transport, TransportError};

/// All-reduce synchronization mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Every live rank contributes to every gradient sum; the slowest
    /// rank gates the step.
    Synchronized,
    /// The paper's lossy unsynchronized mode over a shrunken participant
    /// set: deadlines turn short and single-attempt, and whatever
    /// contributions arrived in time are averaged, so stragglers and
    /// dead ranks no longer gate progress (at the cost of dropped
    /// contributions).
    LossyDegraded,
}

/// Retry, deadline, backoff, and straggler policy for the ring.
#[derive(Debug, Clone)]
pub struct CommPolicy {
    /// Per-attempt receive deadline in synchronized mode (must cover
    /// compute skew between ranks), milliseconds.
    pub op_timeout_ms: u64,
    /// Resend requests per frame before the peer is evicted. Also the
    /// consecutive-miss budget per peer in lossy mode.
    pub max_retries: u32,
    /// Base backoff before the first retry, milliseconds.
    pub backoff_base_ms: f64,
    /// Backoff cap, milliseconds.
    pub backoff_cap_ms: f64,
    /// Jitter fraction added to each backoff (`0.0..=1.0`), drawn from a
    /// rank-seeded RNG so runs stay reproducible.
    pub jitter: f64,
    /// Single-attempt receive deadline in lossy mode, milliseconds.
    pub lossy_timeout_ms: u64,
    /// A receive slower than `threshold ×` the peer's EWMA estimate
    /// flags a straggler.
    pub straggler_threshold: f64,
    /// EWMA smoothing for per-peer receive latency.
    pub ewma_alpha: f64,
    /// Receives observed per peer before straggler detection arms.
    pub straggler_grace: u32,
}

impl Default for CommPolicy {
    fn default() -> Self {
        CommPolicy {
            op_timeout_ms: 2_000,
            max_retries: 3,
            backoff_base_ms: 2.0,
            backoff_cap_ms: 100.0,
            jitter: 0.25,
            lossy_timeout_ms: 200,
            straggler_threshold: 4.0,
            ewma_alpha: 0.3,
            straggler_grace: 3,
        }
    }
}

impl CommPolicy {
    /// Rejects degenerate policies.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] with the offending field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let bad = |detail: &str| {
            Err(RuntimeError::InvalidConfig {
                detail: format!("comm policy: {detail}"),
            })
        };
        if self.op_timeout_ms == 0 || self.lossy_timeout_ms == 0 {
            return bad("deadlines must be positive");
        }
        if self.backoff_base_ms.is_nan()
            || self.backoff_cap_ms.is_nan()
            || self.backoff_base_ms <= 0.0
            || self.backoff_cap_ms < self.backoff_base_ms
        {
            return bad("backoff base must be positive and no larger than the cap");
        }
        if !(0.0..=1.0).contains(&self.jitter) || self.jitter.is_nan() {
            return bad("jitter must be in [0, 1]");
        }
        if self.straggler_threshold.is_nan() || self.straggler_threshold <= 1.0 {
            return bad("straggler threshold must exceed 1");
        }
        if !(0.0..=1.0).contains(&self.ewma_alpha) || self.ewma_alpha == 0.0 {
            return bad("ewma alpha must be in (0, 1]");
        }
        Ok(())
    }

    /// Backoff before retry `attempt` (1-based): exponential from the
    /// base, capped, plus jitter.
    fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self.backoff_base_ms * f64::powi(2.0, attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.backoff_cap_ms);
        let jittered = capped * (1.0 + self.jitter * rng.gen_range(0.0f64..1.0));
        Duration::from_secs_f64(jittered / 1e3)
    }
}

/// Cuts `len` elements into `k` contiguous chunks, the first `len % k`
/// of them one element longer. Chunks may be empty when `len < k`.
pub fn chunk_spans(len: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "chunk_spans needs at least one chunk");
    let base = len / k;
    let rem = len % k;
    let mut spans = Vec::with_capacity(k);
    let mut at = 0;
    for c in 0..k {
        let sz = base + usize::from(c < rem);
        spans.push(at..at + sz);
        at += sz;
    }
    spans
}

/// The serial oracle for the ring's synchronized mode: averages
/// `parts` (one gradient vector per rank, ring order) with exactly the
/// ring's chunking and rotated fold order, so a fault-free distributed
/// all-reduce must match it bit for bit.
///
/// # Panics
///
/// If `parts` is empty or lengths differ.
pub fn reference_allreduce(parts: &[Vec<f32>]) -> Vec<f32> {
    let k = parts.len();
    assert!(k > 0, "reference_allreduce needs at least one contribution");
    let n = parts[0].len();
    assert!(
        parts.iter().all(|p| p.len() == n),
        "contributions must agree on length"
    );
    if k == 1 {
        // Matches the ring's solo fast path: untouched, unscaled.
        return parts[0].clone();
    }
    let spans = chunk_spans(n, k);
    let mut out = vec![0.0f32; n];
    let scale = 1.0f32 / k as f32;
    for (c, span) in spans.iter().enumerate() {
        let dst = &mut out[span.clone()];
        dst.copy_from_slice(&parts[c][span.clone()]);
        for j in 1..k {
            let src = &parts[(c + j) % k][span.clone()];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
        for d in dst.iter_mut() {
            *d *= scale;
        }
    }
    out
}

/// Outcome of one bucket's all-reduce.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketReport {
    /// Mode the bucket finished in.
    pub mode: SyncMode,
    /// Live ranks when it finished.
    pub live: usize,
    /// Wall-clock time of the whole bucket, milliseconds.
    pub elapsed_ms: f64,
    /// Payload bytes folded locally during reduce-scatter.
    pub bytes: u64,
    /// Ring-healing restarts the bucket went through.
    pub restarts: u32,
    /// Peers this rank evicted while reducing the bucket.
    pub evicted: Vec<usize>,
}

enum RecvOutcome {
    Frame(Frame),
    /// Lossy mode: the deadline passed; proceed without it.
    Missed,
    /// Membership changed (eviction here or news from a peer): restart
    /// the bucket over the healed ring.
    Restart,
    Fatal(TransportError),
}

/// A ring communicator over any [`Transport`]: one instance per rank,
/// driven bucket by bucket by the distributed trainer.
pub struct RingComm {
    tp: Box<dyn Transport>,
    policy: CommPolicy,
    mode: SyncMode,
    rng: StdRng,
    /// Per-peer EWMA of receive latency, milliseconds.
    ewma: Vec<f64>,
    ewma_n: Vec<u32>,
    /// Per-peer consecutive lossy misses (eviction after the budget).
    misses: Vec<u32>,
    /// Peers already flagged as stragglers this bucket.
    flagged: Vec<bool>,
    /// The working copy of the bucket being reduced, kept across calls
    /// so a step allocates no bucket-sized buffer.
    scratch: Vec<f32>,
    /// When this rank last relayed a Busy downstream (see `recv_op`).
    busy_relayed: Option<Instant>,
}

impl RingComm {
    /// Wraps a transport under `policy`, starting synchronized.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for a degenerate policy.
    pub fn new(tp: Box<dyn Transport>, policy: CommPolicy) -> Result<RingComm, RuntimeError> {
        policy.validate()?;
        let world = tp.world();
        let rank = tp.rank();
        Ok(RingComm {
            tp,
            policy,
            mode: SyncMode::Synchronized,
            rng: StdRng::seed_from_u64(0x1a77e ^ (rank as u64).wrapping_mul(0x9E37_79B9)),
            ewma: vec![0.0; world],
            ewma_n: vec![0; world],
            misses: vec![0; world],
            flagged: vec![false; world],
            scratch: Vec::new(),
            busy_relayed: None,
        })
    }

    /// Current mode (degrades permanently once the ring shrinks).
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.tp.rank()
    }

    /// Live ranks, ascending.
    pub fn live(&self) -> Vec<usize> {
        let mask = self.tp.alive_mask();
        (0..self.tp.world())
            .filter(|&r| mask & (1 << r) != 0)
            .collect()
    }

    /// The transport's fault counters.
    pub fn metrics(&self) -> Arc<FaultMetrics> {
        Arc::clone(self.tp.metrics())
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &dyn Transport {
        self.tp.as_ref()
    }

    /// Averages `grad` with every live peer's same-keyed bucket in
    /// place. Synchronized mode reproduces [`reference_allreduce`] over
    /// the live ranks bit for bit; lossy mode averages whatever arrived
    /// by the deadline. A solo ring returns `grad` untouched.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when this rank was evicted by the
    /// others or the transport shut down — conditions retries cannot
    /// mend.
    pub fn allreduce(
        &mut self,
        step: u32,
        bucket: u16,
        grad: &mut [f32],
    ) -> Result<BucketReport, RuntimeError> {
        // The working buffer leaves `self` for the call: the receive
        // path borrows `self` mutably while chunks of it are folded into.
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.allreduce_in(step, bucket, grad, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// [`RingComm::allreduce`] with `scratch` as the working copy of the
    /// bucket. `grad` stays pristine until the bucket closes, so every
    /// healing restart re-seeds `scratch` from it.
    fn allreduce_in(
        &mut self,
        step: u32,
        bucket: u16,
        grad: &mut [f32],
        scratch: &mut Vec<f32>,
    ) -> Result<BucketReport, RuntimeError> {
        let me_rank = self.tp.rank();
        let own_bit = 1u32 << me_rank;
        let t0 = Instant::now();
        let mut restarts = 0u32;
        let mut evicted = Vec::new();
        let mut stash: HashMap<Key, Frame> = HashMap::new();
        self.flagged.iter_mut().for_each(|f| *f = false);

        'attempt: loop {
            stash.clear();
            let mask0 = self.tp.alive_mask();
            if mask0 & own_bit == 0 {
                return Err(RuntimeError::Transport {
                    detail: format!("rank {me_rank} was evicted by its peers"),
                });
            }
            let live: Vec<usize> = (0..self.tp.world())
                .filter(|&r| mask0 & (1 << r) != 0)
                .collect();
            let k = live.len();
            if k < self.tp.world() {
                self.mode = SyncMode::LossyDegraded;
            }
            if k == 1 {
                // Solo ring: bit-identical to plain single-process
                // training — no fold, no scale.
                return Ok(BucketReport {
                    mode: self.mode,
                    live: 1,
                    elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                    bytes: 0,
                    restarts,
                    evicted,
                });
            }
            let me = live.iter().position(|&r| r == me_rank).expect("own rank live");
            let right = live[(me + 1) % k];
            let left = live[(me + k - 1) % k];
            let spans = chunk_spans(grad.len(), k);
            scratch.clear();
            scratch.extend_from_slice(grad);
            let mut contrib = vec![own_bit; k];
            let mut bytes = 0u64;

            // Reduce-scatter: k-1 steps; chunk c starts at position c
            // and accumulates rightward.
            for s in 0..k - 1 {
                let send_c = (me + k - s) % k;
                let recv_c = (me + k - s - 1) % k;
                let key = Key {
                    step,
                    bucket,
                    phase: 0,
                    ring_step: s as u16,
                };
                let mut head = Header::control(FrameKind::Data, 0, key, send_c as u16);
                head.contributors = contrib[send_c];
                if self
                    .tp
                    .send_data(right, head, &scratch[spans[send_c].clone()])
                    .is_err()
                {
                    self.evict_failed(right, &mut evicted);
                    restarts += 1;
                    continue 'attempt;
                }
                match self.recv_op(left, right, key, &mut stash, mask0, &mut evicted) {
                    RecvOutcome::Frame(fr) => {
                        let span = spans[recv_c].clone();
                        let mut payload = fr.payload();
                        if payload.len() == span.len() {
                            // One pass over the receive buffer: decode,
                            // fold, and scan for non-finite values.
                            let mut finite = true;
                            for (d, v) in scratch[span.clone()].iter_mut().zip(payload) {
                                finite &= v.is_finite();
                                *d += v;
                            }
                            if finite {
                                contrib[recv_c] = fr.head.contributors | own_bit;
                                bytes += (span.len() * 4) as u64;
                            } else {
                                // A poisoned running sum: reject the whole
                                // contribution chain, keep our own partial.
                                // A chunk is received once per reduce-
                                // scatter, so until this fold it held our
                                // own gradient: `grad` restores it exactly.
                                scratch[span.clone()].copy_from_slice(&grad[span]);
                                FaultMetrics::bump(&self.tp.metrics().gradients_rejected);
                            }
                        } else if payload.any(|v| !v.is_finite()) {
                            FaultMetrics::bump(&self.tp.metrics().gradients_rejected);
                        }
                    }
                    RecvOutcome::Missed => {}
                    RecvOutcome::Restart => {
                        restarts += 1;
                        continue 'attempt;
                    }
                    RecvOutcome::Fatal(e) => return Err(e.into()),
                }
            }
            FaultMetrics::add(&self.tp.metrics().bytes_reduced, bytes);

            // All-gather: k-1 steps; each position starts by forwarding
            // the chunk it fully owns, (me + 1) mod k.
            for s in 0..k - 1 {
                let send_c = (me + 1 + k - s) % k;
                let recv_c = (me + k - s) % k;
                let key = Key {
                    step,
                    bucket,
                    phase: 1,
                    ring_step: s as u16,
                };
                let mut head = Header::control(FrameKind::Data, 0, key, send_c as u16);
                head.contributors = contrib[send_c];
                if self
                    .tp
                    .send_data(right, head, &scratch[spans[send_c].clone()])
                    .is_err()
                {
                    self.evict_failed(right, &mut evicted);
                    restarts += 1;
                    continue 'attempt;
                }
                match self.recv_op(left, right, key, &mut stash, mask0, &mut evicted) {
                    RecvOutcome::Frame(fr) => {
                        let span = spans[recv_c].clone();
                        // Unlike reduce-scatter, the chunk this would
                        // overwrite is a partial sum held nowhere else,
                        // so the scan must finish before the copy starts.
                        let finite = fr.payload().fold(true, |ok, v| ok & v.is_finite());
                        // Synchronized: the received chunk is the fully
                        // reduced one — always adopt. Lossy: adopt when
                        // it folds at least as many contributors as ours.
                        let adopt = finite
                            && fr.payload().len() == span.len()
                            && (self.mode == SyncMode::Synchronized
                                || fr.head.contributors.count_ones()
                                    >= contrib[recv_c].count_ones());
                        if adopt {
                            for (d, v) in scratch[span].iter_mut().zip(fr.payload()) {
                                *d = v;
                            }
                            contrib[recv_c] = fr.head.contributors;
                        } else if !finite {
                            FaultMetrics::bump(&self.tp.metrics().gradients_rejected);
                        }
                    }
                    RecvOutcome::Missed => {}
                    RecvOutcome::Restart => {
                        restarts += 1;
                        continue 'attempt;
                    }
                    RecvOutcome::Fatal(e) => return Err(e.into()),
                }
            }

            // A lossy bucket that closed with holes raced the repair
            // traffic that explains them: a peer discovering a death at
            // the same cadence as our miss windows broadcasts its Evict
            // a hair after our last deadline. Linger one window for that
            // news and restart over the healed ring instead of baking
            // half-empty contributor sets into the step.
            let holes = contrib.iter().any(|c| c.count_ones() < k as u32);
            if holes
                && self.mode == SyncMode::LossyDegraded
                && self.tp.wait_failure(
                    mask0,
                    Instant::now() + Duration::from_millis(self.policy.lossy_timeout_ms),
                )
            {
                restarts += 1;
                continue 'attempt;
            }

            // Average: per-chunk divisor from the contributor mask (all
            // k in synchronized mode).
            for (c, span) in spans.iter().enumerate() {
                let n = contrib[c].count_ones().max(1);
                let scale = 1.0f32 / n as f32;
                for (g, &v) in grad[span.clone()].iter_mut().zip(&scratch[span.clone()]) {
                    *g = v * scale;
                }
            }
            return Ok(BucketReport {
                mode: self.mode,
                live: k,
                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                bytes,
                restarts,
                evicted,
            });
        }
    }

    /// Evicts a peer after a hard failure and degrades to lossy.
    fn evict_failed(&mut self, peer: usize, evicted: &mut Vec<usize>) {
        if self.tp.evict(peer) {
            evicted.push(peer);
        }
        self.mode = SyncMode::LossyDegraded;
    }

    /// One deadline-bounded, retry-wrapped receive of `key` from `from`.
    ///
    /// `right` is this rank's downstream neighbor: on every silent
    /// timeout we tell it we're alive via [`Transport::send_busy`], and
    /// we relay any Busy we hear onward, so patience propagates around
    /// the ring and only the rank adjacent to an actually-dead peer
    /// exhausts its budget and evicts.
    fn recv_op(
        &mut self,
        from: usize,
        right: usize,
        key: Key,
        stash: &mut HashMap<Key, Frame>,
        mask0: u32,
        evicted: &mut Vec<usize>,
    ) -> RecvOutcome {
        if let Some(f) = stash.remove(&key) {
            return RecvOutcome::Frame(f);
        }
        let metrics = Arc::clone(self.tp.metrics());
        // Two independent retry budgets. Silence is exculpable — a Busy
        // from the upstream proves it alive and resets `silent`. Corrupt
        // deliveries are *active* evidence of a faulty sender and no
        // liveness signal excuses them, so `corrupt` only ever grows.
        let mut silent = 0u32;
        let mut corrupt = 0u32;
        // Set by a Busy from the upstream, consumed by the next timeout:
        // "alive but blocked on ring repair right now". One signal buys
        // one patient window — a peer that stops signalling (finished,
        // or dead) stops buying patience.
        let mut stalled = false;
        // Each Busy heard buys one fresh timeout window, bounded so a
        // livelocked ring (everyone "busy", nobody progressing) still
        // converges to eviction instead of waiting forever.
        let mut busy_credit = (self.policy.max_retries + 2) * self.tp.world() as u32;
        let t_start = Instant::now();
        loop {
            if self.tp.failed_mask() & mask0 != 0 {
                // A member of the current ring has *failed* (a graceful
                // departure never interrupts a bucket in flight).
                return RecvOutcome::Restart;
            }
            let lossy = self.mode == SyncMode::LossyDegraded;
            let per_op = Duration::from_millis(if lossy {
                self.policy.lossy_timeout_ms
            } else {
                self.policy.op_timeout_ms
            });
            let out = match self.tp.recv(from, Instant::now() + per_op, mask0) {
                Ok(Delivery::Frame(f)) if f.head.kind == FrameKind::Busy => {
                    if busy_credit > 0 {
                        busy_credit -= 1;
                        // The upstream is provably alive, just blocked:
                        // silence so far was not its fault. Resetting the
                        // counters (not merely the window) keeps a timing
                        // race between its Busy cadence and our timeout
                        // cadence from accumulating attempts anyway.
                        silent = 0;
                        self.misses[from] = 0;
                        stalled = true;
                        // Blocked on *what*, though? Possibly on us, round
                        // the ring, while the frame we wait for was sent
                        // and lost — and this Busy has just postponed the
                        // timeout that would have asked for it again. So
                        // ask now: a frame not sent yet is a no-op miss,
                        // a lost one comes straight back. (Only a Busy
                        // from this same bucket says anything about this
                        // frame; one left over from an earlier stall
                        // would just fetch a duplicate.)
                        if (f.head.key.step, f.head.key.bucket) == (key.step, key.bucket) {
                            let _ = self.tp.request_resend(from, key);
                        }
                        // Pass the liveness signal downstream: our
                        // neighbor is now also waiting on a stalled
                        // (but live) chain. At most twice per window,
                        // though: when every rank is waiting (one lost
                        // frame is enough) no dead rank breaks the cycle,
                        // and a Busy relayed unconditionally laps the
                        // ring in microseconds — burning every credit
                        // until a healthy upstream is charged with
                        // silence — and then keeps circulating, a hop per
                        // receive, through every later step. Genuine
                        // signals come a window apart and always pass.
                        if self.busy_relayed.is_none_or(|at| at.elapsed() >= per_op / 2) {
                            self.busy_relayed = Some(Instant::now());
                            self.tp.send_busy(right, key);
                        }
                        continue;
                    }
                    // An upstream "busy" for this many windows is
                    // indistinguishable from livelock: resume counting
                    // silence against it.
                    self.handle_silence(
                        from, right, key, lossy, false, &mut silent, &metrics, evicted,
                    )
                }
                Ok(Delivery::Frame(f)) => {
                    if f.head.kind != FrameKind::Data {
                        continue;
                    }
                    if f.head.alive & self.tp.failed_mask() != 0 {
                        // Sent before its sender learned of a death we
                        // already know about: a stale duplicate from the
                        // pre-healing ring (possibly queued before our
                        // own mask shrank) — its chunk geometry is wrong.
                        continue;
                    }
                    if self.tp.failed_mask() & mask0 != 0 {
                        // The frame rode in with death news: heal first;
                        // resends recover it after the restart.
                        return RecvOutcome::Restart;
                    }
                    if f.head.key == key {
                        self.misses[from] = 0;
                        self.observe_latency(from, t_start.elapsed());
                        return RecvOutcome::Frame(f);
                    }
                    // Out-of-order (the peer ran ahead, or a duplicate
                    // resend): park it for a later op this bucket.
                    stash.insert(f.head.key, f);
                    continue;
                }
                Ok(Delivery::Corrupt) => {
                    // CRC failure: same bounded retry path as silence,
                    // but charged to the unforgivable budget, and no
                    // stall grace — corrupt data is active misbehavior.
                    self.handle_silence(
                        from, right, key, lossy, false, &mut corrupt, &metrics, evicted,
                    )
                }
                Err(TransportError::Timeout { .. }) => self.handle_silence(
                    from,
                    right,
                    key,
                    lossy,
                    std::mem::take(&mut stalled),
                    &mut silent,
                    &metrics,
                    evicted,
                ),
                Err(TransportError::PeerDead { peer: _ }) => {
                    self.mode = SyncMode::LossyDegraded;
                    return RecvOutcome::Restart;
                }
                Err(TransportError::Disconnected { peer }) => {
                    self.evict_failed(peer, evicted);
                    return RecvOutcome::Restart;
                }
                Err(TransportError::DeathNotice) => {
                    // A watched ring member failed while we were blocked:
                    // heal now instead of sitting out the deadline.
                    return RecvOutcome::Restart;
                }
                Err(e) => return RecvOutcome::Fatal(e),
            };
            if let Some(out) = out {
                return out;
            }
        }
    }

    /// The shared reaction to a silent (or corrupt) window from `from`:
    /// lossy mode counts a miss, synchronized mode burns a retry from
    /// the caller-chosen budget (`attempt`), requests a resend, tells
    /// `right` we're still here, and backs off. Returns `Some` when the
    /// receive loop should stop retrying.
    ///
    /// `stalled` means the upstream sent a Busy since the last timeout:
    /// it is provably alive but blocked on ring repair, so a lossy
    /// deadline waits one more window rather than skipping the chunk —
    /// finalizing a bucket mid-heal would bake a half-empty contributor
    /// set into the step when a restart is imminent anyway.
    #[allow(clippy::too_many_arguments)]
    fn handle_silence(
        &mut self,
        from: usize,
        right: usize,
        key: Key,
        lossy: bool,
        stalled: bool,
        attempt: &mut u32,
        metrics: &Arc<FaultMetrics>,
        evicted: &mut Vec<usize>,
    ) -> Option<RecvOutcome> {
        if lossy {
            if stalled {
                // Repair in progress upstream: it ends in data, an
                // eviction broadcast, or our own DeathNotice — all of
                // which unblock us. Signal our own waiter and hold.
                self.tp.send_busy(right, key);
                return None;
            }
            self.misses[from] += 1;
            if self.misses[from] > self.policy.max_retries {
                self.evict_failed(from, evicted);
                return Some(RecvOutcome::Restart);
            }
            // Even on the deadline-driven path, our waiter must learn
            // we're alive before it burns its own (short) miss budget.
            self.tp.send_busy(right, key);
            return Some(RecvOutcome::Missed);
        }
        *attempt += 1;
        if *attempt > self.policy.max_retries {
            self.evict_failed(from, evicted);
            return Some(RecvOutcome::Restart);
        }
        FaultMetrics::bump(&metrics.retries);
        let _ = self.tp.request_resend(from, key);
        // Our own waiter must not mistake this stall for our death.
        self.tp.send_busy(right, key);
        let pause = self.policy.backoff(*attempt, &mut self.rng);
        std::thread::sleep(pause);
        None
    }

    /// Feeds a successful receive latency into the peer's EWMA and
    /// flags a straggler when it blows past the estimate.
    fn observe_latency(&mut self, from: usize, took: Duration) {
        let ms = took.as_secs_f64() * 1e3;
        let n = self.ewma_n[from];
        if n >= self.policy.straggler_grace
            && !self.flagged[from]
            && ms > self.policy.straggler_threshold * self.ewma[from].max(0.05)
        {
            self.flagged[from] = true;
            FaultMetrics::bump(&self.tp.metrics().stragglers_detected);
        }
        self.ewma[from] = if n == 0 {
            ms
        } else {
            self.policy.ewma_alpha * ms + (1.0 - self.policy.ewma_alpha) * self.ewma[from]
        };
        self.ewma_n[from] = n.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_spans_cover_exactly_once() {
        for (len, k) in [(10, 3), (7, 7), (3, 5), (0, 2), (16, 4)] {
            let spans = chunk_spans(len, k);
            assert_eq!(spans.len(), k);
            let mut at = 0;
            for s in &spans {
                assert_eq!(s.start, at);
                at = s.end;
            }
            assert_eq!(at, len);
            let sizes: Vec<usize> = spans.iter().map(|s| s.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced chunking");
        }
    }

    #[test]
    fn reference_allreduce_is_a_rotated_mean() {
        let parts = vec![vec![1.0f32; 8], vec![2.0; 8], vec![3.0; 8], vec![6.0; 8]];
        let out = reference_allreduce(&parts);
        for v in out {
            assert_eq!(v, 3.0);
        }
        // Solo contribution comes back untouched.
        let solo = vec![vec![0.1f32, -0.2, 0.3]];
        assert_eq!(reference_allreduce(&solo), solo[0]);
    }

    #[test]
    fn comm_policy_validation_catches_nonsense() {
        assert!(CommPolicy::default().validate().is_ok());
        let nonsense = [
            CommPolicy { op_timeout_ms: 0, ..CommPolicy::default() },
            CommPolicy { jitter: 1.5, ..CommPolicy::default() },
            CommPolicy { straggler_threshold: 0.5, ..CommPolicy::default() },
            CommPolicy { backoff_cap_ms: 0.5, ..CommPolicy::default() },
        ];
        for p in nonsense {
            assert!(p.validate().is_err());
        }
    }

    #[test]
    fn backoff_grows_and_respects_cap_with_jitter() {
        let p = CommPolicy {
            backoff_base_ms: 2.0,
            backoff_cap_ms: 16.0,
            jitter: 0.5,
            ..CommPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let b1 = p.backoff(1, &mut rng).as_secs_f64() * 1e3;
        let b3 = p.backoff(3, &mut rng).as_secs_f64() * 1e3;
        let b9 = p.backoff(9, &mut rng).as_secs_f64() * 1e3;
        assert!((2.0..=3.0).contains(&b1), "base with jitter, got {b1}");
        assert!((8.0..=12.0).contains(&b3), "2*2^2 with jitter, got {b3}");
        assert!(b9 <= 16.0 * 1.5 + 1e-9, "capped with jitter, got {b9}");
        // Deterministic for a fixed seed.
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(p.backoff(2, &mut r1), p.backoff(2, &mut r2));
    }

    /// Every rank all-reduces its own `grads[rank]` `steps` times over
    /// `endpoints`; per rank and step: the merged gradient, the report,
    /// and the counters afterwards.
    fn allreduce_steps<W: crate::transport::Wire>(
        endpoints: Vec<crate::transport::Endpoint<W>>,
        policy: &CommPolicy,
        grads: &[Vec<f32>],
        steps: u32,
    ) -> Vec<Vec<(Vec<f32>, BucketReport, crate::metrics::FaultMetricsSnapshot)>> {
        crate::dist::run_ranks(endpoints, |rank, ep| {
            let metrics = Arc::clone(ep.metrics());
            let mut ring = RingComm::new(Box::new(ep), policy.clone()).unwrap();
            (0..steps)
                .map(|step| {
                    let mut grad = grads[rank].clone();
                    let report = ring.allreduce(step, 0, &mut grad).expect("bucket reduces");
                    (grad, report, metrics.snapshot())
                })
                .collect()
        })
    }

    #[test]
    fn a_lost_frame_is_asked_for_again_and_the_busy_signals_die_down() {
        use crate::fault::{Fault, FaultPlan, FaultyTransport};
        // Rank 0's first frame is lost, so within a few hops all four
        // ranks wait on each other and time out together, and whichever
        // does so first sends a Busy round a ring with no dead rank to
        // stop it. Three things must hold: rank 1 gets its frame within
        // the first window even when that Busy reaches it before its own
        // deadline; nobody is evicted for "silence"; and once the step is
        // through, no Busy is left circulating.
        let plan = FaultPlan::new(vec![Fault::TransferDrop { node: 0, iter: 0, layer: 0 }]);
        let policy = CommPolicy { op_timeout_ms: 100, max_retries: 2, ..CommPolicy::default() };
        let grads: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..13).map(|i| (i + 1) as f32 * (r + 1) as f32 + 0.25 * r as f32).collect())
            .collect();
        let expect = reference_allreduce(&grads);
        let endpoints = crate::transport::channel_group_with(4, |rank, wire| {
            FaultyTransport::new(rank, plan.clone(), wire)
        })
        .unwrap();
        let runs = allreduce_steps(endpoints, &policy, &grads, 6);
        for (rank, steps) in runs.iter().enumerate() {
            for (merged, report, metrics) in steps {
                assert_eq!(merged, &expect, "rank {rank} diverged");
                assert_eq!((report.mode, report.live), (SyncMode::Synchronized, 4));
                assert_eq!(metrics.peers_evicted, 0, "rank {rank}");
            }
            // One window to notice the loss, none wasted.
            assert!(steps[0].2.timeouts <= 1, "rank {rank} sat out {} windows", steps[0].2.timeouts);
            // Healthy steps ask for nothing again.
            assert_eq!(steps[5].2.send_retries, steps[2].2.send_retries, "rank {rank}");
        }
    }

    #[test]
    fn nonfinite_contribution_is_rejected_not_merged() {
        // Rank 1's gradient is all NaN. Whatever running sum it touches is
        // refused on receipt (reduce-scatter restores the receiver's own
        // chunk, all-gather keeps the partial it has), counted, and never
        // reaches a healthy rank's result.
        let mut grads: Vec<Vec<f32>> = (0..3).map(|r| vec![r as f32 + 1.0; 9]).collect();
        grads[1] = vec![f32::NAN; 9];
        let endpoints = crate::transport::channel_group(3).unwrap();
        let out = allreduce_steps(endpoints, &CommPolicy::default(), &grads, 1);
        for rank in [0, 2] {
            let (merged, report, _) = &out[rank][0];
            assert!(merged.iter().all(|v| v.is_finite()), "rank {rank} merged {merged:?}");
            // Nothing was averaged in that the poisoned rank had touched.
            assert!(merged.iter().all(|&v| (1.0..=3.0).contains(&v)), "rank {rank}: {merged:?}");
            assert!(report.evicted.is_empty());
        }
        let rejected: u64 = out.iter().map(|steps| steps[0].2.gradients_rejected).sum();
        assert!(rejected >= 2, "both healthy ranks must refuse the poisoned chunks");
    }
}
