//! The real communicator substrate for distributed training: framed,
//! CRC-checked gradient chunks moved over an exchangeable [`Wire`], with
//! membership tracking and retransmission on top.
//!
//! Layers, bottom to top:
//!
//! * [`Frame`] — the wire format (v2): a fixed little-endian header
//!   (magic, protocol version, kind, sender, step/bucket/phase/ring-step
//!   /chunk key, alive mask, failed mask, contributors mask), an `f32`
//!   payload, and a CRC32 trailer computed by the *same*
//!   [`crate::frame::crc32`] that guards checkpoints. Encoded bytes are
//!   built once and then only shared ([`WireBytes`]): wire, retransmit
//!   window and the receiver's decoded frame all hold the same buffer.
//! * [`Wire`] — "push these bytes toward peer `p`", unreliable by
//!   design. Two real wires live here ([`ChannelWire`], which delivers
//!   into the in-process peer's router on the sending thread, and
//!   [`TcpWire`] over sockets) and [`crate::fault::FaultyTransport`]
//!   wraps either to inject the deterministic fault plans.
//! * [`Router`] — the shared receive side: per-peer frame queues fed by
//!   the peers' channel wires or by one reader thread per socket, the
//!   membership masks, and the retransmit buffer
//!   that services [`FrameKind::Resend`] requests — reliability is
//!   receiver-driven: a receiver that times out or sees a corrupt frame
//!   asks the sender to re-send, which keeps the ring deadlock-free
//!   (nobody ever blocks waiting for an ack).
//! * [`Transport`] — the high-level trait the ring all-reduce
//!   ([`crate::ring`]) drives: framed send, deadline-bounded receive
//!   (with a fail-watch that aborts the wait the instant a watched rank
//!   is declared dead), resend requests, Busy liveness signalling, and
//!   eviction broadcast.
//!
//! Membership is two masks with different laws. `alive` shrinks on both
//! graceful [`FrameKind::Goodbye`] departures and failures; `failed` is
//! a grow-only CRDT set only ever fed by hard evidence — a local
//! eviction, a received [`FrameKind::Evict`], or in-band adoption of the
//! `failed` mask stamped on every data frame (union on receive). Death
//! news therefore rides the data path itself and cannot be confused
//! with a peer that merely finished early and said goodbye. A data
//! frame whose alive mask still includes a rank the receiver knows to
//! have failed is a stale pre-healing frame and is dropped; frames and
//! evictions from senders whose own alive bit is already cleared are
//! discarded outright, so an evicted rank cannot poison the survivors.
//! [`FrameKind::Busy`] frames ("alive, but blocked waiting upstream")
//! let a stalled-but-live chain hold its waiters' patience without
//! resetting anyone's corruption budget. Rejoin within a run is not
//! supported — a worker that lost its seat restarts the job.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::RuntimeError;
use crate::frame::{
    f32s_le, put_f32s_le, read_frame, seal, verify, write_frame, FrameIntegrity, CRC_LEN,
};
use crate::metrics::FaultMetrics;

/// Version stamped into every frame and checked during the handshake.
pub const PROTOCOL_VERSION: u16 = 2;

/// Largest supported world size (the alive mask is a `u32`).
pub const MAX_WORLD: usize = 32;

const MAGIC: u16 = 0x4C54; // "LT"
pub(crate) const HEADER_LEN: usize = 36;
const TRAILER_LEN: usize = CRC_LEN;
/// Sanity cap on frame payloads (64 MiB of gradients per chunk).
const MAX_PAYLOAD: usize = 1 << 26;
/// Redials a TCP reader makes after a broken link before declaring the
/// peer unreachable, and the pause before each.
const RECONNECT_ATTEMPTS: u32 = 2;
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A gradient chunk (reduce-scatter running sum or all-gather copy).
    Data,
    /// "Re-send the frame with my key": receiver-driven retransmission.
    Resend,
    /// "The rank in my `chunk` field is dead": eviction broadcast.
    Evict,
    /// Handshake: `contributors` holds the net fingerprint, `chunk` the
    /// world size.
    Hello,
    /// Graceful leave; receivers drop the sender without counting an
    /// eviction.
    Goodbye,
    /// "I'm alive but blocked waiting upstream": a stuck waiter sends
    /// this to its downstream neighbor each silent deadline, so patient
    /// peers don't evict a live rank whose own upstream stalled. The
    /// true failure detector — the rank adjacent to a dead node — hears
    /// no Busy and evicts at its budget, ending the chain.
    Busy,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Resend => 1,
            FrameKind::Evict => 2,
            FrameKind::Hello => 3,
            FrameKind::Goodbye => 4,
            FrameKind::Busy => 5,
        }
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::Resend,
            2 => FrameKind::Evict,
            3 => FrameKind::Hello,
            4 => FrameKind::Goodbye,
            5 => FrameKind::Busy,
            _ => return None,
        })
    }
}

/// Identifies one ring operation: frames, resend requests, and the
/// retransmit buffer are all keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Training step.
    pub step: u32,
    /// Gradient bucket (backward group) within the step.
    pub bucket: u16,
    /// 0 = reduce-scatter, 1 = all-gather.
    pub phase: u8,
    /// Position in the ring schedule (`0..k-1`).
    pub ring_step: u16,
}

/// The fixed header of a transport frame: everything but the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender rank.
    pub from: u16,
    /// Ring-operation key.
    pub key: Key,
    /// Which chunk of the bucket the payload is (also: the victim rank
    /// for [`FrameKind::Evict`], the world size for [`FrameKind::Hello`]).
    pub chunk: u16,
    /// Sender's alive mask at send time.
    pub alive: u32,
    /// Sender's *failed* mask at send time: the in-band channel for
    /// death news. Receivers adopt these bits directly, so graceful
    /// departures (which shrink `alive` but not `failed`) are never
    /// mistaken for failures.
    pub failed: u32,
    /// Ranks whose gradients are folded into the payload (also: the net
    /// fingerprint for [`FrameKind::Hello`]).
    pub contributors: u32,
}

impl Header {
    /// A header with empty masks — what control frames start from.
    pub fn control(kind: FrameKind, from: u16, key: Key, chunk: u16) -> Header {
        Header {
            kind,
            from,
            key,
            chunk,
            alive: 0,
            failed: 0,
            contributors: 0,
        }
    }

    /// Parses and validates the header of an encoded frame against the
    /// frame's total length, without touching payload or CRC. Returns
    /// the header and the payload length in bytes.
    fn parse(bytes: &[u8]) -> Result<(Header, usize), FrameError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(FrameError::Truncated);
        }
        let u16_at = |o: usize| u16::from_le_bytes([bytes[o], bytes[o + 1]]);
        let u32_at =
            |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        if u16_at(0) != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = u16_at(2);
        if version != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = FrameKind::from_u8(bytes[4]).ok_or(FrameError::BadKind)?;
        let plen = u32_at(32) as usize;
        if plen > MAX_PAYLOAD
            || !plen.is_multiple_of(4)
            || bytes.len() != HEADER_LEN + plen + TRAILER_LEN
        {
            return Err(FrameError::Truncated);
        }
        let head = Header {
            kind,
            from: u16_at(6),
            key: Key {
                step: u32_at(8),
                bucket: u16_at(12),
                phase: bytes[5],
                ring_step: u16_at(14),
            },
            chunk: u16_at(16),
            alive: u32_at(20),
            failed: u32_at(24),
            contributors: u32_at(28),
        };
        Ok((head, plen))
    }
}

/// Encoded frame bytes. One allocation is shared — never copied — by the
/// sender's wire, its retransmit window, and (in process) the receiver's
/// decoded [`Frame`].
pub type WireBytes = Arc<Vec<u8>>;

/// A received, CRC-verified transport frame: the parsed [`Header`] plus
/// the encoded bytes it arrived as. The payload is never copied out;
/// [`Frame::payload`] decodes it in place, so the ring folds and copies
/// straight from the receive buffer.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The parsed header.
    pub head: Header,
    bytes: WireBytes,
}

/// Why a byte string failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a header + trailer, or truncated payload.
    Truncated,
    /// Magic bytes wrong.
    BadMagic,
    /// Protocol version mismatch (carries the sender's version).
    BadVersion(u16),
    /// Unknown frame kind.
    BadKind,
    /// CRC32 trailer mismatch: the payload was corrupted in flight.
    BadCrc,
}

impl Frame {
    /// Serializes `head` + `payload` + CRC32 trailer into one exactly
    /// sized buffer: the payload is converted in bulk straight from the
    /// caller's slice, then the whole frame is checksummed once.
    pub fn encode(head: &Header, payload: &[f32]) -> Vec<u8> {
        let plen = payload.len() * 4;
        let mut out = Vec::with_capacity(HEADER_LEN + plen + TRAILER_LEN);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(head.kind.to_u8());
        out.push(head.key.phase);
        out.extend_from_slice(&head.from.to_le_bytes());
        out.extend_from_slice(&head.key.step.to_le_bytes());
        out.extend_from_slice(&head.key.bucket.to_le_bytes());
        out.extend_from_slice(&head.key.ring_step.to_le_bytes());
        out.extend_from_slice(&head.chunk.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&head.alive.to_le_bytes());
        out.extend_from_slice(&head.failed.to_le_bytes());
        out.extend_from_slice(&head.contributors.to_le_bytes());
        out.extend_from_slice(&(plen as u32).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        put_f32s_le(&mut out, payload);
        seal(out)
    }

    /// Validates the header and CRC-verifies `bytes` in one pass over
    /// them, taking ownership instead of copying the payload out.
    /// Allocates nothing, whatever the header claims.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; [`FrameError::BadCrc`] is the corruption
    /// signal the retransmission path reacts to.
    pub fn decode(bytes: WireBytes) -> Result<Frame, FrameError> {
        let (head, _) = Header::parse(&bytes)?;
        verify(&bytes).map_err(|e| match e {
            FrameIntegrity::BadCrc => FrameError::BadCrc,
            FrameIntegrity::Truncated => FrameError::Truncated,
        })?;
        Ok(Frame { head, bytes })
    }

    /// The payload's gradient values, decoded in place from the receive
    /// buffer (empty for control frames).
    #[inline]
    pub fn payload(&self) -> impl ExactSizeIterator<Item = f32> + '_ {
        f32s_le(&self.bytes[HEADER_LEN..self.bytes.len() - TRAILER_LEN])
    }

    /// Reads just the header of an encoded frame, without CRC
    /// verification — used by the fault injector to key injections by
    /// `(sender, step, bucket)` without paying a full decode. Returns
    /// the header and the payload length in bytes.
    pub fn peek(bytes: &[u8]) -> Option<(Header, usize)> {
        Header::parse(bytes).ok()
    }
}

/// Flips one payload bit of an encoded [`FrameKind::Data`] frame in
/// place (no-op for control frames or payload-free frames). The CRC
/// trailer is left alone, so the receiver's decode fails — this is how
/// [`crate::fault::Fault::TransferCorrupt`] reaches the real wire.
pub fn corrupt_payload(bytes: &mut [u8]) -> bool {
    match Frame::peek(bytes) {
        Some((head, plen)) if head.kind == FrameKind::Data && plen > 0 => {
            bytes[HEADER_LEN + plen / 2] ^= 0x10;
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A transport-level failure. Retryable variants (timeout, corruption)
/// are absorbed by the ring layer's retry/eviction policy; terminal ones
/// surface as [`RuntimeError::Transport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The per-op deadline expired with nothing delivered.
    Timeout {
        /// Peer being waited on.
        peer: usize,
    },
    /// The peer is marked dead in the alive mask.
    PeerDead {
        /// The dead peer.
        peer: usize,
    },
    /// The link to the peer broke (connection reset / channel closed).
    Disconnected {
        /// The unreachable peer.
        peer: usize,
    },
    /// Handshake rejected (version or fingerprint mismatch, bad rank).
    Handshake {
        /// Why.
        detail: String,
    },
    /// The requested world exceeds the transport's membership-mask
    /// capacity: alive/failed masks are a single `u32` word, so one
    /// group supports at most [`MAX_WORLD`] ranks. A rank ≥ 32 would
    /// silently corrupt mask arithmetic, so group construction refuses
    /// it up front (scaling beyond this needs wider masks or
    /// hierarchical rings — see DESIGN.md §12).
    TooManyRanks {
        /// The requested world size.
        world: usize,
        /// The supported maximum ([`MAX_WORLD`]).
        max: usize,
    },
    /// Socket-level failure outside a particular peer conversation.
    Io {
        /// Why.
        detail: String,
    },
    /// A rank in the receiver's fail-watch mask was declared failed
    /// while the receive was blocked — the ring must heal before the
    /// wait can meaningfully continue.
    DeathNotice,
    /// The endpoint was shut down.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout { peer } => write!(f, "deadline expired waiting on peer {peer}"),
            TransportError::PeerDead { peer } => write!(f, "peer {peer} is dead"),
            TransportError::Disconnected { peer } => write!(f, "link to peer {peer} is down"),
            TransportError::Handshake { detail } => write!(f, "handshake rejected: {detail}"),
            TransportError::TooManyRanks { world, max } => write!(
                f,
                "world of {world} exceeds the {max}-rank membership-mask capacity"
            ),
            TransportError::Io { detail } => write!(f, "transport i/o: {detail}"),
            TransportError::DeathNotice => write!(f, "a watched peer failed mid-receive"),
            TransportError::Closed => write!(f, "endpoint closed"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for RuntimeError {
    fn from(e: TransportError) -> Self {
        RuntimeError::Transport {
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

/// The lowest layer: push encoded bytes toward a peer. Implementations
/// are free to lose, delay, or corrupt them ([`crate::fault::FaultyTransport`]
/// does so on purpose); reliability lives above, in the resend protocol.
pub trait Wire: Send + Sync + 'static {
    /// Attempts to move `bytes` to peer `to`. An `Ok` return means the
    /// bytes were accepted for delivery, not that they arrived.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is known down.
    fn send(&self, to: usize, bytes: WireBytes) -> Result<(), TransportError>;

    /// Tears down the wire's links: later sends fail, reader threads
    /// blocked on a socket exit, and a channel wire lets go of its peers.
    /// Called from [`Endpoint`]'s drop; wrappers must forward it.
    fn close(&self) {}
}

// ---------------------------------------------------------------------------
// Router: shared receive side
// ---------------------------------------------------------------------------

/// What a deadline-bounded receive yields.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// A verified frame.
    Frame(Frame),
    /// Bytes arrived but failed CRC/decode — the caller should request a
    /// resend (this is the corruption-is-retryable path).
    Corrupt,
}

struct RouterState {
    alive: u32,
    /// Ranks declared dead by *failure* (eviction or in-band death
    /// adoption) — a subset of the cleared `alive` bits. A graceful
    /// Goodbye clears `alive` but not this: the leaver's already-queued
    /// frames stay valid and nobody restarts a bucket over it.
    failed: u32,
    queues: Vec<VecDeque<Delivery>>,
    link_down: Vec<bool>,
    /// Encoded frames we sent, for servicing resend requests: the same
    /// buffers the wire carried. Pruned to the two most recent steps.
    sent: HashMap<(usize, Key), WireBytes>,
    /// Newest step in `sent`; the window is pruned only when it moves.
    sent_step: u32,
    closed: bool,
}

struct RouterInner {
    rank: usize,
    world: usize,
    state: Mutex<RouterState>,
    cv: Condvar,
    metrics: Arc<FaultMetrics>,
}

/// The shared receive side of an endpoint: per-peer queues, the alive
/// mask, and the retransmit buffer. Peers' channel wires and socket
/// reader threads push into it via [`Router::deliver`]; the ring layer
/// pulls via [`Router::recv`].
#[derive(Clone)]
pub struct Router {
    inner: Arc<RouterInner>,
}

fn full_mask(world: usize) -> u32 {
    debug_assert!(world <= MAX_WORLD, "world {world} exceeds the mask capacity");
    if world >= 32 {
        u32::MAX
    } else {
        (1u32 << world) - 1
    }
}

impl Router {
    /// A router for `rank` in a world of `world` ranks, all initially
    /// alive.
    ///
    /// # Errors
    ///
    /// [`TransportError::TooManyRanks`] when `world` exceeds
    /// [`MAX_WORLD`] (the `u32` membership masks hold at most 32 ranks);
    /// [`TransportError::Handshake`] for other degenerate geometry
    /// (world `0`, or `rank` out of range).
    pub fn new(
        rank: usize,
        world: usize,
        metrics: Arc<FaultMetrics>,
    ) -> Result<Router, TransportError> {
        if world > MAX_WORLD {
            return Err(TransportError::TooManyRanks { world, max: MAX_WORLD });
        }
        if world == 0 || rank >= world {
            return Err(TransportError::Handshake {
                detail: format!("bad geometry: rank {rank} of world {world} (max {MAX_WORLD})"),
            });
        }
        Ok(Router {
            inner: Arc::new(RouterInner {
                rank,
                world,
                state: Mutex::new(RouterState {
                    alive: full_mask(world),
                    failed: 0,
                    queues: (0..world).map(|_| VecDeque::new()).collect(),
                    link_down: vec![false; world],
                    sent: HashMap::new(),
                    sent_step: 0,
                    closed: false,
                }),
                cv: Condvar::new(),
                metrics,
            }),
        })
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// The configured world size.
    pub fn world(&self) -> usize {
        self.inner.world
    }

    /// Current alive mask (bit `r` set = rank `r` believed alive).
    pub fn alive_mask(&self) -> u32 {
        self.inner.state.lock().unwrap().alive
    }

    /// Ranks declared dead by failure (bit set = failed). Gracefully
    /// departed ranks are absent from [`Router::alive_mask`] but not
    /// set here.
    pub fn failed_mask(&self) -> u32 {
        self.inner.state.lock().unwrap().failed
    }

    /// The shared fault counters.
    pub fn metrics(&self) -> &Arc<FaultMetrics> {
        &self.inner.metrics
    }

    /// Blocks until a rank in `mask` is declared failed or `deadline`
    /// passes; returns whether one failed. Consumes nothing from the
    /// delivery queues — safe to call between operations.
    pub fn wait_failure(&self, mask: u32, deadline: Instant) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.failed & mask != 0 {
                return true;
            }
            if st.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.inner.cv.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Marks a peer dead locally. Returns whether the mask changed;
    /// counts `peers_evicted` when `counted`.
    fn mark_dead(&self, peer: usize, counted: bool) -> bool {
        let bit = 1u32 << peer;
        let mut st = self.inner.state.lock().unwrap();
        if st.alive & bit == 0 {
            return false;
        }
        st.alive &= !bit;
        if counted {
            st.failed |= bit;
        }
        drop(st);
        if counted {
            FaultMetrics::bump(&self.inner.metrics.peers_evicted);
        }
        self.inner.cv.notify_all();
        true
    }

    /// Marks the link to `peer` down (reader thread hit EOF/error) so
    /// blocked receivers fail fast instead of waiting out the deadline.
    pub fn mark_link_down(&self, peer: usize) {
        let mut st = self.inner.state.lock().unwrap();
        st.link_down[peer] = true;
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Clears the link-down flag after a successful reconnect.
    pub fn mark_link_up(&self, peer: usize) {
        self.inner.state.lock().unwrap().link_down[peer] = false;
    }

    /// Remembers an encoded data frame for resend servicing. Entries
    /// older than the previous step are pruned when — and only when — a
    /// new step's first frame arrives, so the per-send cost under the
    /// state lock is one insert.
    fn note_sent(&self, to: usize, key: Key, bytes: WireBytes) {
        let mut st = self.inner.state.lock().unwrap();
        if key.step > st.sent_step {
            st.sent_step = key.step;
            let floor = key.step - 1;
            st.sent.retain(|(_, k), _| k.step >= floor);
        }
        st.sent.insert((to, key), bytes);
    }

    /// Ingests encoded bytes read off the wire from `from`, taking the
    /// buffer over: a verified frame is queued still backed by it.
    /// A sender's channel wire or a socket reader thread calls this;
    /// `wire` is this endpoint's own, borrowed to service resend
    /// requests.
    pub fn deliver(&self, from: usize, bytes: WireBytes, wire: &dyn Wire) {
        let frame = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(_) => {
                FaultMetrics::bump(&self.inner.metrics.transfers_corrupted);
                let mut st = self.inner.state.lock().unwrap();
                st.queues[from].push_back(Delivery::Corrupt);
                drop(st);
                self.inner.cv.notify_all();
                return;
            }
        };
        let head = frame.head;
        match head.kind {
            FrameKind::Data => {
                let mut st = self.inner.state.lock().unwrap();
                if st.alive & (1u32 << from) == 0 {
                    // A peer we already consider gone has no say: its
                    // frames (and the mask they carry) are void.
                    return;
                }
                let news = head.failed & st.alive;
                if news != 0 {
                    // The sender knows about *failures* we haven't seen:
                    // adopt them (grow-only CRDT merge on the failed
                    // mask). The alive mask alone can't carry this news —
                    // it also shrinks on graceful departures, which must
                    // never be mistaken for deaths.
                    st.failed |= news;
                    st.alive &= !news;
                    drop(st);
                    FaultMetrics::add(
                        &self.inner.metrics.peers_evicted,
                        u64::from(news.count_ones()),
                    );
                    st = self.inner.state.lock().unwrap();
                }
                if head.alive & st.failed != 0 {
                    // The sender believes someone we know *failed* is
                    // alive: a stale pre-healing frame. Drop it; the
                    // sender converges via the Evict broadcast / its
                    // timeouts. (A mask still naming a gracefully
                    // departed peer is fine — departure doesn't restart
                    // buckets.)
                    drop(st);
                    self.inner.cv.notify_all();
                    return;
                }
                st.queues[from].push_back(Delivery::Frame(frame));
                drop(st);
                self.inner.cv.notify_all();
            }
            FrameKind::Resend => {
                let buf = {
                    let st = self.inner.state.lock().unwrap();
                    st.sent.get(&(from, head.key)).cloned()
                };
                if let Some(b) = buf {
                    FaultMetrics::bump(&self.inner.metrics.send_retries);
                    let _ = wire.send(from, b);
                }
                // A miss means the frame predates our retransmit window;
                // the requester escalates (evicts us or gives up) on its
                // own clock.
            }
            FrameKind::Evict => {
                // Only live peers may evict others — an evicted rank
                // wrongly evicting the survivors it can no longer hear
                // must not cascade through the healed ring.
                if self.inner.state.lock().unwrap().alive & (1u32 << from) == 0 {
                    return;
                }
                let victim = head.chunk as usize;
                if victim < self.inner.world {
                    self.mark_dead(victim, true);
                }
            }
            FrameKind::Goodbye => {
                self.mark_dead(from, false);
            }
            FrameKind::Busy => {
                // A pure liveness signal: queue it so a blocked receiver
                // restarts its patience window (its mask is ignored — a
                // laggard's view of the ring may be stale).
                let mut st = self.inner.state.lock().unwrap();
                if st.alive & (1u32 << from) != 0 {
                    st.queues[from].push_back(Delivery::Frame(frame));
                }
                drop(st);
                self.inner.cv.notify_all();
            }
            FrameKind::Hello => {
                // Handshakes are consumed before reader threads start;
                // a stray Hello is harmless.
            }
        }
    }

    /// Pops the next delivery from `from`, waiting until `deadline`.
    /// `fail_watch` is a rank mask: if any of those ranks is declared
    /// failed while nothing from `from` is queued, the call returns
    /// [`TransportError::DeathNotice`] at once instead of sitting out the
    /// deadline — healing must not wait on a timeout. A delivery queued
    /// before the news still comes first: the caller decides whether it
    /// belongs to the ring that just lost a member.
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerDead`] when the mask says so,
    /// [`TransportError::Disconnected`] when the link broke with nothing
    /// queued, [`TransportError::Timeout`] at the deadline,
    /// [`TransportError::DeathNotice`] on watched-rank failure, and
    /// [`TransportError::Closed`] after shutdown.
    pub fn recv(
        &self,
        from: usize,
        deadline: Instant,
        fail_watch: u32,
    ) -> Result<Delivery, TransportError> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(TransportError::Closed);
            }
            if let Some(d) = st.queues[from].pop_front() {
                return Ok(d);
            }
            if st.failed & fail_watch != 0 {
                return Err(TransportError::DeathNotice);
            }
            if st.alive & (1 << from) == 0 {
                return Err(TransportError::PeerDead { peer: from });
            }
            if st.link_down[from] {
                return Err(TransportError::Disconnected { peer: from });
            }
            let now = Instant::now();
            if now >= deadline {
                FaultMetrics::bump(&self.inner.metrics.timeouts);
                return Err(TransportError::Timeout { peer: from });
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap();
            st = guard;
        }
    }

    fn close(&self) {
        self.inner.state.lock().unwrap().closed = true;
        self.inner.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Transport: the high-level trait
// ---------------------------------------------------------------------------

/// The communicator handle the ring all-reduce drives. Implemented by
/// [`Endpoint`] over any [`Wire`].
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Configured world size.
    fn world(&self) -> usize;
    /// Current alive mask.
    fn alive_mask(&self) -> u32;
    /// Ranks declared dead by failure (eviction / adopted deaths);
    /// excludes graceful departures.
    fn failed_mask(&self) -> u32;
    /// The endpoint's fault counters.
    fn metrics(&self) -> &Arc<FaultMetrics>;
    /// Declares `peer` dead: shrinks the local mask, counts the
    /// eviction, and broadcasts [`FrameKind::Evict`] to the survivors.
    /// Returns whether the mask changed.
    fn evict(&self, peer: usize) -> bool;
    /// Sends `payload` as a data frame under `head` (stamping kind,
    /// `from` and the current membership masks), encoding straight from
    /// the caller's slice, and retains the encoded buffer for resend
    /// servicing.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is down.
    fn send_data(&self, to: usize, head: Header, payload: &[f32]) -> Result<(), TransportError>;
    /// Asks `from` to re-send the frame with `key`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is down.
    fn request_resend(&self, from: usize, key: Key) -> Result<(), TransportError>;
    /// Waits for the next delivery from `from` until `deadline`,
    /// aborting early with [`TransportError::DeathNotice`] if a rank in
    /// `fail_watch` is declared failed meanwhile.
    ///
    /// # Errors
    ///
    /// See [`Router::recv`].
    fn recv(
        &self,
        from: usize,
        deadline: Instant,
        fail_watch: u32,
    ) -> Result<Delivery, TransportError>;
    /// Tells `to` "I'm alive but blocked waiting upstream" (best
    /// effort, fire-and-forget): lets a patient downstream neighbor
    /// extend its timeout instead of counting silence as our death.
    fn send_busy(&self, to: usize, key: Key);
    /// Blocks until a rank in `mask` is declared failed or `deadline`
    /// passes; returns whether one failed. Consumes no deliveries.
    fn wait_failure(&self, mask: u32, deadline: Instant) -> bool;
    /// Announces a graceful leave to all live peers (best effort).
    fn goodbye(&self);
}

/// A [`Transport`] built from a [`Router`] and a [`Wire`].
pub struct Endpoint<W: Wire> {
    router: Router,
    wire: Arc<W>,
}

impl<W: Wire> Endpoint<W> {
    /// Assembles an endpoint. Whatever feeds `router` (the peers' wires
    /// in [`channel_group_with`], socket reader threads in
    /// [`tcp_rendezvous`]) is the constructor's responsibility.
    pub fn new(router: Router, wire: Arc<W>) -> Endpoint<W> {
        Endpoint { router, wire }
    }

    /// The underlying wire (used by tests and the worker binary).
    pub fn wire(&self) -> &Arc<W> {
        &self.wire
    }

    /// The shared router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// A control header from this rank.
    fn control(&self, kind: FrameKind, key: Key, chunk: u16) -> Header {
        Header::control(kind, self.router.rank() as u16, key, chunk)
    }

    /// Encodes and sends a payload-free frame.
    fn send_control(&self, to: usize, head: &Header) -> Result<(), TransportError> {
        self.wire.send(to, Arc::new(Frame::encode(head, &[])))
    }

    fn live_peers(&self) -> Vec<usize> {
        let mask = self.router.alive_mask();
        (0..self.router.world())
            .filter(|&r| r != self.router.rank() && mask & (1 << r) != 0)
            .collect()
    }
}

impl<W: Wire> Transport for Endpoint<W> {
    fn rank(&self) -> usize {
        self.router.rank()
    }

    fn world(&self) -> usize {
        self.router.world()
    }

    fn alive_mask(&self) -> u32 {
        self.router.alive_mask()
    }

    fn failed_mask(&self) -> u32 {
        self.router.failed_mask()
    }

    fn metrics(&self) -> &Arc<FaultMetrics> {
        self.router.metrics()
    }

    fn evict(&self, peer: usize) -> bool {
        if !self.router.mark_dead(peer, true) {
            return false;
        }
        let key = Key {
            step: 0,
            bucket: 0,
            phase: 0,
            ring_step: 0,
        };
        for p in self.live_peers() {
            let mut h = self.control(FrameKind::Evict, key, peer as u16);
            h.alive = self.router.alive_mask();
            h.failed = self.router.failed_mask();
            let _ = self.send_control(p, &h);
        }
        true
    }

    fn send_data(
        &self,
        to: usize,
        mut head: Header,
        payload: &[f32],
    ) -> Result<(), TransportError> {
        head.kind = FrameKind::Data;
        head.from = self.router.rank() as u16;
        head.alive = self.router.alive_mask();
        head.failed = self.router.failed_mask();
        let bytes = Arc::new(Frame::encode(&head, payload));
        self.router.note_sent(to, head.key, Arc::clone(&bytes));
        self.wire.send(to, bytes)
    }

    fn request_resend(&self, from: usize, key: Key) -> Result<(), TransportError> {
        let mut h = self.control(FrameKind::Resend, key, 0);
        h.alive = self.router.alive_mask();
        self.send_control(from, &h)
    }

    fn recv(
        &self,
        from: usize,
        deadline: Instant,
        fail_watch: u32,
    ) -> Result<Delivery, TransportError> {
        self.router.recv(from, deadline, fail_watch)
    }

    fn send_busy(&self, to: usize, key: Key) {
        let mut h = self.control(FrameKind::Busy, key, 0);
        h.alive = self.router.alive_mask();
        h.failed = self.router.failed_mask();
        let _ = self.send_control(to, &h);
    }

    fn wait_failure(&self, mask: u32, deadline: Instant) -> bool {
        self.router.wait_failure(mask, deadline)
    }

    fn goodbye(&self) {
        let key = Key {
            step: u32::MAX,
            bucket: 0,
            phase: 0,
            ring_step: 0,
        };
        for p in self.live_peers() {
            let _ = self.send_control(p, &self.control(FrameKind::Goodbye, key, 0));
        }
        self.router.close();
    }
}

// ---------------------------------------------------------------------------
// Channel wire: deterministic in-process transport
// ---------------------------------------------------------------------------

/// A peer as a [`ChannelWire`] reaches it: its router, and its own
/// (possibly wrapped) wire, which services the resend requests it
/// receives.
type ChannelPeer = (Router, Arc<dyn Wire>);

/// In-process wire: a send delivers the frame into the receiving
/// endpoint's [`Router`] on the sending thread, so frames from one
/// sender to one receiver arrive in order and none is lost (until
/// wrapped by [`crate::fault::FaultyTransport`]).
pub struct ChannelWire {
    rank: usize,
    peers: Arc<Mutex<Vec<Option<ChannelPeer>>>>,
}

impl Wire for ChannelWire {
    fn send(&self, to: usize, bytes: WireBytes) -> Result<(), TransportError> {
        // Deliver with the table unlocked: a resend request re-enters
        // this wire on the same thread when the peer sends the frame back.
        let peer = self.peers.lock().unwrap().get(to).cloned().flatten();
        let (router, wire) = peer.ok_or(TransportError::Disconnected { peer: to })?;
        router.deliver(self.rank, bytes, wire.as_ref());
        Ok(())
    }

    fn close(&self) {
        // Later sends fail fast, and the peers' routers and wires, which
        // hold ours in turn, are let go.
        self.peers.lock().unwrap().clear();
    }
}

/// Builds a fully-connected in-process group of `world` endpoints, each
/// with its own [`FaultMetrics`], wrapping each rank's raw
/// [`ChannelWire`] through `wrap` (identity for a clean group, a
/// [`crate::fault::FaultyTransport`] constructor for fault testing).
///
/// # Errors
///
/// [`TransportError::TooManyRanks`] for a world over [`MAX_WORLD`];
/// [`TransportError::Handshake`] for a degenerate world size.
pub fn channel_group_with<W: Wire>(
    world: usize,
    mut wrap: impl FnMut(usize, ChannelWire) -> W,
) -> Result<Vec<Endpoint<W>>, TransportError> {
    let mut tables = Vec::with_capacity(world);
    let mut out = Vec::with_capacity(world);
    for rank in 0..world {
        let router = Router::new(rank, world, Arc::new(FaultMetrics::new()))?;
        let peers = Arc::new(Mutex::new(Vec::new()));
        tables.push(Arc::clone(&peers));
        out.push(Endpoint::new(
            router,
            Arc::new(wrap(rank, ChannelWire { rank, peers })),
        ));
    }
    for (rank, table) in tables.iter().enumerate() {
        *table.lock().unwrap() = out
            .iter()
            .enumerate()
            .map(|(r, ep)| {
                (r != rank).then(|| (ep.router.clone(), Arc::clone(&ep.wire) as Arc<dyn Wire>))
            })
            .collect();
    }
    Ok(out)
}

/// [`channel_group_with`] with the identity wrap: a clean, lossless
/// in-process group.
///
/// # Errors
///
/// [`TransportError::TooManyRanks`] for a world over [`MAX_WORLD`];
/// [`TransportError::Handshake`] for a degenerate world size.
pub fn channel_group(world: usize) -> Result<Vec<Endpoint<ChannelWire>>, TransportError> {
    channel_group_with(world, |_, w| w)
}

// ---------------------------------------------------------------------------
// TCP wire: multi-process transport
// ---------------------------------------------------------------------------

/// TCP transport configuration for [`tcp_rendezvous`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This process's rank (index into `addrs`).
    pub rank: usize,
    /// One `host:port` per rank; rank `r` listens on `addrs[r]`.
    pub addrs: Vec<String>,
    /// Net fingerprint every peer must match (see
    /// [`crate::dist::net_fingerprint`]).
    pub fingerprint: u32,
    /// How long rendezvous may take before giving up.
    pub rendezvous_timeout: Duration,
}

impl TcpConfig {
    /// A config with the default 10 s rendezvous timeout.
    pub fn new(rank: usize, addrs: Vec<String>, fingerprint: u32) -> TcpConfig {
        TcpConfig {
            rank,
            addrs,
            fingerprint,
            rendezvous_timeout: Duration::from_secs(10),
        }
    }
}

struct TcpPeerSlot {
    stream: Mutex<Option<TcpStream>>,
}

/// Socket wire: one TCP connection per peer, length-prefixed frames,
/// per-peer write locks. Lower ranks accept, higher ranks dial (and
/// redial on a broken link); the handshake checks protocol version and
/// net fingerprint in both directions.
pub struct TcpWire {
    peers: Vec<TcpPeerSlot>,
    closing: AtomicBool,
    own_addr: String,
}

impl TcpWire {
    fn install(&self, peer: usize, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        *self.peers[peer].stream.lock().unwrap() = Some(stream);
    }

    fn drop_stream(&self, peer: usize) {
        *self.peers[peer].stream.lock().unwrap() = None;
    }
}

fn write_wire_frame(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    write_frame(stream, bytes)
}

fn read_wire_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    read_frame(stream, HEADER_LEN + MAX_PAYLOAD + TRAILER_LEN)
}

fn hello_frame(rank: usize, world: usize, fingerprint: u32) -> Vec<u8> {
    let mut h = Header::control(
        FrameKind::Hello,
        rank as u16,
        Key {
            step: 0,
            bucket: 0,
            phase: 0,
            ring_step: 0,
        },
        world as u16,
    );
    h.contributors = fingerprint;
    h.alive = full_mask(world);
    Frame::encode(&h, &[])
}

/// Validates a peer's hello; returns its rank.
fn check_hello(bytes: Vec<u8>, world: usize, fingerprint: u32) -> Result<usize, TransportError> {
    let f = Frame::decode(Arc::new(bytes)).map_err(|e| TransportError::Handshake {
        detail: match e {
            FrameError::BadVersion(v) => {
                format!("protocol version mismatch: peer speaks v{v}, we speak v{PROTOCOL_VERSION}")
            }
            other => format!("undecodable hello: {other:?}"),
        },
    })?;
    let f = f.head;
    if f.kind != FrameKind::Hello {
        return Err(TransportError::Handshake {
            detail: format!("expected hello, got {:?}", f.kind),
        });
    }
    if f.chunk as usize != world {
        return Err(TransportError::Handshake {
            detail: format!("world mismatch: peer says {}, we say {world}", f.chunk),
        });
    }
    if f.contributors != fingerprint {
        return Err(TransportError::Handshake {
            detail: format!(
                "net fingerprint mismatch: peer {:08x}, ours {fingerprint:08x} — refusing to \
                 average gradients across different programs",
                f.contributors
            ),
        });
    }
    let rank = f.from as usize;
    if rank >= world {
        return Err(TransportError::Handshake {
            detail: format!("peer rank {rank} out of range"),
        });
    }
    Ok(rank)
}

fn spawn_tcp_reader(router: Router, wire: Arc<TcpWire>, peer: usize, cfg: TcpConfig) {
    let mut stream = {
        let guard = wire.peers[peer].stream.lock().unwrap();
        guard.as_ref().and_then(|s| s.try_clone().ok())
    };
    std::thread::Builder::new()
        .name(format!("latte-tcp-rx-{}-{peer}", cfg.rank))
        .spawn(move || loop {
            let Some(s) = stream.as_mut() else { return };
            match read_wire_frame(s) {
                Ok(bytes) => router.deliver(peer, Arc::new(bytes), wire.as_ref()),
                Err(_) => {
                    if wire.closing.load(Ordering::Relaxed) {
                        return;
                    }
                    wire.drop_stream(peer);
                    // Only the dialing side (peer rank below ours) can
                    // re-establish; the accepting side waits for the
                    // peer to redial through the listener.
                    if peer >= cfg.rank {
                        router.mark_link_down(peer);
                        return;
                    }
                    let mut revived = None;
                    for _ in 0..RECONNECT_ATTEMPTS {
                        FaultMetrics::bump(&router.metrics().reconnects);
                        std::thread::sleep(RECONNECT_BACKOFF);
                        if let Ok(s) = dial_peer(&cfg, peer) {
                            revived = Some(s);
                            break;
                        }
                    }
                    match revived {
                        Some(s) => {
                            stream = s.try_clone().ok();
                            wire.install(peer, s);
                            router.mark_link_up(peer);
                        }
                        None => {
                            router.mark_link_down(peer);
                            return;
                        }
                    }
                }
            }
        })
        .expect("spawn tcp reader");
}

/// Dials `peer`, performs the bidirectional hello exchange, and returns
/// the connected stream.
fn dial_peer(cfg: &TcpConfig, peer: usize) -> Result<TcpStream, TransportError> {
    let world = cfg.addrs.len();
    let mut stream = TcpStream::connect(&cfg.addrs[peer]).map_err(|e| TransportError::Io {
        detail: format!("connect {}: {e}", cfg.addrs[peer]),
    })?;
    write_wire_frame(&mut stream, &hello_frame(cfg.rank, world, cfg.fingerprint)).map_err(|e| {
        TransportError::Io {
            detail: format!("hello to peer {peer}: {e}"),
        }
    })?;
    let reply = read_wire_frame(&mut stream).map_err(|e| TransportError::Io {
        detail: format!("hello-ack from peer {peer}: {e}"),
    })?;
    let got = check_hello(reply, world, cfg.fingerprint)?;
    if got != peer {
        return Err(TransportError::Handshake {
            detail: format!("dialed peer {peer} but rank {got} answered"),
        });
    }
    Ok(stream)
}

/// Runs the full TCP rendezvous: binds `addrs[rank]`, dials every lower
/// rank, accepts every higher rank, handshakes each connection
/// (protocol version + net fingerprint + world size, both directions),
/// and returns a ready [`Transport`]. A persistent accept thread keeps
/// servicing redials from higher ranks for the life of the endpoint.
///
/// # Errors
///
/// [`TransportError::Handshake`] on any validation failure or when the
/// rendezvous deadline expires; [`TransportError::Io`] on socket
/// failures.
pub fn tcp_rendezvous(cfg: TcpConfig) -> Result<Endpoint<TcpWire>, TransportError> {
    let world = cfg.addrs.len();
    if cfg.rank >= world {
        return Err(TransportError::Handshake {
            detail: format!("rank {} out of range for {world} addrs", cfg.rank),
        });
    }
    let metrics = Arc::new(FaultMetrics::new());
    let router = Router::new(cfg.rank, world, metrics)?;
    let wire = Arc::new(TcpWire {
        peers: (0..world)
            .map(|_| TcpPeerSlot {
                stream: Mutex::new(None),
            })
            .collect(),
        closing: AtomicBool::new(false),
        own_addr: cfg.addrs[cfg.rank].clone(),
    });
    let listener = TcpListener::bind(&cfg.addrs[cfg.rank]).map_err(|e| TransportError::Io {
        detail: format!("bind {}: {e}", cfg.addrs[cfg.rank]),
    })?;

    // Accept thread: greets higher ranks, both at rendezvous and on any
    // later redial. Runs until the endpoint closes.
    let accepted: Arc<(Mutex<u32>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
    {
        let router = router.clone();
        let wire = Arc::clone(&wire);
        let cfg = cfg.clone();
        let accepted = Arc::clone(&accepted);
        std::thread::Builder::new()
            .name(format!("latte-tcp-accept-{}", cfg.rank))
            .spawn(move || {
                for conn in listener.incoming() {
                    if wire.closing.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let Ok(hello) = read_wire_frame(&mut stream) else {
                        continue;
                    };
                    let peer = match check_hello(hello, cfg.addrs.len(), cfg.fingerprint) {
                        Ok(p) if p > cfg.rank => p,
                        // Wrong direction, bad version, or bad
                        // fingerprint: refuse by closing the socket.
                        _ => continue,
                    };
                    if write_wire_frame(
                        &mut stream,
                        &hello_frame(cfg.rank, cfg.addrs.len(), cfg.fingerprint),
                    )
                    .is_err()
                    {
                        continue;
                    }
                    wire.install(peer, stream);
                    router.mark_link_up(peer);
                    spawn_tcp_reader(router.clone(), Arc::clone(&wire), peer, cfg.clone());
                    let (lock, cv) = &*accepted;
                    *lock.lock().unwrap() |= 1 << peer;
                    cv.notify_all();
                }
            })
            .expect("spawn tcp acceptor");
    }

    // Dial every lower rank, retrying until the rendezvous deadline
    // (peers may not have bound their listeners yet).
    let deadline = Instant::now() + cfg.rendezvous_timeout;
    for peer in 0..cfg.rank {
        loop {
            match dial_peer(&cfg, peer) {
                Ok(stream) => {
                    wire.install(peer, stream);
                    spawn_tcp_reader(router.clone(), Arc::clone(&wire), peer, cfg.clone());
                    break;
                }
                Err(e @ TransportError::Handshake { .. }) => return Err(e),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Handshake {
                            detail: format!("rendezvous with peer {peer} timed out: {e}"),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    // Wait for every higher rank to dial in.
    let want = full_mask(world) & !full_mask(cfg.rank + 1);
    let (lock, cv) = &*accepted;
    let mut got = lock.lock().unwrap();
    while *got & want != want {
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Handshake {
                detail: format!(
                    "rendezvous timed out waiting for higher ranks (mask {:08b} of {want:08b})",
                    *got
                ),
            });
        }
        let (guard, _) = cv.wait_timeout(got, deadline - now).unwrap();
        got = guard;
    }
    drop(got);
    Ok(Endpoint::new(router, wire))
}

impl<W: Wire> Drop for Endpoint<W> {
    fn drop(&mut self) {
        self.goodbye();
        self.wire.close();
    }
}

impl Wire for TcpWire {
    fn send(&self, to: usize, bytes: WireBytes) -> Result<(), TransportError> {
        let mut guard = self.peers[to].stream.lock().unwrap();
        let Some(stream) = guard.as_mut() else {
            return Err(TransportError::Disconnected { peer: to });
        };
        match write_wire_frame(stream, &bytes) {
            Ok(()) => Ok(()),
            Err(_) => {
                *guard = None;
                Err(TransportError::Disconnected { peer: to })
            }
        }
    }

    fn close(&self) {
        self.closing.store(true, Ordering::Relaxed);
        for slot in &self.peers {
            if let Some(s) = slot.stream.lock().unwrap().take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        // Unblock the accept loop so its thread can observe `closing`.
        let _ = TcpStream::connect(&self.own_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(step: u32, ring_step: u16) -> Key {
        Key {
            step,
            bucket: 0,
            phase: 0,
            ring_step,
        }
    }

    /// The frame the wire-format pin and the round-trip tests share.
    fn sample() -> (Header, Vec<f32>) {
        let head = Header {
            kind: FrameKind::Data,
            from: 3,
            key: Key {
                step: 7,
                bucket: 2,
                phase: 1,
                ring_step: 5,
            },
            chunk: 4,
            alive: 0b1011,
            failed: 0b0100,
            contributors: 0b0011,
        };
        (head, vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0])
    }

    fn decode(bytes: Vec<u8>) -> Result<Frame, FrameError> {
        Frame::decode(Arc::new(bytes))
    }

    fn data_head(step: u32, ring_step: u16) -> Header {
        Header::control(FrameKind::Data, 0, key(step, ring_step), 0)
    }

    fn expect_payload(d: Delivery) -> Vec<f32> {
        match d {
            Delivery::Frame(f) => f.payload().collect(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_preserves_everything() {
        let (head, payload) = sample();
        let bytes = Frame::encode(&head, &payload);
        let f = decode(bytes.clone()).unwrap();
        assert_eq!(f.head, head);
        assert_eq!(f.payload().collect::<Vec<_>>(), payload);
        assert_eq!(Frame::peek(&bytes), Some((head, 16)));
    }

    #[test]
    fn wire_v2_bytes_are_pinned() {
        // The exact bytes the bit-at-a-time CRC and per-element encoder
        // of the first wire-v2 build produced for this frame: an encoder
        // or checksum that drifts by one bit fails here before it fails
        // to interoperate with deployed workers.
        let (head, payload) = sample();
        let want: [u8; HEADER_LEN + 16 + TRAILER_LEN] = [
            0x54, 0x4C, 0x02, 0x00, // magic "LT", version 2
            0x00, 0x01, 0x03, 0x00, // kind Data, phase 1, from 3
            0x07, 0x00, 0x00, 0x00, // step 7
            0x02, 0x00, 0x05, 0x00, // bucket 2, ring step 5
            0x04, 0x00, 0x00, 0x00, // chunk 4, reserved
            0x0B, 0x00, 0x00, 0x00, // alive
            0x04, 0x00, 0x00, 0x00, // failed
            0x03, 0x00, 0x00, 0x00, // contributors
            0x10, 0x00, 0x00, 0x00, // payload length 16
            0x00, 0x00, 0x80, 0x3F, // 1.0
            0x00, 0x00, 0x20, 0xC0, // -2.5
            0x00, 0x00, 0x80, 0x00, // f32::MIN_POSITIVE
            0x00, 0x00, 0x00, 0x00, // 0.0
            0x7D, 0x56, 0x5F, 0x44, // CRC32 0x445F567D
        ];
        assert_eq!(Frame::encode(&head, &payload), want);
    }

    #[test]
    fn flipped_bit_is_caught_by_crc() {
        // The negative control for the corruption path: any single
        // flipped bit anywhere in the frame must fail decode.
        let (head, payload) = sample();
        let clean = Frame::encode(&head, &payload);
        assert!(decode(clean.clone()).is_ok());
        for byte in 0..clean.len() {
            let mut bad = clean.clone();
            bad[byte] ^= 0x01;
            assert!(decode(bad).is_err(), "flipping byte {byte} went undetected");
        }
        // The injector's canonical corruption helper, too.
        let mut bad = clean.clone();
        assert!(corrupt_payload(&mut bad));
        assert_eq!(decode(bad).unwrap_err(), FrameError::BadCrc);
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        assert_eq!(decode(Vec::new()).unwrap_err(), FrameError::Truncated);
        let clean = Frame::encode(&data_head(0, 0), &[]);
        let mut bytes = clean.clone();
        bytes[0] = 0xFF;
        assert_eq!(decode(bytes).unwrap_err(), FrameError::BadMagic);
        let mut bytes = clean.clone();
        bytes[2] = 0xEE;
        assert!(matches!(decode(bytes), Err(FrameError::BadVersion(_))));
        let mut bytes = clean.clone();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(decode(bytes).unwrap_err(), FrameError::Truncated);
        // A header claiming more payload than the cap (or than arrived)
        // is refused from the 40 bytes in hand, with nothing allocated.
        let mut bytes = clean;
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(bytes).unwrap_err(), FrameError::Truncated);
    }

    proptest! {
        #[test]
        fn frame_roundtrip_preserves_payload_bits(
            mut bits in proptest::collection::vec(0u32..u32::MAX, 0..300),
            step in 0u32..u32::MAX,
            masks in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX),
        ) {
            // Quiet and signalling NaNs, infinities and -0.0 must cross
            // the wire bit for bit: compare `to_bits`, never values.
            bits.extend([0x8000_0000, 0x7FC0_0001, 0x7FA0_0000, 0xFFFF_FFFF, 0xFF80_0000]);
            let payload: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut head = data_head(step, (step % 7) as u16);
            (head.alive, head.failed, head.contributors) = masks;
            let f = decode(Frame::encode(&head, &payload)).unwrap();
            prop_assert_eq!(f.head, head);
            let back: Vec<u32> = f.payload().map(f32::to_bits).collect();
            prop_assert_eq!(back, bits);
        }

        #[test]
        fn decode_of_arbitrary_bytes_is_a_structured_error(
            mut bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
            keep_preamble in 0u8..4,
        ) {
            // Most cases keep a valid magic/version/kind so the fuzz
            // reaches the length and CRC checks instead of dying at the
            // first byte. No input may panic; random bytes never carry a
            // matching CRC32 by construction here (p = 2^-32 per case).
            if keep_preamble > 0 && bytes.len() >= 5 {
                bytes[..4].copy_from_slice(&[0x54, 0x4C, 0x02, 0x00]);
                bytes[4] %= 6;
            }
            prop_assert!(decode(bytes.clone()).is_err());
            if let Some((_, plen)) = Frame::peek(&bytes) {
                prop_assert_eq!(bytes.len(), HEADER_LEN + plen + TRAILER_LEN);
            }
        }
    }

    #[test]
    fn channel_group_delivers_and_services_resends() {
        let group = channel_group(2).unwrap();
        group[0].send_data(1, data_head(1, 0), &[1.0, 2.0]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        assert_eq!(
            expect_payload(group[1].recv(0, deadline, 0).unwrap()),
            vec![1.0, 2.0]
        );
        // Resend: endpoint 1 asks 0 to replay the frame it already sent.
        group[1].request_resend(0, key(1, 0)).unwrap();
        assert_eq!(
            expect_payload(group[1].recv(0, deadline, 0).unwrap()),
            vec![1.0, 2.0]
        );
        assert_eq!(group[0].metrics().snapshot().send_retries, 1);
    }

    #[test]
    fn a_channel_frame_is_delivered_before_send_returns() {
        // No thread stands between the wire and the router: once
        // `send_data` returns, a receive whose deadline has already
        // passed finds the frame queued.
        let group = channel_group(2).unwrap();
        let past = Instant::now();
        group[0].send_data(1, data_head(1, 0), &[3.0, 4.0]).unwrap();
        assert_eq!(
            expect_payload(group[1].recv(0, past, 0).unwrap()),
            vec![3.0, 4.0]
        );
        assert_eq!(group[1].metrics().snapshot().timeouts, 0);
    }

    #[test]
    fn dropping_a_group_drops_every_router() {
        // Each channel wire holds its peers' routers and wires, so a
        // group is a cycle of `Arc`s until the endpoints' drops close
        // their wires. The wrapped wire must forward `close` too.
        fn weak<W: Wire>(group: &[Endpoint<W>]) -> Vec<std::sync::Weak<RouterInner>> {
            group
                .iter()
                .map(|ep| Arc::downgrade(&ep.router().inner))
                .collect()
        }
        let group = channel_group(3).unwrap();
        group[0].send_data(1, data_head(1, 0), &[1.0]).unwrap();
        group[1].request_resend(0, key(1, 0)).unwrap();
        let routers = weak(&group);
        drop(group);
        assert!(
            routers.iter().all(|r| r.upgrade().is_none()),
            "a clean group leaked"
        );

        let group = channel_group_with(3, |rank, wire| {
            crate::fault::FaultyTransport::new(rank, crate::fault::FaultPlan::none(), wire)
        })
        .unwrap();
        group[2].send_data(0, data_head(1, 0), &[1.0]).unwrap();
        let routers = weak(&group);
        drop(group);
        assert!(
            routers.iter().all(|r| r.upgrade().is_none()),
            "a wrapped group leaked"
        );
    }

    #[test]
    fn retransmit_window_keeps_the_previous_step() {
        // While step n is in flight a slow peer may still be asking for
        // step n-1: that frame must stay resendable, step n-2 must not.
        let group = channel_group(2).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        for step in 1..=3u32 {
            for ring_step in 0..2u16 {
                group[0]
                    .send_data(1, data_head(step, ring_step), &[step as f32])
                    .unwrap();
                group[1].recv(0, deadline, 0).unwrap();
            }
        }
        group[1].request_resend(0, key(2, 1)).unwrap();
        assert_eq!(
            expect_payload(group[1].recv(0, deadline, 0).unwrap()),
            vec![2.0]
        );
        group[1].request_resend(0, key(3, 0)).unwrap();
        assert_eq!(
            expect_payload(group[1].recv(0, deadline, 0).unwrap()),
            vec![3.0]
        );
        // Step 1 left the window when step 3 began: no reply comes.
        group[1].request_resend(0, key(1, 0)).unwrap();
        let err = group[1]
            .recv(0, Instant::now() + Duration::from_millis(50), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::Timeout { peer: 0 });
        assert_eq!(group[0].metrics().snapshot().send_retries, 2);
    }

    #[test]
    fn world_of_32_is_the_mask_boundary() {
        // 32 ranks fill the u32 masks exactly and must be accepted.
        let router = Router::new(31, MAX_WORLD, Arc::new(FaultMetrics::new())).unwrap();
        assert_eq!(router.world(), MAX_WORLD);
        assert_eq!(full_mask(MAX_WORLD), u32::MAX);
        // Rank 33+ would corrupt the alive/failed masks: structured
        // refusal, not silent truncation.
        let err = match Router::new(0, MAX_WORLD + 1, Arc::new(FaultMetrics::new())) {
            Ok(_) => panic!("a 33-rank router must be refused"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            TransportError::TooManyRanks { world: MAX_WORLD + 1, max: MAX_WORLD }
        );
        // Group constructors propagate the same error.
        let err = match channel_group(MAX_WORLD + 1) {
            Ok(_) => panic!("a 33-rank group must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, TransportError::TooManyRanks { world: 33, .. }));
        // Degenerate-but-small geometry still reports Handshake.
        assert!(matches!(
            Router::new(5, 2, Arc::new(FaultMetrics::new())),
            Err(TransportError::Handshake { .. })
        ));
    }

    #[test]
    fn recv_times_out_and_counts_it() {
        let group = channel_group(2).unwrap();
        let t0 = Instant::now();
        let err = group[0]
            .recv(1, t0 + Duration::from_millis(30), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::Timeout { peer: 1 });
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(group[0].metrics().snapshot().timeouts, 1);
    }

    #[test]
    fn eviction_broadcast_shrinks_every_mask() {
        let group = channel_group(3).unwrap();
        assert!(group[0].evict(2));
        assert!(!group[0].evict(2), "double eviction is a no-op");
        // Peer 1 learns about it from the broadcast.
        let deadline = Instant::now() + Duration::from_secs(2);
        while group[1].alive_mask() & (1 << 2) != 0 {
            assert!(Instant::now() < deadline, "evict broadcast never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(group[0].alive_mask(), 0b011);
        assert_eq!(group[1].alive_mask(), 0b011);
        assert_eq!(group[0].metrics().snapshot().peers_evicted, 1);
        assert_eq!(group[1].metrics().snapshot().peers_evicted, 1);
        // recv from the dead peer fails immediately.
        let err = group[1]
            .recv(2, Instant::now() + Duration::from_secs(5), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDead { peer: 2 });
    }

    #[test]
    fn stale_masks_are_dropped_and_news_is_adopted() {
        let group = channel_group(3).unwrap();
        // Node 0 evicts node 2 locally only (simulate a lost broadcast
        // by using the router directly).
        group[0].router().mark_dead(2, true);
        // A data frame from 0 now carries mask 0b011; node 1 adopts it.
        group[0].send_data(1, data_head(5, 0), &[9.0]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        assert_eq!(
            expect_payload(group[1].recv(0, deadline, 0).unwrap()),
            vec![9.0]
        );
        assert_eq!(group[1].alive_mask(), 0b011, "death news adopted in-band");
        // A stale frame from 2 (whose mask still includes itself) is
        // dropped at node 1 — never delivered.
        group[2].send_data(1, data_head(5, 0), &[7.0]).unwrap();
        let err = group[1]
            .recv(2, Instant::now() + Duration::from_millis(50), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDead { peer: 2 });
    }

    #[test]
    fn tcp_pair_handshakes_and_exchanges_frames() {
        let ports = super::tests::reserve_ports(2);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let a0 = addrs.clone();
        let h = std::thread::spawn(move || {
            tcp_rendezvous(TcpConfig::new(0, a0, 0xABCD)).expect("rank 0 rendezvous")
        });
        let t1 = tcp_rendezvous(TcpConfig::new(1, addrs, 0xABCD)).expect("rank 1 rendezvous");
        let t0 = h.join().unwrap();
        t0.send_data(1, data_head(1, 0), &[1.5, -2.5]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        match t1.recv(0, deadline, 0).unwrap() {
            Delivery::Frame(got) => {
                assert_eq!(got.payload().collect::<Vec<_>>(), vec![1.5, -2.5]);
                assert_eq!(got.head.from, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // And the reverse direction.
        t1.send_data(0, data_head(1, 1), &[4.0]).unwrap();
        assert_eq!(
            expect_payload(t0.recv(1, deadline, 0).unwrap()),
            vec![4.0]
        );
    }

    #[test]
    fn tcp_handshake_rejects_fingerprint_mismatch() {
        let ports = super::tests::reserve_ports(2);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let a0 = addrs.clone();
        let h = std::thread::spawn(move || {
            let mut cfg = TcpConfig::new(0, a0, 0x1111);
            cfg.rendezvous_timeout = Duration::from_millis(900);
            tcp_rendezvous(cfg)
        });
        let mut cfg = TcpConfig::new(1, addrs, 0x2222);
        cfg.rendezvous_timeout = Duration::from_millis(900);
        let r1 = tcp_rendezvous(cfg);
        assert!(r1.is_err(), "mismatched fingerprint must not rendezvous");
        assert!(h.join().unwrap().is_err());
    }

    /// Reserves `n` distinct loopback ports by binding and dropping
    /// listeners (a small race window, fine for tests).
    pub(crate) fn reserve_ports(n: usize) -> Vec<u16> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().unwrap().port())
            .collect()
    }
}
