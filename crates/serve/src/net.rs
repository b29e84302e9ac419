//! The fault-hardened network front-end: a framed-TCP protocol that
//! exposes [`Server::submit`](crate::Server::submit) to real sockets.
//!
//! # Wire format
//!
//! Every message travels as one frame using the runtime's shared wire
//! conventions ([`latte_runtime::frame`]): a little-endian `u32` length
//! prefix, then the message body sealed with a CRC32 trailer. Bodies
//! begin with a one-byte message kind; integers are little-endian,
//! strings are `u16` length + UTF-8 bytes, tensors are `u32` count +
//! `f32` values. A connection opens with a versioned handshake
//! ([`ClientMsg::Hello`] / [`ServerMsg::HelloOk`]) that also tells the
//! client the served model's input/output signature.
//!
//! # Deadline propagation
//!
//! A request carries its client's remaining latency budget in
//! microseconds (`0` = none). The front-end converts it to an absolute
//! deadline *at receipt* and hands it to admission: a request already
//! past its deadline is refused before it can occupy a queue slot, and
//! one that expires while coalescing is shed at batch flush — counted,
//! answered with a structured error, never executed.
//!
//! # Hardening
//!
//! Misbehaving clients are the expected case, not the exception:
//!
//! * **Slow loris** — per-connection read/write timeouts and a
//!   max-connection cap. A connection that goes quiet with nothing in
//!   flight (including mid-handshake) is closed and counted in
//!   [`StatsSnapshot::conn_timeouts`]; one waiting on in-flight replies
//!   is left alone.
//! * **Corruption** — a frame failing its CRC (or an undecodable body)
//!   draws a structured [`WireError::BadFrame`] reply, a counter bump
//!   ([`StatsSnapshot::frames_corrupt`]), and a close — never a panic.
//! * **Disconnection** — replies to a vanished client are dropped and
//!   counted ([`StatsSnapshot::replies_dropped`]), not leaked; a
//!   mid-frame disconnect is detected as a truncated stream.
//! * **Backpressure** — each connection's replies flow through a
//!   *bounded* queue drained by a dedicated writer thread; a client
//!   that stops reading overflows only its own queue (dropped +
//!   counted), never the server's memory.
//!
//! # Shutdown
//!
//! [`NetFrontend::close`] (after
//! [`Server::shutdown`](crate::Server::shutdown) has drained admitted
//! work) stops the acceptor, shuts every connection's read half so
//! readers wind down, lets writers flush their remaining replies, and
//! joins every thread — no leaked sockets or threads.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use latte_runtime::frame::{
    put_f32_vec, put_u16, put_u32, put_u64, read_frame, seal, verify, write_frame, ReadError,
    Reader,
};

use crate::batcher::FlushReason;
use crate::error::ServeError;
use crate::server::{ReplySink, Request, Response, ServeStats, Server, StatsSnapshot};

/// Version of the serving wire protocol; the handshake refuses any
/// other.
pub const NET_PROTOCOL_VERSION: u16 = 1;

/// Upper bound on one frame's sealed body (4 MiB): a length prefix
/// claiming more is refused before any allocation.
pub const MAX_NET_FRAME: usize = 1 << 22;

/// The request id used on connection-level error frames that answer no
/// particular request (handshake refusals, corrupt frames).
pub const CONN_ERR_ID: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Error model
// ---------------------------------------------------------------------------

/// A serving failure as named on the wire — the stable numeric
/// vocabulary both sides of the protocol agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// [`ServeError::Overloaded`].
    Overloaded,
    /// [`ServeError::Closed`].
    Closed,
    /// [`ServeError::BadRequest`].
    BadRequest,
    /// [`ServeError::Compile`].
    Compile,
    /// [`ServeError::Execution`].
    Execution,
    /// [`ServeError::ReplicaFailed`].
    ReplicaFailed,
    /// [`ServeError::WaitTimeout`].
    WaitTimeout,
    /// [`ServeError::DeadlineExceeded`].
    DeadlineExceeded,
    /// [`ServeError::Draining`].
    Draining,
    /// The frame failed its CRC or would not decode.
    BadFrame,
    /// The handshake offered an unsupported protocol version.
    BadVersion,
    /// The connection was refused at the max-connection cap.
    ConnLimit,
    /// A protocol-state violation (e.g. a second `Hello`).
    Protocol,
    /// A code this build does not know (forward compatibility).
    Unknown,
}

impl WireError {
    fn code(self) -> u16 {
        match self {
            WireError::Overloaded => 1,
            WireError::Closed => 2,
            WireError::BadRequest => 3,
            WireError::Compile => 4,
            WireError::Execution => 5,
            WireError::ReplicaFailed => 6,
            WireError::WaitTimeout => 7,
            WireError::DeadlineExceeded => 8,
            WireError::Draining => 9,
            WireError::BadFrame => 100,
            WireError::BadVersion => 101,
            WireError::ConnLimit => 102,
            WireError::Protocol => 103,
            WireError::Unknown => u16::MAX,
        }
    }

    fn from_code(code: u16) -> WireError {
        match code {
            1 => WireError::Overloaded,
            2 => WireError::Closed,
            3 => WireError::BadRequest,
            4 => WireError::Compile,
            5 => WireError::Execution,
            6 => WireError::ReplicaFailed,
            7 => WireError::WaitTimeout,
            8 => WireError::DeadlineExceeded,
            9 => WireError::Draining,
            100 => WireError::BadFrame,
            101 => WireError::BadVersion,
            102 => WireError::ConnLimit,
            103 => WireError::Protocol,
            _ => WireError::Unknown,
        }
    }
}

impl From<&ServeError> for WireError {
    fn from(e: &ServeError) -> WireError {
        match e {
            ServeError::Overloaded { .. } => WireError::Overloaded,
            ServeError::Closed => WireError::Closed,
            ServeError::BadRequest { .. } => WireError::BadRequest,
            ServeError::Compile { .. } => WireError::Compile,
            ServeError::Execution { .. } => WireError::Execution,
            ServeError::ReplicaFailed { .. } => WireError::ReplicaFailed,
            ServeError::WaitTimeout => WireError::WaitTimeout,
            ServeError::DeadlineExceeded { .. } => WireError::DeadlineExceeded,
            ServeError::Draining => WireError::Draining,
        }
    }
}

/// A client-side failure talking to a front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A socket-level failure.
    Io {
        /// The I/O error's kind.
        kind: ErrorKind,
        /// The I/O error's message.
        detail: String,
    },
    /// A frame arrived but failed its CRC.
    Corrupt,
    /// The peer violated the protocol (unexpected kind, bad field).
    Protocol(String),
    /// The server answered with a structured error frame.
    Remote {
        /// The wire error code.
        code: WireError,
        /// The server's human-readable diagnostic.
        detail: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { kind, detail } => write!(f, "i/o error ({kind:?}): {detail}"),
            NetError::Corrupt => write!(f, "frame failed its CRC"),
            NetError::Protocol(d) => write!(f, "protocol violation: {d}"),
            NetError::Remote { code, detail } => {
                write!(f, "server error {code:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

const K_HELLO: u8 = 1;
const K_REQUEST: u8 = 2;
const K_HEALTH: u8 = 3;
const K_BYE: u8 = 4;
const K_HELLO_OK: u8 = 101;
const K_REPLY: u8 = 102;
const K_ERROR: u8 = 103;
const K_HEALTH_REPLY: u8 = 104;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// The handshake opener; must be the connection's first frame.
    Hello {
        /// The client's protocol version
        /// ([`NET_PROTOCOL_VERSION`]).
        version: u16,
    },
    /// One inference request.
    Request {
        /// A client-chosen id echoed on the reply.
        id: u64,
        /// The client's remaining latency budget in microseconds; `0`
        /// means no deadline.
        budget_us: u64,
        /// The request's inputs, matched against the model signature.
        inputs: Vec<(String, Vec<f32>)>,
    },
    /// A health/readiness probe.
    Health,
    /// A polite close.
    Bye,
}

/// The handshake reply: protocol version plus the served model's
/// request signature, so a client needs no out-of-band schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// The server's protocol version.
    pub version: u16,
    /// The served model's name.
    pub model: String,
    /// The model's plan-cache fingerprint.
    pub fingerprint: u64,
    /// Per-item `(ensemble, len)` input signature.
    pub inputs: Vec<(String, usize)>,
    /// The buffers read back into every reply.
    pub outputs: Vec<String>,
}

/// A completed inference as decoded from the wire — the network twin of
/// [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetReply {
    /// The client-chosen request id being answered.
    pub id: u64,
    /// The server-side submission sequence number.
    pub seq: u64,
    /// One `(buffer, values)` row per model output.
    pub outputs: Vec<(String, Vec<f32>)>,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
    /// Why that batch flushed.
    pub flush: FlushReason,
    /// Id of the replica that executed it.
    pub replica: usize,
    /// Times the request was re-run after replica crashes.
    pub retried: u32,
    /// Whether the batch's plan came from the cache.
    pub cache_hit: bool,
    /// Server-side submit-to-completion latency.
    pub latency: Duration,
}

/// A health-probe reply: readiness plus the full counter snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Whether the server is draining for shutdown (not ready).
    pub draining: bool,
    /// Admitted-but-unfinished requests right now.
    pub depth: usize,
    /// The admission capacity.
    pub capacity: usize,
    /// The server's counters.
    pub stats: StatsSnapshot,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The handshake reply.
    HelloOk(ServerHello),
    /// A completed inference.
    Reply(NetReply),
    /// A structured failure: for request id `id`, or the whole
    /// connection when `id` is [`CONN_ERR_ID`].
    Error {
        /// The request id being answered ([`CONN_ERR_ID`] for
        /// connection-level errors).
        id: u64,
        /// The stable error code.
        code: WireError,
        /// A human-readable diagnostic.
        detail: String,
    },
    /// A health-probe reply.
    Health(HealthReport),
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// A `u16`-length-prefixed string, truncated to what the prefix can say
/// — at a character boundary, or the peer's UTF-8 check rejects the body.
fn put_str(buf: &mut Vec<u8>, s: &str) {
    let end = s.floor_char_boundary(u16::MAX as usize);
    put_u16(buf, end as u16);
    buf.extend_from_slice(&s.as_bytes()[..end]);
}

impl From<ReadError> for NetError {
    fn from(e: ReadError) -> NetError {
        NetError::Protocol(format!("body {e}"))
    }
}

/// This protocol's string: `u16` length, then UTF-8.
fn get_str(d: &mut Reader) -> Result<String, NetError> {
    let n = d.u16()? as usize;
    Ok(d.utf8(n)?.to_string())
}

fn finish(d: &Reader) -> Result<(), NetError> {
    match d.remaining() {
        0 => Ok(()),
        n => Err(NetError::Protocol(format!(
            "{n} trailing bytes after message"
        ))),
    }
}

/// Encodes a client message body (unsealed).
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut b = Vec::new();
    match msg {
        ClientMsg::Hello { version } => {
            b.push(K_HELLO);
            put_u16(&mut b, *version);
        }
        ClientMsg::Request {
            id,
            budget_us,
            inputs,
        } => {
            b.push(K_REQUEST);
            put_u64(&mut b, *id);
            put_u64(&mut b, *budget_us);
            put_u16(&mut b, inputs.len() as u16);
            for (name, values) in inputs {
                put_str(&mut b, name);
                put_f32_vec(&mut b, values);
            }
        }
        ClientMsg::Health => b.push(K_HEALTH),
        ClientMsg::Bye => b.push(K_BYE),
    }
    b
}

/// Decodes a client message body (already CRC-verified).
///
/// # Errors
///
/// [`NetError::Protocol`] on an unknown kind or malformed fields.
pub fn decode_client(body: &[u8]) -> Result<ClientMsg, NetError> {
    let mut d = Reader::new(body);
    let msg = match d.u8()? {
        K_HELLO => ClientMsg::Hello { version: d.u16()? },
        K_REQUEST => {
            let id = d.u64()?;
            let budget_us = d.u64()?;
            let n = d.u16()? as usize;
            let mut inputs = Vec::with_capacity(n.min(d.remaining()));
            for _ in 0..n {
                let name = get_str(&mut d)?;
                let values = d.f32_vec()?;
                inputs.push((name, values));
            }
            ClientMsg::Request {
                id,
                budget_us,
                inputs,
            }
        }
        K_HEALTH => ClientMsg::Health,
        K_BYE => ClientMsg::Bye,
        k => return Err(NetError::Protocol(format!("unknown client kind {k}"))),
    };
    finish(&d)?;
    Ok(msg)
}

fn flush_to_wire(f: FlushReason) -> u8 {
    match f {
        FlushReason::Size => 0,
        FlushReason::Deadline => 1,
        FlushReason::Drain => 2,
    }
}

fn flush_from_wire(v: u8) -> Result<FlushReason, NetError> {
    match v {
        0 => Ok(FlushReason::Size),
        1 => Ok(FlushReason::Deadline),
        2 => Ok(FlushReason::Drain),
        other => Err(NetError::Protocol(format!("unknown flush reason {other}"))),
    }
}

/// Encodes a server message body (unsealed).
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    let mut b = Vec::new();
    match msg {
        ServerMsg::HelloOk(h) => {
            b.push(K_HELLO_OK);
            put_u16(&mut b, h.version);
            put_str(&mut b, &h.model);
            put_u64(&mut b, h.fingerprint);
            put_u16(&mut b, h.inputs.len() as u16);
            for (name, len) in &h.inputs {
                put_str(&mut b, name);
                put_u32(&mut b, *len as u32);
            }
            put_u16(&mut b, h.outputs.len() as u16);
            for name in &h.outputs {
                put_str(&mut b, name);
            }
        }
        ServerMsg::Reply(r) => {
            b.push(K_REPLY);
            put_u64(&mut b, r.id);
            put_u64(&mut b, r.seq);
            put_u32(&mut b, r.batch_size as u32);
            b.push(flush_to_wire(r.flush));
            put_u32(&mut b, r.replica as u32);
            put_u32(&mut b, r.retried);
            b.push(r.cache_hit as u8);
            put_u64(&mut b, r.latency.as_micros() as u64);
            put_u16(&mut b, r.outputs.len() as u16);
            for (name, values) in &r.outputs {
                put_str(&mut b, name);
                put_f32_vec(&mut b, values);
            }
        }
        ServerMsg::Error { id, code, detail } => {
            b.push(K_ERROR);
            put_u64(&mut b, *id);
            put_u16(&mut b, code.code());
            put_str(&mut b, detail);
        }
        ServerMsg::Health(h) => {
            b.push(K_HEALTH_REPLY);
            b.push(h.draining as u8);
            put_u64(&mut b, h.depth as u64);
            put_u64(&mut b, h.capacity as u64);
            // The counters in `StatsSnapshot`'s declaration order.
            for value in h.stats.values() {
                put_u64(&mut b, value);
            }
        }
    }
    b
}

/// Decodes a server message body (already CRC-verified).
///
/// # Errors
///
/// [`NetError::Protocol`] on an unknown kind or malformed fields.
pub fn decode_server(body: &[u8]) -> Result<ServerMsg, NetError> {
    let mut d = Reader::new(body);
    let msg = match d.u8()? {
        K_HELLO_OK => {
            let version = d.u16()?;
            let model = get_str(&mut d)?;
            let fingerprint = d.u64()?;
            let n_in = d.u16()? as usize;
            let mut inputs = Vec::with_capacity(n_in.min(d.remaining()));
            for _ in 0..n_in {
                let name = get_str(&mut d)?;
                let len = d.u32()? as usize;
                inputs.push((name, len));
            }
            let n_out = d.u16()? as usize;
            let mut outputs = Vec::with_capacity(n_out.min(d.remaining()));
            for _ in 0..n_out {
                outputs.push(get_str(&mut d)?);
            }
            ServerMsg::HelloOk(ServerHello {
                version,
                model,
                fingerprint,
                inputs,
                outputs,
            })
        }
        K_REPLY => {
            let id = d.u64()?;
            let seq = d.u64()?;
            let batch_size = d.u32()? as usize;
            let flush = flush_from_wire(d.u8()?)?;
            let replica = d.u32()? as usize;
            let retried = d.u32()?;
            let cache_hit = d.u8()? != 0;
            let latency = Duration::from_micros(d.u64()?);
            let n = d.u16()? as usize;
            let mut outputs = Vec::with_capacity(n.min(d.remaining()));
            for _ in 0..n {
                let name = get_str(&mut d)?;
                let values = d.f32_vec()?;
                outputs.push((name, values));
            }
            ServerMsg::Reply(NetReply {
                id,
                seq,
                outputs,
                batch_size,
                flush,
                replica,
                retried,
                cache_hit,
                latency,
            })
        }
        K_ERROR => ServerMsg::Error {
            id: d.u64()?,
            code: WireError::from_code(d.u16()?),
            detail: get_str(&mut d)?,
        },
        K_HEALTH_REPLY => {
            let draining = d.u8()? != 0;
            let depth = d.u64()? as usize;
            let capacity = d.u64()? as usize;
            let mut values = [0u64; StatsSnapshot::LABELS.len()];
            for v in values.iter_mut() {
                *v = d.u64()?;
            }
            ServerMsg::Health(HealthReport {
                draining,
                depth,
                capacity,
                stats: StatsSnapshot::from_values(values),
            })
        }
        k => return Err(NetError::Protocol(format!("unknown server kind {k}"))),
    };
    finish(&d)?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Socket plumbing
// ---------------------------------------------------------------------------

fn send_body(stream: &mut TcpStream, body: Vec<u8>) -> io::Result<()> {
    write_frame(stream, &seal(body))
}

enum RecvErr {
    /// The frame failed its CRC, claimed an oversize length, or would
    /// not decode.
    Corrupt,
    Io(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn recv_client(stream: &mut TcpStream) -> Result<ClientMsg, RecvErr> {
    let raw = read_frame(stream, MAX_NET_FRAME).map_err(|e| {
        if e.kind() == ErrorKind::InvalidData {
            RecvErr::Corrupt
        } else {
            RecvErr::Io(e)
        }
    })?;
    let body = verify(&raw).map_err(|_| RecvErr::Corrupt)?;
    decode_client(body).map_err(|_| RecvErr::Corrupt)
}

fn recv_server(stream: &mut TcpStream) -> Result<ServerMsg, NetError> {
    let raw = read_frame(stream, MAX_NET_FRAME)?;
    let body = verify(&raw).map_err(|_| NetError::Corrupt)?;
    decode_server(body)
}

fn write_locked(half: &Mutex<TcpStream>, body: Vec<u8>) -> io::Result<()> {
    let mut s = half.lock().unwrap();
    write_frame(&mut *s, &seal(body))
}

fn error_body(id: u64, code: WireError, detail: impl Into<String>) -> Vec<u8> {
    encode_server(&ServerMsg::Error {
        id,
        code,
        detail: detail.into(),
    })
}

// ---------------------------------------------------------------------------
// Front-end
// ---------------------------------------------------------------------------

/// Network front-end tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Concurrent connections accepted; further connects draw a
    /// best-effort [`WireError::ConnLimit`] frame and a close.
    pub max_connections: usize,
    /// Per-connection socket read timeout — the slow-loris bound. A
    /// connection idle past it with nothing in flight is reclaimed.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout; a write stalled past it
    /// (client not reading, kernel buffer full) kills the connection.
    pub write_timeout: Duration,
    /// Bound on each connection's outgoing reply queue; replies beyond
    /// it (client not draining) are dropped and counted.
    pub reply_queue: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            reply_queue: 64,
        }
    }
}

/// A counting latch over threads: the front-end's, so
/// [`NetFrontend::close`] can prove none leaked, and a server's replicas,
/// so [`Server::shutdown`](crate::Server::shutdown) can wait them out.
/// `add` before a thread starts, `done` as its last act.
#[derive(Default)]
pub(crate) struct WaitGroup {
    n: Mutex<usize>,
    cv: Condvar,
}

impl WaitGroup {
    pub(crate) fn add(&self) {
        *self.n.lock().unwrap() += 1;
    }

    pub(crate) fn done(&self) {
        let mut n = self.n.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.cv.notify_all();
        }
    }

    /// Whether every thread was done within `timeout`.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut n = self.n.lock().unwrap();
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.cv.wait_timeout(n, deadline - now).unwrap();
            n = guard;
        }
        true
    }
}

struct FrontShared {
    server: Arc<Server>,
    stats: Arc<ServeStats>,
    cfg: NetConfig,
    closing: AtomicBool,
    /// Read-half clones of every live connection, for force-unblocking
    /// blocked readers at close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    threads: WaitGroup,
}

/// The listening front-end: an acceptor thread plus one reader and one
/// writer thread per connection, feeding
/// [`Server::submit`](crate::Server::submit)'s admission path and
/// sharing the server's counter cell.
pub struct NetFrontend {
    addr: SocketAddr,
    shared: Arc<FrontShared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for NetFrontend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetFrontend")
            .field("addr", &self.addr)
            .field("cfg", &self.shared.cfg)
            .finish_non_exhaustive()
    }
}

impl NetFrontend {
    /// Binds `addr` (use port 0 for an OS-assigned port, reported by
    /// [`NetFrontend::addr`]) and starts accepting connections for
    /// `server`.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(
        server: Arc<Server>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<NetFrontend> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = server.stats_cell();
        let shared = Arc::new(FrontShared {
            server,
            stats,
            cfg,
            closing: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            threads: WaitGroup::default(),
        });
        let sh = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("latte-served-accept".into())
            .spawn(move || accept_loop(listener, sh))?;
        Ok(NetFrontend {
            addr: local,
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the front-end: no new connections, every live connection's
    /// read half is shut so its reader winds down, writers flush the
    /// replies already queued for them, and every thread is joined.
    ///
    /// Call [`Server::shutdown`](crate::Server::shutdown) *first* so
    /// all admitted requests have resolved into the per-connection
    /// reply queues — then this close delivers them before the sockets
    /// die, which is exactly the graceful-drain order `latte-served`
    /// runs on SIGTERM. Idempotent; a wedged connection is abandoned
    /// after 30 s rather than hanging the caller.
    pub fn close(&self) {
        self.shared.closing.store(true, Ordering::Release);
        // Unblock the acceptor with a wake-up connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        for s in self.shared.conns.lock().unwrap().values() {
            let _ = s.shutdown(Shutdown::Read);
        }
        if let Some(h) = self.accept.lock().unwrap().take() {
            let _ = h.join();
        }
        self.shared.threads.wait_timeout(Duration::from_secs(30));
    }
}

impl Drop for NetFrontend {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop(listener: TcpListener, sh: Arc<FrontShared>) {
    for stream in listener.incoming() {
        if sh.closing.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let open = sh.conns.lock().unwrap().len();
        if open >= sh.cfg.max_connections {
            sh.stats.conn_rejected.fetch_add(1, Ordering::Relaxed);
            reject_conn(stream, &sh.cfg);
            continue;
        }
        sh.stats.conn_accepted.fetch_add(1, Ordering::Relaxed);
        let id = sh.next_conn.fetch_add(1, Ordering::Relaxed);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        sh.conns.lock().unwrap().insert(id, read_half);
        sh.threads.add();
        let sh2 = Arc::clone(&sh);
        let spawned = std::thread::Builder::new()
            .name(format!("latte-served-conn-{id}"))
            .spawn(move || {
                conn_main(stream, &sh2);
                sh2.conns.lock().unwrap().remove(&id);
                sh2.threads.done();
            });
        if spawned.is_err() {
            sh.conns.lock().unwrap().remove(&id);
            sh.threads.done();
        }
    }
}

/// Best-effort refusal of an over-cap connection: a structured error
/// frame if the socket will take it quickly, then a close.
fn reject_conn(mut stream: TcpStream, cfg: &NetConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = send_body(
        &mut stream,
        error_body(
            CONN_ERR_ID,
            WireError::ConnLimit,
            "connection limit reached",
        ),
    );
    // Half-close, then drain what the client already sent (its Hello).
    // Closing with unread bytes in the receive buffer turns the close
    // into an RST, which can destroy the refusal frame before the
    // client reads it; consuming the bytes lets the refusal ride out on
    // a clean FIN. Bounded by the read timeout, like the write above.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let mut sink = [0u8; 256];
    loop {
        match io::Read::read(&mut stream, &mut sink) {
            Ok(0) => break,    // the client saw the refusal and closed
            Ok(_) => continue, // discard a half-sent handshake/request
            Err(_) => break,   // timeout or reset: stop waiting
        }
    }
}

/// One connection's reader: handshake, then a loop decoding frames into
/// admission calls until the client leaves, misbehaves, or the
/// front-end closes.
fn conn_main(mut stream: TcpStream, sh: &Arc<FrontShared>) {
    let cfg = &sh.cfg;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));

    // --- Handshake: the first frame must be a matching Hello. ---
    match recv_client(&mut stream) {
        Ok(ClientMsg::Hello {
            version: NET_PROTOCOL_VERSION,
        }) => {}
        Ok(ClientMsg::Hello { version }) => {
            sh.stats.conn_rejected.fetch_add(1, Ordering::Relaxed);
            let _ = send_body(
                &mut stream,
                error_body(
                    CONN_ERR_ID,
                    WireError::BadVersion,
                    format!("protocol version {version}, server speaks {NET_PROTOCOL_VERSION}"),
                ),
            );
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Ok(_) => {
            sh.stats.conn_rejected.fetch_add(1, Ordering::Relaxed);
            let _ = send_body(
                &mut stream,
                error_body(CONN_ERR_ID, WireError::Protocol, "expected Hello first"),
            );
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Err(RecvErr::Corrupt) => {
            sh.stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
            sh.stats.conn_rejected.fetch_add(1, Ordering::Relaxed);
            let _ = send_body(
                &mut stream,
                error_body(CONN_ERR_ID, WireError::BadFrame, "corrupt handshake frame"),
            );
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Err(RecvErr::Io(e)) => {
            // The hold-open-and-never-write client stalls right here.
            if is_timeout(&e) {
                sh.stats.conn_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
    let model = sh.server.model();
    let hello = ServerHello {
        version: NET_PROTOCOL_VERSION,
        model: model.name().to_string(),
        fingerprint: model.fingerprint(),
        inputs: model.inputs().to_vec(),
        outputs: model.outputs().to_vec(),
    };
    if send_body(&mut stream, encode_server(&ServerMsg::HelloOk(hello))).is_err() {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }

    // --- Steady state: reader + dedicated writer over a bounded queue.
    let Ok(write_clone) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let write_half = Arc::new(Mutex::new(write_clone));
    let (tx, rx) = mpsc::sync_channel::<(u64, Result<Response, ServeError>)>(cfg.reply_queue);
    let in_flight = Arc::new(AtomicU64::new(0));
    sh.threads.add();
    let writer = {
        let write_half = Arc::clone(&write_half);
        let in_flight = Arc::clone(&in_flight);
        let sh = Arc::clone(sh);
        std::thread::Builder::new()
            .name("latte-served-writer".into())
            .spawn(move || {
                writer_loop(rx, write_half, in_flight, Arc::clone(&sh.stats));
                sh.threads.done();
            })
    };
    if writer.is_err() {
        sh.threads.done();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }

    loop {
        match recv_client(&mut stream) {
            Ok(ClientMsg::Request {
                id,
                budget_us,
                inputs,
            }) => {
                let deadline =
                    (budget_us > 0).then(|| Instant::now() + Duration::from_micros(budget_us));
                in_flight.fetch_add(1, Ordering::SeqCst);
                let sink = ReplySink::Routed { id, tx: tx.clone() };
                if let Err(e) = sh.server.submit_sink(Request { inputs }, deadline, sink) {
                    // Admission refusals answer inline: they never
                    // occupied a queue slot, so there is no sink reply
                    // coming.
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    let body = error_body(id, WireError::from(&e), e.to_string());
                    if write_locked(&write_half, body).is_err() {
                        break;
                    }
                }
            }
            Ok(ClientMsg::Health) => {
                let report = HealthReport {
                    draining: sh.server.is_draining(),
                    depth: sh.server.depth(),
                    capacity: sh.server.config().queue_cap,
                    stats: sh.server.stats(),
                };
                if write_locked(&write_half, encode_server(&ServerMsg::Health(report))).is_err() {
                    break;
                }
            }
            Ok(ClientMsg::Bye) => break,
            Ok(ClientMsg::Hello { .. }) => {
                let _ = write_locked(
                    &write_half,
                    error_body(CONN_ERR_ID, WireError::Protocol, "Hello after handshake"),
                );
                break;
            }
            Err(RecvErr::Corrupt) => {
                sh.stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
                let _ = write_locked(
                    &write_half,
                    error_body(CONN_ERR_ID, WireError::BadFrame, "frame failed its CRC"),
                );
                break;
            }
            Err(RecvErr::Io(e)) if is_timeout(&e) => {
                // Idle while replies are in flight is a patient client;
                // idle with nothing in flight is a slow loris. (A
                // mid-frame stall desyncs the stream and dies on the
                // next decode.)
                if in_flight.load(Ordering::SeqCst) > 0 && !sh.closing.load(Ordering::Acquire) {
                    continue;
                }
                sh.stats.conn_timeouts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            // EOF, reset, mid-frame disconnect: just wind down.
            Err(RecvErr::Io(_)) => break,
        }
    }
    // Dropping the reader's queue handle lets the writer drain pending
    // replies and exit once the last in-flight sink resolves.
    drop(tx);
    let _ = stream.shutdown(Shutdown::Read);
}

/// One connection's writer: drains the bounded reply queue onto the
/// socket. Exits when every queue handle (the reader's plus one per
/// in-flight request) is gone; a failed write closes the socket and
/// counts every undeliverable reply.
fn writer_loop(
    rx: Receiver<(u64, Result<Response, ServeError>)>,
    write_half: Arc<Mutex<TcpStream>>,
    in_flight: Arc<AtomicU64>,
    stats: Arc<ServeStats>,
) {
    let mut broken = false;
    while let Ok((id, result)) = rx.recv() {
        in_flight.fetch_sub(1, Ordering::SeqCst);
        if broken {
            stats.replies_dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let body = match result {
            Ok(resp) => {
                let meta = resp.meta;
                encode_server(&ServerMsg::Reply(NetReply {
                    id,
                    seq: meta.seq,
                    outputs: resp.outputs,
                    batch_size: meta.batch_size,
                    flush: meta.flush,
                    replica: meta.replica,
                    retried: meta.retried,
                    cache_hit: meta.cache_hit,
                    latency: meta.latency,
                }))
            }
            Err(e) => error_body(id, WireError::from(&e), e.to_string()),
        };
        if let Err(e) = write_locked(&write_half, body) {
            // The reply this client will never see is dropped and
            // counted, and the socket dies so the reader unblocks;
            // later queue entries drain through the `broken` arm.
            if is_timeout(&e) {
                stats.conn_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            stats.replies_dropped.fetch_add(1, Ordering::Relaxed);
            let _ = write_half.lock().unwrap().shutdown(Shutdown::Both);
            broken = true;
        }
    }
    let _ = write_half.lock().unwrap().shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A synchronous client for the serving protocol: blocking calls, one
/// connection, suitable for tests, benches, and command-line tools.
pub struct Client {
    stream: TcpStream,
    hello: ServerHello,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("model", &self.hello.model)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects, completes the versioned handshake, and returns a ready
    /// client. `io_timeout` bounds every subsequent socket read and
    /// write.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connect failures, [`NetError::Remote`] when
    /// the server refuses the handshake (version mismatch, connection
    /// cap), [`NetError::Corrupt`]/[`NetError::Protocol`] on a mangled
    /// reply.
    pub fn connect(addr: impl ToSocketAddrs, io_timeout: Duration) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let mut client = Client {
            stream,
            hello: ServerHello {
                version: 0,
                model: String::new(),
                fingerprint: 0,
                inputs: Vec::new(),
                outputs: Vec::new(),
            },
        };
        client.send(&ClientMsg::Hello {
            version: NET_PROTOCOL_VERSION,
        })?;
        match client.recv()? {
            ServerMsg::HelloOk(h) => {
                client.hello = h;
                Ok(client)
            }
            ServerMsg::Error { code, detail, .. } => Err(NetError::Remote { code, detail }),
            other => Err(NetError::Protocol(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// The server's handshake reply (model name, signature).
    pub fn hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Sends one client message.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket refuses it.
    pub fn send(&mut self, msg: &ClientMsg) -> Result<(), NetError> {
        send_body(&mut self.stream, encode_client(msg))?;
        Ok(())
    }

    /// Receives one server message.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] (including timeouts), [`NetError::Corrupt`],
    /// [`NetError::Protocol`].
    pub fn recv(&mut self) -> Result<ServerMsg, NetError> {
        recv_server(&mut self.stream)
    }

    /// Sends a request without waiting for its reply (pipelining);
    /// match replies to requests by id with [`Client::recv`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket refuses it.
    pub fn send_request(
        &mut self,
        id: u64,
        inputs: Vec<(String, Vec<f32>)>,
        budget: Option<Duration>,
    ) -> Result<(), NetError> {
        let budget_us = budget.map_or(0, |b| (b.as_micros() as u64).max(1));
        self.send(&ClientMsg::Request {
            id,
            budget_us,
            inputs,
        })
    }

    /// One blocking round trip: sends request `id` and waits for its
    /// reply or structured failure.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] carrying the server's structured error,
    /// plus every [`Client::recv`] failure mode.
    pub fn call(
        &mut self,
        id: u64,
        inputs: Vec<(String, Vec<f32>)>,
        budget: Option<Duration>,
    ) -> Result<NetReply, NetError> {
        self.send_request(id, inputs, budget)?;
        match self.recv()? {
            ServerMsg::Reply(r) if r.id == id => Ok(r),
            ServerMsg::Error {
                id: eid,
                code,
                detail,
            } if eid == id || eid == CONN_ERR_ID => Err(NetError::Remote { code, detail }),
            other => Err(NetError::Protocol(format!(
                "reply for a different request: {other:?}"
            ))),
        }
    }

    /// A health/readiness round trip.
    ///
    /// # Errors
    ///
    /// As [`Client::recv`].
    pub fn health(&mut self) -> Result<HealthReport, NetError> {
        self.send(&ClientMsg::Health)?;
        match self.recv()? {
            ServerMsg::Health(h) => Ok(h),
            other => Err(NetError::Protocol(format!(
                "expected Health reply, got {other:?}"
            ))),
        }
    }

    /// A polite close: sends `Bye` and waits for the server to hang up.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when even the goodbye fails to send.
    pub fn bye(mut self) -> Result<(), NetError> {
        self.send(&ClientMsg::Bye)?;
        let _ = self.stream.shutdown(Shutdown::Write);
        // Drain until EOF so the server's close is observed.
        let mut sink = [0u8; 256];
        loop {
            match io::Read::read(&mut self.stream, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => continue,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Adversaries
// ---------------------------------------------------------------------------

/// What an adversarial client observed before its connection ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryOutcome {
    /// The server closed the connection with no error frame (slow-loris
    /// reclaim) — or the adversary itself hung up first (mid-frame
    /// disconnect).
    Closed,
    /// Structured error frames observed before the close, in order.
    Rejected(Vec<WireError>),
}

/// Plays one [`Misbehavior`](crate::loadgen::Misbehavior) against a
/// live front-end and reports what came back. `patience` bounds every
/// socket wait; pick it comfortably above the server's read timeout so
/// a slow-loris run observes the server's close rather than its own.
///
/// # Errors
///
/// [`NetError`] when the front-end does something the misbehavior
/// contract does not allow (e.g. hangs past `patience`).
pub fn run_adversary(
    addr: SocketAddr,
    misbehavior: &crate::loadgen::Misbehavior,
    patience: Duration,
) -> Result<AdversaryOutcome, NetError> {
    use crate::loadgen::Misbehavior;
    match misbehavior {
        Misbehavior::HoldOpen => {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(patience))?;
            // Never write a byte; the server's read timeout must
            // reclaim us. Seeing EOF here is the proof.
            let mut sink = [0u8; 64];
            loop {
                match io::Read::read(&mut stream, &mut sink) {
                    Ok(0) => return Ok(AdversaryOutcome::Closed),
                    Ok(_) => continue, // an error frame's bytes; keep draining
                    Err(e) if is_timeout(&e) => {
                        return Err(NetError::Protocol(
                            "server never reclaimed a held-open connection".into(),
                        ))
                    }
                    Err(_) => return Ok(AdversaryOutcome::Closed),
                }
            }
        }
        Misbehavior::MidFrameDisconnect => {
            let mut client = Client::connect(addr, patience)?;
            // A length prefix promising 64 bytes, then a third of them,
            // then nothing ever again.
            io::Write::write_all(&mut client.stream, &64u32.to_le_bytes())?;
            io::Write::write_all(&mut client.stream, &[0xAB; 20])?;
            let _ = client.stream.shutdown(Shutdown::Both);
            Ok(AdversaryOutcome::Closed)
        }
        Misbehavior::CorruptCrc => {
            let mut client = Client::connect(addr, patience)?;
            let body = encode_client(&ClientMsg::Request {
                id: 1,
                budget_us: 0,
                inputs: zero_inputs(&client.hello),
            });
            let mut sealed = seal(body);
            let mid = sealed.len() / 2;
            sealed[mid] ^= 0x01;
            write_frame(&mut client.stream, &sealed)?;
            let mut codes = Vec::new();
            loop {
                match client.recv() {
                    Ok(ServerMsg::Error { code, .. }) => codes.push(code),
                    Ok(other) => {
                        return Err(NetError::Protocol(format!(
                            "corrupt frame drew a non-error reply: {other:?}"
                        )))
                    }
                    Err(NetError::Io { .. }) => break,
                    Err(e) => return Err(e),
                }
            }
            Ok(AdversaryOutcome::Rejected(codes))
        }
        Misbehavior::PastDeadlineFlood { requests } => {
            let mut client = Client::connect(addr, patience)?;
            let inputs = zero_inputs(&client.hello);
            for id in 0..*requests as u64 {
                client.send_request(id, inputs.clone(), Some(Duration::from_micros(1)))?;
            }
            let mut codes = Vec::new();
            for _ in 0..*requests {
                match client.recv()? {
                    ServerMsg::Error { code, .. } => codes.push(code),
                    other => {
                        return Err(NetError::Protocol(format!(
                            "an expired request was answered with {other:?}"
                        )))
                    }
                }
            }
            let _ = client.bye();
            Ok(AdversaryOutcome::Rejected(codes))
        }
    }
}

/// All-zero inputs matching a handshake's signature — valid shape,
/// contents irrelevant (adversarial requests are never executed).
fn zero_inputs(hello: &ServerHello) -> Vec<(String, Vec<f32>)> {
    hello
        .inputs
        .iter()
        .map(|(name, len)| (name.clone(), vec![0.0; *len]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_client(msg: ClientMsg) {
        let body = encode_client(&msg);
        assert_eq!(decode_client(&body).unwrap(), msg);
        // Through the full seal/verify path, too.
        let sealed = seal(body);
        assert_eq!(decode_client(verify(&sealed).unwrap()).unwrap(), msg);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let body = encode_server(&msg);
        assert_eq!(decode_server(&body).unwrap(), msg);
        let sealed = seal(body);
        assert_eq!(decode_server(verify(&sealed).unwrap()).unwrap(), msg);
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Hello {
            version: NET_PROTOCOL_VERSION,
        });
        roundtrip_client(ClientMsg::Request {
            id: 42,
            budget_us: 1_500,
            inputs: vec![
                ("data".into(), vec![1.0, -2.5, 3.25]),
                ("label".into(), vec![0.0]),
            ],
        });
        roundtrip_client(ClientMsg::Health);
        roundtrip_client(ClientMsg::Bye);
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::HelloOk(ServerHello {
            version: 1,
            model: "fc".into(),
            fingerprint: 0xdead_beef,
            inputs: vec![("data".into(), 5), ("label".into(), 1)],
            outputs: vec!["head.value".into()],
        }));
        roundtrip_server(ServerMsg::Reply(NetReply {
            id: 7,
            seq: 99,
            outputs: vec![("head.value".into(), vec![0.1, 0.9])],
            batch_size: 8,
            flush: FlushReason::Deadline,
            replica: 3,
            retried: 1,
            cache_hit: true,
            latency: Duration::from_micros(12_345),
        }));
        roundtrip_server(ServerMsg::Error {
            id: CONN_ERR_ID,
            code: WireError::BadFrame,
            detail: "corrupt".into(),
        });
        let stats = StatsSnapshot {
            submitted: 10,
            completed: 8,
            deadline_shed: 1,
            replies_dropped: 2,
            conn_accepted: 3,
            frames_corrupt: 4,
            max_depth: 6,
            ..StatsSnapshot::default()
        };
        roundtrip_server(ServerMsg::Health(HealthReport {
            draining: true,
            depth: 2,
            capacity: 64,
            stats,
        }));
    }

    /// An error detail that echoes an over-long client-supplied name is
    /// cut to what a `u16` prefix can say without splitting a character:
    /// 65 534 ASCII bytes and then `é` would end mid-character at byte
    /// 65 535, and the peer would refuse the whole body.
    #[test]
    fn an_overlong_detail_is_cut_at_a_character_boundary() {
        let ascii = "x".repeat(u16::MAX as usize - 1);
        let sent = ServerMsg::Error {
            id: 9,
            code: WireError::BadRequest,
            detail: format!("{ascii}\u{e9} and then some"),
        };
        let received = decode_server(&encode_server(&sent)).expect("the body is valid UTF-8");
        let cut = ServerMsg::Error {
            id: 9,
            code: WireError::BadRequest,
            detail: ascii,
        };
        assert_eq!(received, cut);
    }

    /// The `Health` frame's bytes, pinned: kind 104, the draining flag,
    /// depth, capacity, then the nineteen counters as little-endian
    /// `u64`s in exactly this order. A counter inserted anywhere but the
    /// end of `StatsSnapshot`'s declaration shifts every value after it
    /// and fails here (and one appended must be added here, last).
    #[test]
    fn health_frame_bytes_are_pinned() {
        let stats = StatsSnapshot {
            submitted: 1,
            completed: 2,
            rejected: 3,
            failed: 4,
            batches: 5,
            flush_size: 6,
            flush_deadline: 7,
            flush_drain: 8,
            retries: 9,
            crashes: 10,
            restarts: 11,
            max_depth: 12,
            deadline_rejected: 13,
            deadline_shed: 14,
            replies_dropped: 15,
            conn_accepted: 16,
            conn_rejected: 17,
            conn_timeouts: 18,
            frames_corrupt: 19,
        };
        let msg = ServerMsg::Health(HealthReport {
            draining: true,
            depth: 0x0102,
            capacity: 64,
            stats,
        });
        let mut want = vec![104u8, 1];
        want.extend([0x02, 0x01, 0, 0, 0, 0, 0, 0]);
        want.extend([64, 0, 0, 0, 0, 0, 0, 0]);
        for counter in 1..=19u8 {
            want.extend([counter, 0, 0, 0, 0, 0, 0, 0]);
        }
        let body = encode_server(&msg);
        assert_eq!(body, want);
        assert_eq!(decode_server(&body).expect("decodes"), msg);
        assert_eq!(
            stats.to_string(),
            "submitted=1 completed=2 rejected=3 failed=4 batches=5 flush_size=6 flush_deadline=7 \
             flush_drain=8 retries=9 crashes=10 restarts=11 max_depth=12 deadline_rejected=13 \
             deadline_shed=14 replies_dropped=15 conn_accepted=16 conn_rejected=17 \
             conn_timeouts=18 frames_corrupt=19"
        );
    }

    #[test]
    fn every_wire_error_code_roundtrips() {
        for e in [
            WireError::Overloaded,
            WireError::Closed,
            WireError::BadRequest,
            WireError::Compile,
            WireError::Execution,
            WireError::ReplicaFailed,
            WireError::WaitTimeout,
            WireError::DeadlineExceeded,
            WireError::Draining,
            WireError::BadFrame,
            WireError::BadVersion,
            WireError::ConnLimit,
            WireError::Protocol,
            WireError::Unknown,
        ] {
            assert_eq!(WireError::from_code(e.code()), e);
        }
    }

    #[test]
    fn decoders_reject_truncation_trailing_bytes_and_unknown_kinds() {
        let body = encode_client(&ClientMsg::Request {
            id: 1,
            budget_us: 0,
            inputs: vec![("data".into(), vec![1.0])],
        });
        // Every proper prefix is a structured decode error, not a panic.
        for cut in 0..body.len() {
            assert!(decode_client(&body[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut long = body.clone();
        long.push(0);
        assert!(decode_client(&long).is_err(), "trailing byte accepted");
        assert!(decode_client(&[250]).is_err(), "unknown kind accepted");
        assert!(decode_server(&[250]).is_err(), "unknown kind accepted");
    }
    #[test]
    fn hostile_length_fields_fail_before_any_allocation() {
        // 65535 inputs announced, none present.
        let mut body = vec![K_REQUEST];
        put_u64(&mut body, 1);
        put_u64(&mut body, 0);
        put_u16(&mut body, u16::MAX);
        assert!(matches!(decode_client(&body), Err(NetError::Protocol(_))));
        // One input whose tensor claims u32::MAX values (16 GiB).
        let mut body = vec![K_REQUEST];
        put_u64(&mut body, 1);
        put_u64(&mut body, 0);
        put_u16(&mut body, 1);
        put_str(&mut body, "data");
        put_u32(&mut body, u32::MAX);
        assert!(matches!(decode_client(&body), Err(NetError::Protocol(_))));
        let mut body = vec![K_REPLY];
        body.extend_from_slice(&[0; 8 + 8 + 4 + 1 + 4 + 4 + 1 + 8]);
        put_u16(&mut body, u16::MAX);
        assert!(matches!(decode_server(&body), Err(NetError::Protocol(_))));
    }

    proptest! {
        /// Fuzz: any byte string behind any message kind decodes to a
        /// message or a `Protocol` error — never a panic or a hang.
        #[test]
        fn decoders_answer_arbitrary_bytes_with_a_structured_result(
            kind in prop_oneof![
                (1u16..5).prop_map(|k| k as u8),
                (101u16..105).prop_map(|k| k as u8),
                (0u16..256).prop_map(|k| k as u8),
            ],
            tail in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..192),
        ) {
            let mut body = vec![kind];
            body.extend(tail);
            match decode_client(&body) {
                Ok(msg) => prop_assert_eq!(encode_client(&msg).len(), body.len()),
                Err(e) => prop_assert!(matches!(e, NetError::Protocol(_)), "{e:?}"),
            }
            if let Err(e) = decode_server(&body) {
                prop_assert!(matches!(e, NetError::Protocol(_)), "{e:?}");
            }
        }
    }
}
