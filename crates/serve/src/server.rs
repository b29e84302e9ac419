//! The inference server: bounded admission, a dispatcher thread running
//! the size-or-deadline [`Batcher`], a shared job queue, and a
//! supervised pool of replica threads executing micro-batches.
//!
//! # Threading model
//!
//! No async runtime: one *dispatcher* thread owns the batcher and the
//! replica supervisor state, `replicas` worker threads each own a
//! [`BatchEngine`] (warm executors + persistent worker pool) and pull
//! jobs from a shared queue. Clients talk to the dispatcher over an
//! mpsc channel and receive responses through per-request [`Ticket`]
//! channels, so a slow client only ever delays itself.
//!
//! # Backpressure
//!
//! Admission is a compare-and-swap against `queue_cap`: the number of
//! admitted-but-unfinished requests is strictly bounded, and the
//! overflowing submit gets [`ServeError::Overloaded`] immediately —
//! the queue never grows without bound and the server never panics at
//! a client.
//!
//! # Fault tolerance
//!
//! A replica that panics mid-batch (injected via [`ReplicaHooks`] or a
//! genuine kernel panic) reports its in-flight job to the dispatcher
//! and dies. The dispatcher spawns a replacement replica under a fresh
//! id (ids are never reused), bumps the restart counter, and requeues
//! the job at the front — up to `retry_limit` retries, after which the
//! job's tickets fail with [`ServeError::ReplicaFailed`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use latte_runtime::ExecConfig;

use crate::batcher::{shed_expired, Batcher, FlushReason};
use crate::cache::PlanCache;
use crate::error::ServeError;
use crate::model::Model;
use crate::replica::{BatchAction, BatchEngine, NoHooks, ReplicaHooks};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Micro-batch size cap: a batch flushes the moment it holds this
    /// many requests.
    pub max_batch: usize,
    /// Coalescing deadline: a batch flushes this long after its first
    /// request arrived even if not full.
    pub max_delay: Duration,
    /// Admission cap on admitted-but-unfinished requests; submits beyond
    /// it get [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Replica threads executing micro-batches.
    pub replicas: usize,
    /// Worker-pool width inside each replica (intra-batch parallelism).
    pub threads: usize,
    /// Crash retries per micro-batch before its requests fail with
    /// [`ServeError::ReplicaFailed`].
    pub retry_limit: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_cap: 64,
            replicas: 1,
            threads: 1,
            retry_limit: 1,
        }
    }
}

/// A single-sample inference request: one `(ensemble, per_item values)`
/// entry per input the model declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The request's inputs, matched against
    /// [`Model::inputs`](crate::Model::inputs).
    pub inputs: Vec<(String, Vec<f32>)>,
}

/// How a response was produced — the observability half of every reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMeta {
    /// The request's submission sequence number.
    pub seq: u64,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
    /// Why that batch flushed.
    pub flush: FlushReason,
    /// Id of the replica that executed it.
    pub replica: usize,
    /// Times this request was re-run after a replica crash.
    pub retried: u32,
    /// Whether the batch's execution plan came from the cache (`false`
    /// exactly when this batch size was looked up for the first time).
    pub cache_hit: bool,
    /// Submit-to-completion latency.
    pub latency: Duration,
}

/// A completed inference: per-output values plus execution metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// One `(buffer, values)` row per output the model declares.
    pub outputs: Vec<(String, Vec<f32>)>,
    /// How the response was produced.
    pub meta: ReplyMeta,
}

/// The client's handle to an in-flight request.
#[derive(Debug)]
pub struct Ticket {
    seq: u64,
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// The request's submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the response (or failure) arrives.
    ///
    /// # Errors
    ///
    /// The serving-side failure, or [`ServeError::Closed`] when the
    /// server shut down with the request unanswered.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Blocks up to `timeout` for the response.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait`], plus [`ServeError::WaitTimeout`] when the
    /// deadline expires first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }
}

latte_runtime::counter_registry! {
    /// The server's counters, bumped along the request path.
    pub(crate) struct ServeStats;
    /// A monotonic snapshot of the server's counters. The order of the
    /// fields is the order of the `Health` frame's counter block
    /// (`serve::net`): a new counter goes at the end.
    pub struct StatsSnapshot;
    /// Requests admitted past admission control.
    submitted: u64,
    /// Requests answered successfully.
    completed: u64,
    /// Submits refused with [`ServeError::Overloaded`].
    rejected: u64,
    /// Requests failed (execution errors or exhausted crash retries).
    failed: u64,
    /// Micro-batches executed to completion.
    batches: u64,
    /// Batches flushed for reaching `max_batch`.
    flush_size: u64,
    /// Batches flushed by the coalescing deadline.
    flush_deadline: u64,
    /// Batches flushed by an explicit drain.
    flush_drain: u64,
    /// Micro-batch re-dispatches after replica crashes.
    retries: u64,
    /// Replica deaths observed (injected or genuine panics).
    crashes: u64,
    /// Replacement replicas spawned by the supervisor.
    restarts: u64,
    /// High-water mark of admitted-but-unfinished requests.
    max_depth: usize,
    /// Requests refused at admission because their client deadline had
    /// already passed — they never occupied a queue slot.
    deadline_rejected: u64,
    /// Admitted requests shed at batch-flush time because their client
    /// deadline passed while they coalesced — counted, answered with
    /// [`ServeError::DeadlineExceeded`], and never executed.
    deadline_shed: u64,
    /// Replies that found their receiver gone (an abandoned
    /// [`Ticket`], a disconnected network client) or refusing to drain
    /// (a full per-connection response queue) and were dropped instead
    /// of leaked.
    replies_dropped: u64,
    /// Network connections accepted by the front-end.
    conn_accepted: u64,
    /// Network connections refused at the max-connection cap or during
    /// handshake (version mismatch, bad first frame).
    conn_rejected: u64,
    /// Network connections closed by a read/write timeout — the
    /// slow-loris defense.
    conn_timeouts: u64,
    /// Frames that arrived with a bad CRC or an undecodable body.
    frames_corrupt: u64,
}

/// Where an admitted request's reply goes. In-process callers get a
/// dedicated unbounded channel behind a [`Ticket`]; network connections
/// share one *bounded* per-connection channel with replies tagged by
/// the client's request id (the response-backpressure seam).
pub(crate) enum ReplySink {
    /// A [`Ticket`]'s private channel.
    Ticket(Sender<Result<Response, ServeError>>),
    /// A tagged, bounded per-connection reply queue.
    Routed {
        /// The client-chosen request id echoed on the reply frame.
        id: u64,
        /// The connection's bounded reply queue.
        tx: mpsc::SyncSender<(u64, Result<Response, ServeError>)>,
    },
}

impl ReplySink {
    /// Delivers a reply, detecting dead or non-draining receivers: an
    /// abandoned [`Ticket`] (dropped or timed out) and a disconnected
    /// client both surface as a send error, a network client that
    /// stopped draining its bounded reply queue as a full queue. In
    /// every such case the reply is dropped — not leaked into a live
    /// slot — and counted in
    /// [`StatsSnapshot::replies_dropped`].
    fn send(&self, stats: &ServeStats, reply: Result<Response, ServeError>) {
        let delivered = match self {
            ReplySink::Ticket(tx) => tx.send(reply).is_ok(),
            ReplySink::Routed { id, tx } => tx.try_send((*id, reply)).is_ok(),
        };
        if !delivered {
            stats.replies_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One admitted request riding through the batcher and a job.
struct Pending {
    seq: u64,
    inputs: Vec<(String, Vec<f32>)>,
    sink: ReplySink,
    submitted: Instant,
    /// The client-supplied completion deadline, if any: checked at
    /// admission and again at every batch flush.
    deadline: Option<Instant>,
    retried: u32,
}

/// A flushed micro-batch on its way to (or through) a replica.
struct Job {
    seq: u64,
    items: Vec<Pending>,
    flush: FlushReason,
    crashes: u32,
}

enum QueueItem {
    Job(Job),
    Stop,
}

/// The replica-facing job queue: Mutex + Condvar, front-requeue for
/// retries so a crashed batch jumps the line.
struct JobQueue {
    q: Mutex<VecDeque<QueueItem>>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    fn push_back(&self, item: QueueItem) {
        self.q.lock().unwrap().push_back(item);
        self.cv.notify_one();
    }

    fn push_front(&self, item: QueueItem) {
        self.q.lock().unwrap().push_front(item);
        self.cv.notify_one();
    }

    fn pop(&self) -> QueueItem {
        let mut q = self.q.lock().unwrap();
        loop {
            if let Some(item) = q.pop_front() {
                return item;
            }
            q = self.cv.wait(q).unwrap();
        }
    }
}

enum Msg {
    Submit(Pending),
    Flush,
    Crashed {
        job: Job,
        detail: String,
    },
    Shutdown(Sender<()>),
}

/// State shared by the server handle, the dispatcher, and every replica.
struct Shared {
    model: Arc<Model>,
    cache: Arc<PlanCache>,
    hooks: Arc<dyn ReplicaHooks>,
    stats: Arc<ServeStats>,
    depth: Arc<AtomicUsize>,
    queue: Arc<JobQueue>,
    ctl: Sender<Msg>,
    threads: usize,
}

/// The running server. [`Server::shutdown`] (or dropping it) drains
/// pending work and joins every thread.
pub struct Server {
    model: Arc<Model>,
    cache: Arc<PlanCache>,
    cfg: ServeConfig,
    ctl: Sender<Msg>,
    depth: Arc<AtomicUsize>,
    next_seq: AtomicU64,
    stats: Arc<ServeStats>,
    draining: AtomicBool,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("model", &self.model.name())
            .field("cfg", &self.cfg)
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server for `model` with a private plan cache and no
    /// fault hooks.
    pub fn start(model: Model, cfg: ServeConfig) -> Server {
        let cache = Arc::new(PlanCache::new(ExecConfig {
            threads: cfg.threads,
            arena: false,
            gemm_blocking: None,
        }));
        Self::start_with(Arc::new(model), cfg, cache, Arc::new(NoHooks))
    }

    /// Starts a server with an explicit (possibly shared) plan cache and
    /// replica hooks. Sharing one cache across servers exercises the
    /// hit path end to end: the second server instantiates executors
    /// from already-lowered plans without compiling anything.
    pub fn start_with(
        model: Arc<Model>,
        cfg: ServeConfig,
        cache: Arc<PlanCache>,
        hooks: Arc<dyn ReplicaHooks>,
    ) -> Server {
        let (ctl, ctl_rx) = mpsc::channel();
        let stats = Arc::new(ServeStats::default());
        let depth = Arc::new(AtomicUsize::new(0));
        let shared = Arc::new(Shared {
            model: Arc::clone(&model),
            cache: Arc::clone(&cache),
            hooks,
            stats: Arc::clone(&stats),
            depth: Arc::clone(&depth),
            queue: Arc::new(JobQueue::new()),
            ctl: ctl.clone(),
            threads: cfg.threads.max(1),
        });
        let dispatcher = std::thread::Builder::new()
            .name("latte-serve-dispatcher".into())
            .spawn(move || dispatcher_loop(ctl_rx, shared, cfg))
            .expect("spawn dispatcher");
        Server {
            model,
            cache,
            cfg,
            ctl,
            depth,
            next_seq: AtomicU64::new(0),
            stats,
            draining: AtomicBool::new(false),
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Submits one request, returning a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for signature mismatches,
    /// [`ServeError::Overloaded`] when admission control is at capacity,
    /// [`ServeError::Closed`] after shutdown.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(req, None)
    }

    /// Submits one request carrying a client completion deadline. A
    /// deadline already in the past is rejected with
    /// [`ServeError::DeadlineExceeded`] *before* the request can occupy
    /// a queue slot; a deadline that expires while the request
    /// coalesces sheds it at flush time — either way the model never
    /// runs for an answer nobody can use.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`], plus [`ServeError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        req: Request,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        let seq = self.submit_sink(req, deadline, ReplySink::Ticket(tx))?;
        Ok(Ticket { seq, rx })
    }

    /// The shared admission path: deadline check, draining check,
    /// bounded-depth CAS, then hand-off to the dispatcher. The network
    /// front-end calls this directly with a [`ReplySink::Routed`] sink.
    pub(crate) fn submit_sink(
        &self,
        req: Request,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<u64, ServeError> {
        if let Some(d) = deadline {
            let now = Instant::now();
            if d <= now {
                self.stats.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded { late_by: now - d });
            }
        }
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        self.model.validate(&req.inputs)?;
        let cap = self.cfg.queue_cap;
        let mut d = self.depth.load(Ordering::Relaxed);
        loop {
            if d >= cap {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    depth: d,
                    capacity: cap,
                });
            }
            match self
                .depth
                .compare_exchange(d, d + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => d = current,
            }
        }
        self.stats.max_depth.fetch_max(d as u64 + 1, Ordering::Relaxed);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let pending = Pending {
            seq,
            inputs: req.inputs,
            sink,
            submitted: Instant::now(),
            deadline,
            retried: 0,
        };
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if self.ctl.send(Msg::Submit(pending)).is_err() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Closed);
        }
        Ok(seq)
    }

    /// Forces the currently coalescing partial batch out immediately
    /// ([`FlushReason::Drain`]). The deterministic lever for tests: no
    /// need to wait for a deadline.
    pub fn flush(&self) {
        let _ = self.ctl.send(Msg::Flush);
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The shared counter cell (the network front-end feeds its
    /// connection counters into the same snapshot).
    pub(crate) fn stats_cell(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Admitted-but-unfinished requests right now (the quantity
    /// admission control bounds by `queue_cap`).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Whether the server is draining for shutdown: admission is
    /// stopped ([`ServeError::Draining`]) but already admitted requests
    /// are still being answered.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Gracefully drains and stops the server, deterministically:
    ///
    /// 1. admission flips to [`ServeError::Draining`] (new submits are
    ///    refused, nothing new enters the queue);
    /// 2. the batcher's partial batch is force-flushed (shedding any
    ///    expired requests);
    /// 3. every in-flight and queued micro-batch runs to completion and
    ///    its replies are delivered;
    /// 4. replica threads and the dispatcher are joined.
    ///
    /// Idempotent: later calls (and the eventual drop) return
    /// immediately. A replica wedged by a blocking test hook is
    /// abandoned after 30 s rather than hanging the caller forever.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::Release);
        let handle = self.dispatcher.lock().unwrap().take();
        let Some(handle) = handle else { return };
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.ctl.send(Msg::Shutdown(ack_tx)).is_ok()
            && ack_rx.recv_timeout(Duration::from_secs(30)).is_err()
        {
            // A wedged replica stalls the drain; detach rather than
            // hang the caller forever.
            return;
        }
        let _ = handle.join();
    }

    /// The plan cache this server lowers through.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The served model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> ServeConfig {
        self.cfg
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatcher_loop(rx: Receiver<Msg>, shared: Arc<Shared>, cfg: ServeConfig) {
    let mut batcher: Batcher<Pending> = Batcher::new(cfg.max_batch, cfg.max_delay);
    let mut next_job_seq: u64 = 0;
    let mut next_replica_id = cfg.replicas.max(1);
    let mut replicas: Vec<JoinHandle<()>> = (0..cfg.replicas.max(1))
        .map(|id| spawn_replica(id, Arc::clone(&shared)))
        .collect();

    let dispatch = |items: Vec<Pending>, flush: FlushReason, next_job_seq: &mut u64| {
        // Flush-time deadline propagation: requests whose client
        // deadline passed while coalescing are shed here — counted,
        // answered, never executed. An all-expired batch dispatches
        // nothing at all.
        let now = Instant::now();
        let (live, expired) = shed_expired(items, now, |p| p.deadline);
        for p in expired {
            shared.depth.fetch_sub(1, Ordering::AcqRel);
            shared.stats.deadline_shed.fetch_add(1, Ordering::Relaxed);
            let late_by = now - p.deadline.expect("shed items carry a deadline");
            p.sink
                .send(&shared.stats, Err(ServeError::DeadlineExceeded { late_by }));
        }
        if live.is_empty() {
            return;
        }
        let job = Job {
            seq: *next_job_seq,
            items: live,
            flush,
            crashes: 0,
        };
        *next_job_seq += 1;
        shared.queue.push_back(QueueItem::Job(job));
    };

    loop {
        // Deadline-aware receive: sleep at most until the pending
        // batch's flush deadline.
        let msg = match batcher.deadline() {
            Some(deadline) => {
                let now = Instant::now();
                if deadline <= now {
                    if let Some((items, reason)) = batcher.poll(now) {
                        dispatch(items, reason, &mut next_job_seq);
                    }
                    continue;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        match msg {
            Msg::Submit(p) => {
                if let Some((items, reason)) = batcher.push(p, Instant::now()) {
                    dispatch(items, reason, &mut next_job_seq);
                }
            }
            Msg::Flush => {
                if let Some((items, reason)) = batcher.drain() {
                    dispatch(items, reason, &mut next_job_seq);
                }
            }
            Msg::Crashed { mut job, detail } => {
                job.crashes += 1;
                let id = next_replica_id;
                next_replica_id += 1;
                replicas.push(spawn_replica(id, Arc::clone(&shared)));
                shared.stats.restarts.fetch_add(1, Ordering::Relaxed);
                if job.crashes > cfg.retry_limit {
                    let retries = job.crashes - 1;
                    for p in job.items {
                        shared.depth.fetch_sub(1, Ordering::AcqRel);
                        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                        p.sink.send(
                            &shared.stats,
                            Err(ServeError::ReplicaFailed {
                                detail: detail.clone(),
                                retries,
                            }),
                        );
                    }
                } else {
                    shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                    for p in &mut job.items {
                        p.retried += 1;
                    }
                    // The retried job gets a fresh dispatch seq and the
                    // front of the queue: it has already waited once.
                    job.seq = next_job_seq;
                    next_job_seq += 1;
                    shared.queue.push_front(QueueItem::Job(job));
                }
            }
            Msg::Shutdown(ack) => {
                if let Some((items, reason)) = batcher.drain() {
                    dispatch(items, reason, &mut next_job_seq);
                }
                for _ in 0..replicas.len() {
                    shared.queue.push_back(QueueItem::Stop);
                }
                for h in replicas.drain(..) {
                    let _ = h.join();
                }
                let _ = ack.send(());
                break;
            }
        }
    }
}

fn spawn_replica(id: usize, shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("latte-serve-replica-{id}"))
        .spawn(move || replica_loop(id, shared))
        .expect("spawn replica")
}

fn replica_loop(id: usize, shared: Arc<Shared>) {
    let mut engine = BatchEngine::new(
        Arc::clone(&shared.model),
        Arc::clone(&shared.cache),
        shared.threads,
    );
    loop {
        let job = match shared.queue.pop() {
            QueueItem::Stop => return,
            QueueItem::Job(job) => job,
        };
        if shared.hooks.on_batch(id, job.seq, job.items.len()) == BatchAction::Crash {
            shared.stats.crashes.fetch_add(1, Ordering::Relaxed);
            let _ = shared.ctl.send(Msg::Crashed {
                job,
                detail: format!("replica {id} killed mid-batch (injected)"),
            });
            return;
        }
        let inputs: Vec<Vec<(String, Vec<f32>)>> =
            job.items.iter().map(|p| p.inputs.clone()).collect();
        match catch_unwind(AssertUnwindSafe(|| engine.run(&inputs))) {
            Ok(Ok((outputs, cache_hit))) => {
                let n = job.items.len();
                shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                let flush_stat = match job.flush {
                    FlushReason::Size => &shared.stats.flush_size,
                    FlushReason::Deadline => &shared.stats.flush_deadline,
                    FlushReason::Drain => &shared.stats.flush_drain,
                };
                flush_stat.fetch_add(1, Ordering::Relaxed);
                let done = Instant::now();
                for (p, rows) in job.items.into_iter().zip(outputs) {
                    let meta = ReplyMeta {
                        seq: p.seq,
                        batch_size: n,
                        flush: job.flush,
                        replica: id,
                        retried: p.retried,
                        cache_hit,
                        latency: done.duration_since(p.submitted),
                    };
                    // Counters move before the reply: a client woken by
                    // the send must observe its own completion in stats.
                    shared.depth.fetch_sub(1, Ordering::AcqRel);
                    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                    p.sink.send(
                        &shared.stats,
                        Ok(Response {
                            outputs: rows,
                            meta,
                        }),
                    );
                }
            }
            Ok(Err(e)) => {
                // Deterministic failure (compile/buffer error): retrying
                // on another replica cannot help, fail the tickets.
                for p in job.items {
                    shared.depth.fetch_sub(1, Ordering::AcqRel);
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    p.sink.send(&shared.stats, Err(e.clone()));
                }
            }
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "replica panicked".into());
                shared.stats.crashes.fetch_add(1, Ordering::Relaxed);
                let _ = shared.ctl.send(Msg::Crashed { job, detail });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_reply() -> Result<Response, ServeError> {
        Err(ServeError::WaitTimeout)
    }

    #[test]
    fn an_abandoned_ticket_receiver_counts_a_dropped_reply() {
        let stats = ServeStats::default();
        let (tx, rx) = mpsc::channel();
        let sink = ReplySink::Ticket(tx);
        drop(rx);
        sink.send(&stats, err_reply());
        assert_eq!(stats.snapshot().replies_dropped, 1);
    }

    #[test]
    fn a_full_routed_queue_counts_a_dropped_reply_without_blocking() {
        // The per-connection backpressure seam: a client that stops
        // draining its bounded reply queue loses replies (counted),
        // and the replica thread never blocks on it.
        let stats = ServeStats::default();
        let (tx, _rx) = mpsc::sync_channel(1);
        let sink = ReplySink::Routed { id: 7, tx };
        sink.send(&stats, err_reply()); // fills the queue
        sink.send(&stats, err_reply()); // refused: queue full
        assert_eq!(stats.snapshot().replies_dropped, 1);
    }

    #[test]
    fn a_disconnected_routed_queue_counts_a_dropped_reply() {
        let stats = ServeStats::default();
        let (tx, rx) = mpsc::sync_channel::<(u64, Result<Response, ServeError>)>(4);
        let sink = ReplySink::Routed { id: 3, tx };
        drop(rx);
        sink.send(&stats, err_reply());
        assert_eq!(stats.snapshot().replies_dropped, 1);
    }
}

/// A gate hook for tests: blocks every batch until opened, so a test
/// can hold work in flight and observe backpressure deterministically.
#[derive(Debug, Default)]
pub struct GateHooks {
    state: Mutex<bool>,
    cv: Condvar,
}

impl GateHooks {
    /// A closed gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the gate, releasing every blocked and future batch.
    pub fn open(&self) {
        *self.state.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl ReplicaHooks for GateHooks {
    fn on_batch(&self, _replica: usize, _seq: u64, _size: usize) -> BatchAction {
        let mut open = self.state.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        BatchAction::Proceed
    }
}
